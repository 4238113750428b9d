//go:build linux

package mgmt

import (
	"net"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/faults"
	"webcluster/internal/httpx"
	"webcluster/internal/testutil"
	"webcluster/internal/urltable"
)

// rawEnd reports whether c is a raw socket, or a wrapper (a fault
// injector's) whose embedded Conn is one.
func rawEnd(c net.Conn) bool {
	for c != nil {
		if _, ok := c.(*httpx.TCPConn); ok {
			return true
		}
		v := reflect.ValueOf(c)
		if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
			return false
		}
		inner := v.Elem().FieldByName("Conn")
		if !inner.IsValid() || !inner.CanInterface() {
			return false
		}
		c, _ = inner.Interface().(net.Conn)
	}
	return false
}

// acceptedConns records every connection a server accepts, as its
// handler receives it.
type acceptedConns struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (a *acceptedConns) wrap(c net.Conn) net.Conn {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.conns = append(a.conns, c)
	return c
}

// TestManagementConnsAreRaw: both ends of every management connection —
// console, controller to broker, broker to peer broker (a replica's
// pull), primary to backup — are raw sockets or fault wrappers over
// one, and a broker restarted on the same address is redialed raw by the
// controller and by its peers.
func TestManagementConnsAreRaw(t *testing.T) {
	testutil.NoLeaks(t)
	var accepted acceptedConns
	brokers := map[config.NodeID]*Broker{}
	addrs := map[config.NodeID]string{}
	start := func(node config.NodeID) {
		b := NewBroker(Env{Node: node, Store: &backend.MemStore{}})
		b.life.Wrap = accepted.wrap
		addr, err := b.Start(addrs[node])
		if err != nil {
			t.Fatal(err)
		}
		brokers[node], addrs[node] = b, addr
	}
	addrs["n1"], addrs["n2"] = "127.0.0.1:0", "127.0.0.1:0"
	start("n1")
	start("n2")
	defer func() {
		for _, b := range brokers {
			_ = b.Close()
		}
	}()
	ctl := NewController(urltable.New(urltable.Options{}))
	for node, addr := range addrs {
		if err := ctl.AddNode(node, addr); err != nil {
			t.Fatal(err)
		}
		defer ctl.RemoveNode(node)
	}
	server := NewConsoleServer(ctl, nil)
	server.life.Wrap = accepted.wrap
	consoleAddr, err := server.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Close() }()
	console, err := DialConsole(consoleAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = console.Close() }()
	if _, err := console.Do(ConsoleRequest{Op: "insert", Path: "/a.html", Data: []byte("hello"), Nodes: []config.NodeID{"n1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := console.Do(ConsoleRequest{Op: "replicate", Path: "/a.html", Source: "n1", Target: "n2"}); err != nil {
		t.Fatal(err)
	}

	repl := NewReplicationServer(ctl.Table(), config.ClusterSpec{}, 20*time.Millisecond)
	repl.life.Wrap = accepted.wrap
	replAddr, err := repl.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = repl.Close() }()
	backup := NewBackup(replAddr, 5*time.Second, func(*urltable.Table, config.ClusterSpec) error { return nil })
	backup.SetFaults(faults.New(1))
	if err := backup.Start(); err != nil {
		t.Fatal(err)
	}
	defer backup.Stop()
	for !backup.StateReceived() {
		time.Sleep(5 * time.Millisecond)
	}

	check := func(stage string) {
		t.Helper()
		ends := map[string]net.Conn{"console client": console.conn}
		backup.mu.Lock()
		ends["backup client"] = backup.conn
		backup.mu.Unlock()
		ctl.mu.Lock()
		for node, c := range ctl.brokers {
			c.mu.Lock()
			ends["controller → "+string(node)] = c.conn
			c.mu.Unlock()
		}
		ctl.mu.Unlock()
		peers := brokers["n2"].env.peers
		peers.mu.Lock()
		for addr, c := range peers.clients {
			c.mu.Lock()
			ends["n2 → peer "+addr] = c.conn
			c.mu.Unlock()
		}
		peers.mu.Unlock()
		if len(ends) != 5 {
			t.Fatalf("%s: %d client ends, want 5: %v", stage, len(ends), ends)
		}
		accepted.mu.Lock()
		for i, c := range accepted.conns {
			ends["accepted #"+strconv.Itoa(i)] = c
		}
		accepted.mu.Unlock()
		for name, c := range ends {
			if !rawEnd(c) {
				t.Errorf("%s: the %s end is a %T, not a raw socket", stage, name, c)
			}
		}
	}
	check("at start")

	_ = brokers["n1"].Close()
	start("n1")
	if err := ctl.Ping("n1"); err == nil {
		t.Fatal("the controller's connection outlived the broker it was to")
	}
	obj := content.Object{Path: "/b.html", Size: 5, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("hello"), "n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := console.Do(ConsoleRequest{Op: "replicate", Path: "/b.html", Source: "n1", Target: "n2"}); err == nil {
		t.Fatal("the target's peer connection outlived the broker it was to")
	}
	if _, err := console.Do(ConsoleRequest{Op: "replicate", Path: "/b.html", Source: "n1", Target: "n2"}); err != nil {
		t.Fatal(err)
	}
	check("after the broker restarted")
}
