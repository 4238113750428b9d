package webcluster

import (
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/distributor"
	"webcluster/internal/mgmt"
	"webcluster/internal/nfs"
	"webcluster/internal/telemetry"
	"webcluster/internal/testutil"
	"webcluster/internal/urltable"
)

// listener is what the seven networked components have in common.
type listener interface {
	Start(addr string) (string, error)
	Close() error
}

var lifecycleNode = config.NodeSpec{
	ID: "n1", CPUMHz: 350, MemoryMB: 64,
	Disk: config.DiskSCSI, Platform: config.LinuxApache,
}

func lifecycleBackend(t *testing.T) *backend.Server {
	t.Helper()
	srv, err := backend.NewServer(backend.ServerOptions{Spec: lifecycleNode, Store: &backend.MemStore{}})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// lifecycleDistributor returns an unstarted distributor over the one back
// end at web.
func lifecycleDistributor(t *testing.T, web string) *distributor.Distributor {
	t.Helper()
	node := lifecycleNode
	node.Addr = web
	d, err := distributor.New(distributor.Options{
		Table:   urltable.New(urltable.Options{}),
		Cluster: config.ClusterSpec{DistributorCPUMHz: 350, Nodes: []config.NodeSpec{node}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// closeBounded fails the test when s.Close takes longer than 5 s.
func closeBounded(t *testing.T, s listener, what string) {
	t.Helper()
	if !closes(s) {
		t.Fatalf("%s: Close hung", what)
	}
}

// closes reports whether s.Close returns within 5 s.
func closes(s listener) bool {
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case <-done:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// TestServerLifecycle holds every networked component to the contract
// written on lifecycle.Group. The racing rounds pin the
// register-after-sweep hang: a connection accepted just before Close must
// not enter the connection set after Close has swept it, or it idles in
// its read forever and Close never joins it.
func TestServerLifecycle(t *testing.T) {
	rows := []struct {
		name string
		// make builds an unstarted component; web is a live back end for
		// the ones that dial one.
		make func(t *testing.T, web string) listener
	}{
		{"distributor", func(t *testing.T, web string) listener { return lifecycleDistributor(t, web) }},
		{"replication", func(*testing.T, string) listener {
			return mgmt.NewReplicationServer(urltable.New(urltable.Options{}), config.ClusterSpec{Nodes: []config.NodeSpec{lifecycleNode}}, time.Millisecond)
		}},
		{"backend", func(t *testing.T, _ string) listener { return lifecycleBackend(t) }},
		{"broker", func(*testing.T, string) listener {
			return mgmt.NewBroker(mgmt.Env{Node: "n1", Store: &backend.MemStore{}})
		}},
		{"console", func(*testing.T, string) listener {
			return mgmt.NewConsoleServer(mgmt.NewController(urltable.New(urltable.Options{})), nil)
		}},
		{"nfs", func(*testing.T, string) listener { return nfs.NewServer(&backend.MemStore{}) }},
		{"admin", func(*testing.T, string) listener {
			return telemetry.NewAdmin(telemetry.New(telemetry.Options{Node: "front"}))
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			testutil.NoLeaks(t) // registered first, so it checks after web closes
			webSrv := lifecycleBackend(t)
			web, err := webSrv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = webSrv.Close() })

			t.Run("close races accept", func(t *testing.T) {
				for i := 0; i < 300; i++ {
					s := row.make(t, web)
					addr, err := s.Start("127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						t.Fatal(err)
					}
					ok := closes(s)
					_ = conn.Close() // lets a stuck reader go, so only this test fails
					if !ok {
						t.Fatalf("round %d: Close hung on a connection accepted during shutdown", i)
					}
				}
			})

			t.Run("close before start, twice", func(t *testing.T) {
				s := row.make(t, web)
				closeBounded(t, s, "before Start")
				closeBounded(t, s, "second Close")
			})

			if busy := lifecycleBusy[row.name]; busy != nil {
				t.Run("close ends work in flight", func(t *testing.T) {
					s := row.make(t, web)
					addr, err := s.Start("127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					busy(t, addr)
					closeBounded(t, s, "busy")
				})
			}

			t.Run("start after close", func(t *testing.T) {
				s := row.make(t, web)
				addr, err := s.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				closeBounded(t, s, "idle")
				if again, err := s.Start(addr); err == nil {
					t.Errorf("Start after Close succeeded, listening at %s", again)
				}
				l, err := net.Listen("tcp", addr)
				if err != nil {
					t.Fatalf("port not free after Close and a refused Start: %v", err)
				}
				_ = l.Close()
				closeBounded(t, s, "after a refused Start")
			})
		})
	}
}

// lifecycleBusy holds, by row, what leaves work in flight on a started
// component at addr, returning once it is; Close must end it within its
// bound.
var lifecycleBusy = map[string]func(t *testing.T, addr string){"admin": adminBusy}

// adminBusy leaves an idle keep-alive connection after a /metrics scrape
// and a CPU profile of 5 s in flight. Close must end both at once: the
// profile well inside its 5 s, so closes' bound is not what ends it.
func adminBusy(t *testing.T, addr string) {
	client := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(client.CloseIdleConnections)
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()

	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, "GET /debug/pprof/profile?seconds=5 HTTP/1.1\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, 5*time.Second, func() bool {
		buf := make([]byte, 1<<20)
		return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*AdminServer).timed")
	}, "the profile never started")
	start := time.Now()
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		_, _ = io.Copy(io.Discard, conn)
	}()
	t.Cleanup(func() {
		select {
		case <-ended:
		case <-time.After(10 * time.Second):
			t.Error("the profile's connection never ended")
			return
		}
		if d := time.Since(start); d > 4*time.Second {
			t.Errorf("the profile ran %v after Close: Close did not end it", d)
		}
	})
}
