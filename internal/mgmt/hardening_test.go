package mgmt

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webcluster/internal/content"
	"webcluster/internal/journal"
	"webcluster/internal/testutil"
	"webcluster/internal/urltable"
)

// TestBrokerClientTimeoutOnSilentServer: a broker that accepts but never
// answers (crashed agent loop, black-holed node) must fail the call at
// the client deadline — this is the path the monitor's prober runs on, so
// a hang here would freeze failure detection cluster-wide. Reverting the
// deadline in BrokerClient.call turns this test into a hang.
func TestBrokerClientTimeoutOnSilentServer(t *testing.T) {
	testutil.NoLeaks(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c // held open, never read, never answered
		}
	}()

	client, err := DialBroker(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	client.SetTimeout(150 * time.Millisecond)

	start := time.Now()
	_, _, err = client.Invoke("ping", Args{})
	if err == nil {
		t.Fatal("invoke against silent broker succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want timeout error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("invoke took %v — deadline not applied", elapsed)
	}
	select {
	case c := <-accepted:
		_ = c.Close()
	default:
	}
}

// TestBrokerClientRecoversAfterTimeout: a timeout against a live broker
// does not poison subsequent calls once the deadline allows them through.
func TestBrokerClientDeadlineClearedOnSuccess(t *testing.T) {
	testutil.NoLeaks(t)
	b := NewBroker(Env{Node: "n1"})
	addr, err := b.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	client, err := DialBroker(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	client.SetTimeout(2 * time.Second)
	if err := client.Install(Spec{Name: "ping", Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	// Several sequential calls must all finish well under the deadline —
	// a deadline left armed from a previous call would trip spuriously.
	for i := 0; i < 3; i++ {
		time.Sleep(20 * time.Millisecond)
		if _, _, err := client.Invoke("ping", Args{}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// redials returns the broker-redial events journaled so far.
func redials(j *journal.Journal) []journal.Event {
	return eventsOfKind(j, journal.KindBrokerRedial)
}

// TestControllerRedialsRestartedBroker: a node whose broker restarts
// (empty agent registry, same address) is managed again by the next
// call after the one that hit the outage — the controller redials, the
// need-code path re-installs the agents, and every redial is journaled.
// Before the client remembered its address, one broker restart cost
// management of the node until the distributor itself restarted.
func TestControllerRedialsRestartedBroker(t *testing.T) {
	testutil.NoLeaks(t)
	ctl := NewController(urltable.New(urltable.Options{}))
	jnl := journal.New(journal.Options{Node: "front"})
	ctl.SetJournal(jnl)
	first := NewBroker(env("n1"))
	addr, err := first.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.AddNode("n1", addr); err != nil {
		t.Fatal(err)
	}
	defer ctl.RemoveNode("n1")
	obj := content.Object{Path: "/before.html", Size: 1, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("b"), "n1"); err != nil {
		t.Fatal(err)
	}

	_ = first.Close()
	if err := ctl.Ping("n1"); err == nil {
		t.Fatal("ping through a stopped broker succeeded")
	}
	// still down: the redial itself fails, is journaled, and leaves the
	// client ready to try again
	if err := ctl.Ping("n1"); err == nil || !strings.Contains(err.Error(), "redialing broker") {
		t.Fatalf("ping while the broker is down = %v, want a redial failure", err)
	}
	if evs := redials(jnl); len(evs) != 1 || evs[0].Node != "n1" || evs[0].Detail == "reconnected" {
		t.Fatalf("failed redial journaled as %+v", evs)
	}

	fresh := NewBroker(env("n1"))
	if _, err := fresh.Start(addr); err != nil {
		t.Fatalf("restarting the broker on %s: %v", addr, err)
	}
	defer func() { _ = fresh.Close() }()
	obj.Path = "/after.html"
	if err := ctl.Insert(obj, []byte("a"), "n1"); err != nil {
		t.Fatalf("insert after the broker restarted: %v", err)
	}
	if fresh.Installs() == 0 || !fresh.env.Store.Has("/after.html") {
		t.Fatalf("restarted broker: %d installs, holds /after.html = %v", fresh.Installs(), fresh.env.Store.Has("/after.html"))
	}
	if evs := redials(jnl); len(evs) != 2 || evs[1].Detail != "reconnected" {
		t.Fatalf("redials journaled: %+v", evs)
	}
}

// TestBrokerClientRecoversAfterDeadlineMidReply: a reply cut by the
// call's deadline leaves half a frame on the connection. The client must
// not read the other half as the next reply: it drops the connection, and
// the next call redials and succeeds.
func TestBrokerClientRecoversAfterDeadlineMidReply(t *testing.T) {
	testutil.NoLeaks(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	served := make(chan struct{})
	var conns atomic.Int32
	go func() {
		defer close(served)
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			stall := conns.Add(1) == 1
			go func() {
				defer func() { _ = conn.Close() }()
				br := bufio.NewReader(conn)
				for {
					var req request
					if _, err := readFrame(br, &req); err != nil {
						return
					}
					reply := response{ID: req.ID, OK: true, Result: &Result{Message: "pong"}}
					if !stall {
						if err := writeFrame(conn, reply, nil); err != nil {
							return
						}
						continue
					}
					// the first connection sends a prefix promising a
					// payload, the envelope, and then nothing
					reply.Payload = true
					_ = writeFrame(&shortWriter{w: conn, left: 40}, reply, make([]byte, 64))
					<-release
					return
				}
			}()
		}
	}()

	client, err := DialBroker(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client.SetTimeout(200 * time.Millisecond)
	_, _, err = client.Invoke("ping", Args{})
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("call cut mid-reply = %v, want a timeout", err)
	}
	res, _, err := client.Invoke("ping", Args{})
	if err != nil || res.Message != "pong" {
		t.Fatalf("call after the cut one = %+v, %v; want pong over a fresh connection", res, err)
	}
	if n := conns.Load(); n != 2 {
		t.Fatalf("broker saw %d connections, want the original and one redial", n)
	}
	_ = client.Close()
	close(release)
	_ = l.Close()
	<-served
}

// shortWriter passes left bytes through and swallows the rest.
type shortWriter struct {
	w    net.Conn
	left int
}

func (s *shortWriter) Write(p []byte) (int, error) {
	n := len(p)
	if n > s.left {
		n = s.left
	}
	s.left -= n
	if n > 0 {
		if _, err := s.w.Write(p[:n]); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}
