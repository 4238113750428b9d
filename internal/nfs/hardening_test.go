package nfs

import (
	"errors"
	"net"
	"testing"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/faults"
	"webcluster/internal/testutil"
)

// TestClientTimeoutOnStalledServer: a file server whose connections stall
// (slow-loris) must fail the client's operation at its deadline instead
// of wedging the web node's request goroutine. Reverting the deadline in
// roundTrip turns this test into a 30s hang. The server's handler is left
// inside the injected stall, which only the fault wrapper's own Close
// releases: Close must sweep the connection the handler reads.
func TestClientTimeoutOnStalledServer(t *testing.T) {
	testutil.NoLeaks(t)
	store := &backend.MemStore{}
	if err := store.Put("/a.html", []byte("x")); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	in := faults.New(1)
	srv.SetFaults(in)
	in.Set("nfs.conn", faults.Rule{ReadStall: 30 * time.Second})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	client := Dial(addr)
	client.SetTimeout(200 * time.Millisecond)
	defer func() { _ = client.Close() }()

	start := time.Now()
	_, err = client.Fetch("/a.html")
	if err == nil {
		t.Fatal("fetch from stalled server succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want timeout error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fetch took %v — deadline not bounding the stall", elapsed)
	}
	if in.Fired("nfs.conn") == 0 {
		t.Fatal("stall rule never fired")
	}
	start = time.Now()
	_ = srv.Close()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close took %v with a handler in a 30s read stall", elapsed)
	}
}

// TestClientDialFaultInjection: a refused dial surfaces as ErrInjected
// through the client error chain.
func TestClientDialFaultInjection(t *testing.T) {
	srv := NewServer(&backend.MemStore{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	client := Dial(addr)
	defer func() { _ = client.Close() }()
	in := faults.New(2)
	client.SetFaults(in)
	in.Set("nfs.dial", faults.Rule{Refuse: true})
	if _, err := client.Fetch("/a"); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("want injected dial failure, got %v", err)
	}
	in.Clear("nfs.dial")
	if _, err := client.Fetch("/a"); errors.Is(err, faults.ErrInjected) {
		t.Fatalf("injection persisted after clear: %v", err)
	}
}
