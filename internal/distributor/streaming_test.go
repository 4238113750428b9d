package distributor

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/faults"
	"webcluster/internal/httpx"
	"webcluster/internal/testutil"
	"webcluster/internal/urltable"
)

// TestRelayTruncationOnContentLengthMismatch: a back end that advertises
// more body than it delivers must surface as a relay truncation — the
// client connection is cut (it already saw the too-long Content-Length),
// the truncation counter increments, and the mapping entry is torn down
// through EventReset rather than leaking.
func TestRelayTruncationOnContentLengthMismatch(t *testing.T) {
	testutil.NoLeaks(t)
	table := urltable.New(urltable.Options{})
	spec := config.ClusterSpec{
		DistributorCPUMHz: 350,
		Nodes: []config.NodeSpec{{
			ID: "liar", CPUMHz: 350, MemoryMB: 64,
			Disk: config.DiskSCSI, Platform: config.LinuxApache,
			Addr: liarBackend(t),
		}},
	}
	obj := content.Object{Path: "/x.html", Size: 100, Class: content.Classify("/x.html")}
	if err := table.Insert(obj, "liar"); err != nil {
		t.Fatal(err)
	}
	dist, err := New(Options{Table: table, Cluster: spec, PreforkPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	front, err := dist.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dist.Close() })

	conn, err := net.Dial("tcp", front)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	req := &httpx.Request{
		Method: "GET", Target: "/x.html", Path: "/x.html",
		Proto: httpx.Proto11, Header: httpx.NewHeader("Connection", "close"),
	}
	if err := httpx.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := httpx.ReadResponse(bufio.NewReader(conn)); err == nil {
		t.Fatal("client read a complete response from a truncated relay")
	}

	testutil.Eventually(t, 2*time.Second, func() bool {
		if dist.RelayTruncations() != 1 {
			return false
		}
		installed, deleted, _ := dist.Mapping().Counts()
		return installed >= 1 && deleted == installed
	}, "truncations = %d, mapping not reset", dist.RelayTruncations())
}

// TestClientDisconnectMidBody: a client that walks away while a large
// body is streaming must not be misreported as a back-end truncation, and
// the distributor keeps serving new connections afterwards.
func TestClientDisconnectMidBody(t *testing.T) {
	tc := startCluster(t, 1)
	big := bytes.Repeat([]byte("b"), 4<<20)
	tc.place(t, "/big.bin", big, "n1")
	tc.place(t, "/after.html", []byte("still here"), "n1")

	conn, err := net.Dial("tcp", tc.front)
	if err != nil {
		t.Fatal(err)
	}
	req := &httpx.Request{
		Method: "GET", Target: "/big.bin", Path: "/big.bin",
		Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c"),
	}
	if err := httpx.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	// Read just the start of the response, then vanish mid-body.
	buf := make([]byte, 4096)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()

	// The write failure tears down the client mapping but is not a
	// back-end truncation.
	testutil.Eventually(t, 5*time.Second, func() bool {
		installed, deleted, _ := tc.dist.Mapping().Counts()
		return installed >= 1 && deleted == installed
	}, "mapping not cleaned after client disconnect")
	if n := tc.dist.RelayTruncations(); n != 0 {
		t.Fatalf("client disconnect counted as %d backend truncations", n)
	}
	resp := fetch(t, tc.front, "/after.html", httpx.Proto11)
	if resp.StatusCode != 200 || string(resp.Body) != "still here" {
		t.Fatalf("post-disconnect fetch = %d %q", resp.StatusCode, resp.Body)
	}
}

// TestFaultInjectedDropMidBodyResetsMapping: a drop-after-N-bytes fault on
// the pooled back-end connection truncates the stream after the header but
// before the body completes; the error must propagate to the mapping-table
// state machine (EventReset → entry deleted) and count as a truncation.
func TestFaultInjectedDropMidBodyResetsMapping(t *testing.T) {
	in := faults.New(7)
	tc := startClusterOpts(t, 1, func(o *Options) {
		o.Faults = in
		o.RetryBackoff = time.Millisecond
	})
	body := bytes.Repeat([]byte("z"), 64<<10)
	tc.place(t, "/chunky.bin", body, "n1")

	// Let the request and response header through, then kill the stream
	// mid-body (the rule counts bytes in both directions).
	in.Set("pool.conn/n1", faults.Rule{DropAfterBytes: 4096})

	conn, err := net.Dial("tcp", tc.front)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	req := &httpx.Request{
		Method: "GET", Target: "/chunky.bin", Path: "/chunky.bin",
		Proto: httpx.Proto11, Header: httpx.NewHeader("Connection", "close"),
	}
	if err := httpx.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := httpx.ReadResponse(bufio.NewReader(conn)); err == nil {
		t.Fatal("client read a complete 64 KiB body through a 4 KiB drop rule")
	}

	if in.Fired("pool.conn/n1") == 0 {
		t.Fatal("drop rule never fired — test exercised nothing")
	}
	testutil.Eventually(t, 2*time.Second, func() bool {
		if tc.dist.RelayTruncations() == 0 {
			return false
		}
		installed, deleted, _ := tc.dist.Mapping().Counts()
		return installed >= 1 && deleted == installed
	}, "truncation not propagated to mapping state machine (truncations=%d)",
		tc.dist.RelayTruncations())
}

// TestNonIdempotentRequestNotRetried: a POST whose first exchange attempt
// dies must NOT be re-sent — not to another pooled connection, not to
// another replica — because its effect could apply twice. The client gets
// a 502 after exactly one backend attempt.
func TestNonIdempotentRequestNotRetried(t *testing.T) {
	attempts := make(chan struct{}, 16)
	// A back end that counts attempts and kills the connection without
	// responding.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer func() { _ = c.Close() }()
				if _, err := httpx.ReadRequest(bufio.NewReader(c)); err != nil {
					return
				}
				attempts <- struct{}{}
			}(conn)
		}
	}()

	table := urltable.New(urltable.Options{})
	node := func(id config.NodeID) config.NodeSpec {
		return config.NodeSpec{
			ID: id, CPUMHz: 350, MemoryMB: 64,
			Disk: config.DiskSCSI, Platform: config.LinuxApache,
			Addr: l.Addr().String(),
		}
	}
	spec := config.ClusterSpec{
		DistributorCPUMHz: 350,
		Nodes:             []config.NodeSpec{node("d1"), node("d2")},
	}
	obj := content.Object{Path: "/form.cgi", Size: 1, Class: content.Classify("/form.cgi")}
	if err := table.Insert(obj, "d1", "d2"); err != nil {
		t.Fatal(err)
	}
	dist, err := New(Options{
		Table: table, Cluster: spec, PreforkPerNode: 1,
		ExchangeRetries: 3, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front, err := dist.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dist.Close() })

	conn, err := net.Dial("tcp", front)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	req := &httpx.Request{
		Method: "POST", Target: "/form.cgi", Path: "/form.cgi",
		Proto: httpx.Proto11, Header: httpx.NewHeader("Connection", "close"),
		Body: []byte("amount=100"),
	}
	if err := httpx.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 502 {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	// Drain with a grace period: any retry would have landed by now.
	time.Sleep(100 * time.Millisecond)
	if n := len(attempts); n != 1 {
		t.Fatalf("non-idempotent request sent %d times, want 1", n)
	}
}
