package distributor

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/faults"
	"webcluster/internal/httpx"
	"webcluster/internal/journal"
	"webcluster/internal/telemetry"
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

// cannedBackend is a raw-TCP back end that answers every request on a
// connection — a head with no body — with response, in one write. Past
// the connection's own read buffer it allocates nothing, so an
// allocation count taken around a relay through it is the distributor's.
func cannedBackend(t *testing.T, response []byte) string {
	t.Helper()
	return answeringBackend(t, func([]byte) []byte { return response })
}

// answeringBackend is cannedBackend with the reply chosen per request:
// answer gets each request's header block and returns the bytes to write.
func answeringBackend(t *testing.T, answer func(head []byte) []byte) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = conn.Close() }()
				endOfHead := []byte("\r\n\r\n")
				buf := make([]byte, 4096)
				n := 0
				for {
					m, err := conn.Read(buf[n:])
					if err != nil {
						return
					}
					if n += m; !bytes.HasSuffix(buf[:n], endOfHead) {
						if n == len(buf) {
							return
						}
						continue
					}
					if _, err := conn.Write(answer(buf[:n])); err != nil {
						return
					}
					n = 0
				}
			}()
		}
	}()
	return l.Addr().String()
}

// withRawNode adds a node named id at addr, a raw-TCP back end.
func withRawNode(id config.NodeID, addr string) func(*Options) {
	return func(o *Options) {
		o.Cluster.Nodes = append(o.Cluster.Nodes, config.NodeSpec{
			ID: id, CPUMHz: 350, MemoryMB: 64,
			Disk: config.DiskSCSI, Platform: config.LinuxApache,
			Addr: addr,
		})
	}
}

// withCannedNode adds a node named id served by cannedBackend(response).
func withCannedNode(t *testing.T, id config.NodeID, response []byte) func(*Options) {
	return withRawNode(id, cannedBackend(t, response))
}

// A keep-alive relay allocates nothing in the distributor, with telemetry
// and the journal attached as core.Attach wires them: the back-end
// connection's own reader takes a small response off the socket, a large
// body's remainder moves in the kernel through a pooled pipe, the
// exchange's Response and candidate list are reused, and the
// repeated header values keep the previous response's strings. The back
// end answers a pre-rendered response (header plus body in one write); the
// client writes a pre-rendered request and reads the known-length reply
// into a fixed buffer.
func TestRelayAllocFree(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector makes sync.Pool drop Puts, so pooled state is reallocated")
	}
	for _, size := range []int{8 << 10, 1 << 20} {
		t.Run(fmt.Sprintf("%dKiB", size>>10), func(t *testing.T) {
			body := bytes.Repeat([]byte("r"), size)
			canned := append([]byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n", size)), body...)
			tc := startClusterOpts(t, 0, func(o *Options) {
				o.Telemetry = telemetry.New(telemetry.Options{Node: "distributor"})
				o.Journal = journal.New(journal.Options{Node: "front"})
				withCannedNode(t, "c1", canned)(o)
			})
			obj := content.Object{Path: "/docs/page.html", Size: int64(len(body)), Class: content.ClassHTML}
			if err := tc.table.Insert(obj, "c1"); err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", tc.front)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			get := []byte("GET /docs/page.html HTTP/1.1\r\nHost: cluster.example\r\nUser-Agent: webbench\r\n\r\n")
			var raw bytes.Buffer
			for i := 0; i < 2; i++ {
				raw.Reset()
				if _, err := conn.Write(get); err != nil {
					t.Fatal(err)
				}
				resp, err := httpx.ReadResponse(bufio.NewReader(io.TeeReader(conn, &raw)))
				if err != nil || resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
					t.Fatalf("warm-up relay %d: %v", i, err)
				}
			}
			buf := make([]byte, raw.Len())
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := conn.Write(get); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(conn, buf); err != nil {
					t.Fatal(err)
				}
			})
			if !bytes.Equal(buf, raw.Bytes()) {
				t.Fatalf("a measured relay answered differently:\n%q\nwant\n%q", buf[:200], raw.Bytes()[:200])
			}
			if allocs != 0 {
				t.Fatalf("relay: %.1f allocations, want 0", allocs)
			}
		})
	}
}

// A body past what the back-end reader buffers moves in the kernel when
// both connections are raw TCP: a 1 MiB object arrives byte-identical, and
// the back-end connection keeps its framing — it goes back to the pool, the
// next request on it is answered, and no overflow connection is dialed.
func TestLargeRelayKernelPath(t *testing.T) {
	tc := startClusterOpts(t, 1, func(o *Options) { o.PreforkPerNode = 1 })
	big := make([]byte, 1<<20)
	_, _ = rand.New(rand.NewSource(1)).Read(big)
	after := []byte("next on the same connection")
	tc.place(t, "/big.bin", big, "n1")
	tc.place(t, "/after.html", after, "n1")

	conn, err := net.Dial("tcp", tc.front)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	for _, get := range []struct {
		path string
		want []byte
	}{{"/big.bin", big}, {"/after.html", after}, {"/big.bin", big}} {
		req := &httpx.Request{Method: "GET", Target: get.path, Path: get.path, Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c")}
		if err := httpx.WriteRequest(conn, req); err != nil {
			t.Fatal(err)
		}
		resp, err := httpx.ReadResponse(br)
		if err != nil || resp.StatusCode != 200 || !bytes.Equal(resp.Body, get.want) {
			t.Fatalf("GET %s: %v; body matches: %v", get.path, err, resp != nil && bytes.Equal(resp.Body, get.want))
		}
	}
	if n := tc.dist.pool.OverflowDials(); n != 0 {
		t.Fatalf("%d overflow dials: a relay lost the back-end connection's framing", n)
	}
	if n := tc.dist.RelayTruncations(); n != 0 {
		t.Fatalf("%d truncations on complete relays", n)
	}
}

// resettingBackend is a raw-TCP back end that answers each request with
// the header and half the body of a size-byte response, then resets the
// connection (SO_LINGER 0).
func resettingBackend(t *testing.T, size int) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	half := append([]byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", size)), bytes.Repeat([]byte("h"), size/2)...)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = conn.Close() }()
				if _, err := conn.Read(make([]byte, 4096)); err != nil {
					return
				}
				if _, err := conn.Write(half); err != nil {
					return
				}
				_ = conn.(*net.TCPConn).SetLinger(0)
			}()
		}
	}()
	return l.Addr().String()
}

// A back end that resets mid-body, past what the back-end reader buffers
// (so on the kernel path), counts as exactly one truncation and resets the
// client's mapping entry.
func TestKernelRelayBackendReset(t *testing.T) {
	tc := startClusterOpts(t, 0, func(o *Options) {
		// started in the tweak, so the leak check runs after it closes
		withRawNode("rst", resettingBackend(t, 1<<20))(o)
	})
	obj := content.Object{Path: "/reset.bin", Size: 1 << 20, Class: content.Classify("/reset.bin")}
	if err := tc.table.Insert(obj, "rst"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", tc.front)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	req := &httpx.Request{
		Method: "GET", Target: "/reset.bin", Path: "/reset.bin",
		Proto: httpx.Proto11, Header: httpx.NewHeader("Connection", "close"),
	}
	if err := httpx.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := httpx.ReadResponseHeader(bufio.NewReader(conn))
	if err != nil || resp.ContentLength != 1<<20 {
		t.Fatalf("the header did not reach the client: %v", err)
	}
	testutil.Eventually(t, 2*time.Second, func() bool {
		installed, deleted, _ := tc.dist.Mapping().Counts()
		return tc.dist.RelayTruncations() == 1 && installed >= 1 && deleted == installed
	}, "truncations = %d, mapping not reset", tc.dist.RelayTruncations())
}

// With the cache off, a HEAD relayed from a back end carries the object's
// length and no body, and both connections keep their framing: a GET after
// it on the same client connection gets the object.
func TestRelayedHEADKeepsLength(t *testing.T) {
	tc := startClusterOpts(t, 1, func(o *Options) { o.PreforkPerNode = 1 })
	body := bytes.Repeat([]byte("head"), 16<<10)
	tc.place(t, "/head.bin", body, "n1")
	conn, err := net.Dial("tcp", tc.front)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	if _, err := io.WriteString(conn, "HEAD /head.bin HTTP/1.1\r\nHost: c\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	head, err := httpx.ReadResponseHeader(br)
	if err != nil || head.StatusCode != 200 {
		t.Fatalf("HEAD: %v", err)
	}
	if head.ContentLength != int64(len(body)) {
		t.Fatalf("HEAD says Content-Length %d, want the object's %d", head.ContentLength, len(body))
	}
	// No body follows: the next bytes on the connection are the GET's answer.
	if _, err := io.WriteString(conn, "GET /head.bin HTTP/1.1\r\nHost: c\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	get, err := httpx.ReadResponse(br)
	if err != nil || !bytes.Equal(get.Body, body) {
		t.Fatalf("GET after HEAD: %v", err)
	}
	if n := tc.dist.pool.OverflowDials(); n != 0 {
		t.Fatalf("%d overflow dials: the HEAD cost the back-end connection its framing", n)
	}
}

// Fault injection stays on the data path: the raw connection sits under
// the fault wrappers, never beside them. A rule at the back end's
// accepted connection (backend.conn/<id>) or at the distributor's pooled
// one (pool.conn/<node>) still fires, and a wrapped pooled connection
// makes the relay copy the body through the wrapper instead of splicing
// past it.
func TestFaultsStayOnTheDataPath(t *testing.T) {
	body := bytes.Repeat([]byte("f"), 1<<20)
	for _, tt := range []struct {
		point string
		rule  faults.Rule
		// whole: the client gets every byte; otherwise one truncation
		whole bool
		// minFired: the rule must fire at least this often
		minFired int64
	}{
		// 1 MiB through 256 KiB copy buffers is at least four body reads
		// and the header's: a splice would have fired once.
		{"pool.conn/n1", faults.Rule{ReadStall: time.Millisecond}, true, 5},
		{"pool.conn/n1", faults.Rule{DropAfterBytes: 256 << 10}, false, 1},
		{"backend.conn/n1", faults.Rule{ReadStall: time.Millisecond}, true, 1},
		// The back end writes a response in one call; the drop counts
		// what a write carried only after it, so chunk the writes.
		{"backend.conn/n1", faults.Rule{DropAfterBytes: 256 << 10, MaxWriteChunk: 64 << 10}, false, 1},
	} {
		name := fmt.Sprintf("%s stall=%v drop=%d", tt.point, tt.rule.ReadStall, tt.rule.DropAfterBytes)
		t.Run(name, func(t *testing.T) {
			in := faults.New(1)
			in.Set(tt.point, tt.rule)
			var srv *backend.Server
			tc := startClusterOpts(t, 0, func(o *Options) {
				var err error
				srv, err = backend.NewServer(backend.ServerOptions{
					Spec: config.NodeSpec{
						ID: "n1", CPUMHz: 350, MemoryMB: 64,
						Disk: config.DiskSCSI, Platform: config.LinuxApache,
					},
					Store:  &backend.MemStore{},
					Faults: in,
				})
				if err != nil {
					t.Fatal(err)
				}
				addr, err := srv.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = srv.Close() })
				withRawNode("n1", addr)(o)
				o.Faults = in
				o.PreforkPerNode = 1
				o.RetryBackoff = time.Millisecond
			})
			if err := srv.Store().Put("/f.bin", body); err != nil {
				t.Fatal(err)
			}
			obj := content.Object{Path: "/f.bin", Size: int64(len(body)), Class: content.Classify("/f.bin")}
			if err := tc.table.Insert(obj, "n1"); err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", tc.front)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.WriteString(conn, "GET /f.bin HTTP/1.1\r\nHost: c\r\nConnection: close\r\n\r\n"); err != nil {
				t.Fatal(err)
			}
			resp, err := httpx.ReadResponse(bufio.NewReader(conn))
			if tt.whole {
				if err != nil || !bytes.Equal(resp.Body, body) {
					t.Fatalf("the client did not get the whole body: %v", err)
				}
			} else {
				if err == nil && bytes.Equal(resp.Body, body) {
					t.Fatal("the client got the whole body through a drop rule")
				}
				testutil.Eventually(t, 2*time.Second, func() bool { return tc.dist.RelayTruncations() == 1 },
					"truncations = %d, want 1", tc.dist.RelayTruncations())
			}
			if n := in.Fired(tt.point); n < tt.minFired {
				t.Fatalf("the rule fired %d times, want at least %d", n, tt.minFired)
			}
		})
	}
}
