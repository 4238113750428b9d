package distributor

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"webcluster/internal/admission"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/httpx"
	"webcluster/internal/respcache"
	"webcluster/internal/telemetry"
	"webcluster/internal/testutil"
)

// rawExchange writes raw to a fresh connection and reads until the
// distributor closes it, returning what was on the wire: the status code,
// the header block and the body bytes actually delivered (which a
// truncated relay leaves short of Content-Length).
func rawExchange(t *testing.T, addr, raw string) (status int, header string, body []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := io.WriteString(conn, raw); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	wire, _ := io.ReadAll(conn)
	head, rest, ok := bytes.Cut(wire, []byte("\r\n\r\n"))
	if !ok {
		t.Fatalf("no response header on the wire: %q", wire)
	}
	fields := strings.Fields(string(head))
	if len(fields) < 2 {
		t.Fatalf("status line: %q", head)
	}
	if status, err = strconv.Atoi(fields[1]); err != nil {
		t.Fatalf("status line: %q", head)
	}
	return status, string(head), rest
}

func get11(path string, hdr ...string) string {
	return "GET " + path + " HTTP/1.1\r\nHost: c\r\nConnection: close\r\n" + strings.Join(hdr, "") + "\r\n"
}

// liarBackend promises 100 body bytes and delivers 5, then hangs up.
func liarBackend(t *testing.T) string {
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
				if _, err := conn.Read(make([]byte, 4096)); err != nil {
					return
				}
				_, _ = io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort")
			}()
		}
	}()
	return l.Addr().String()
}

// TestEveryExitEmitsOneRecord drives each way a request can end and checks
// that finish ran exactly once for it: one access-log line, one finished
// span whose status, bytes and outcome match what went over the wire, and
// one per-class Requests increment (plus Errors for answers >= 400).
func TestEveryExitEmitsOneRecord(t *testing.T) {
	const path = "/exit.gif" // image class: prep traffic below is html
	body := []byte("GIF89a-exit-records")
	shortTTL := respcache.Options{FreshTTL: 50 * time.Millisecond, StaleTTL: time.Hour}
	fill := func(t *testing.T, tc *testCluster) {
		if resp := fetch(t, tc.front, path, httpx.Proto11); resp.StatusCode != 200 {
			t.Fatalf("fill: status %d", resp.StatusCode)
		}
	}
	fillAndExpire := func(t *testing.T, tc *testCluster) {
		fill(t, tc)
		time.Sleep(120 * time.Millisecond)
	}
	cases := []struct {
		name    string
		cache   *respcache.Options
		admit   bool
		path    string // measured path; default path
		raw     string // request bytes; default get11(path)
		prep    func(t *testing.T, tc *testCluster)
		prepped int64 // requests prep makes for the measured path
		status  int
		outcome string
		verdict string // X-Dist-Cache
	}{
		{name: "relayed", status: 200, outcome: outRelayed},
		{name: "cached-MISS", cache: &respcache.Options{FreshTTL: time.Hour},
			status: 200, outcome: outCached, verdict: "MISS"},
		{name: "cached-HIT", cache: &respcache.Options{FreshTTL: time.Hour}, prep: fill, prepped: 1,
			status: 200, outcome: outCached, verdict: "HIT"},
		{name: "cached-REVALIDATED", cache: &shortTTL, prep: fillAndExpire, prepped: 1,
			status: 200, outcome: outCached, verdict: "REVALIDATED"},
		{name: "cached-STALE", cache: &shortTTL, prepped: 1,
			prep: func(t *testing.T, tc *testCluster) {
				fillAndExpire(t, tc)
				_ = tc.backends["n1"].Close()
			},
			status: 200, outcome: outCached, verdict: "STALE"},
		{name: "no-route", path: "/ghost.gif", status: 404, outcome: outNoRoute},
		{name: "no-route-bad-path", path: "/", status: 404, outcome: outNoRoute},
		{name: "no-replica",
			prep:   func(t *testing.T, tc *testCluster) { tc.dist.SetAvailable("n1", false) },
			status: 503, outcome: outNoReplica},
		{name: "bad-gateway",
			prep:   func(t *testing.T, tc *testCluster) { _ = tc.backends["n1"].Close() },
			status: 502, outcome: outBadGateway},
		{name: "shed", admit: true, raw: get11(path, "X-Dist-Class: batch\r\n"),
			prep: func(t *testing.T, tc *testCluster) {
				tc.place(t, "/slow.html", []byte("slow"), "n1")
				drain := saturate(t, tc, admission.Batch, "/slow.html", 1)
				t.Cleanup(drain)
			},
			status: 503, outcome: outShed},
		{name: "relay-error", path: "/liar.gif", status: 200, outcome: outRelayError},
		{name: "parse-error", raw: "NOT HTTP AT ALL\r\n\r\n", status: 400, outcome: outParseError},
		{name: "parse-error-bare-LF", raw: "GET " + path + " HTTP/1.1\nHost: c\n\n", status: 400, outcome: outParseError},
		{name: "body-too-large", raw: "POST " + path + " HTTP/1.1\r\nHost: c\r\nContent-Length: 9223372036854775807\r\n\r\n",
			status: 413, outcome: outTooLarge},
		{name: "header-too-large", raw: "GET " + path + " HTTP/1.1\r\nX-Long: " + strings.Repeat("a", 96<<10) + "\r\n\r\n",
			status: 431, outcome: outHeaderTooLarge},
		{name: "not-implemented", raw: "POST " + path + " HTTP/1.1\r\nHost: c\r\nTransfer-Encoding: chunked\r\n\r\n",
			status: 501, outcome: outNotImplemented},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if c.path == "" && c.outcome != outParseError {
				c.path = path
			}
			if c.raw == "" {
				c.raw = get11(c.path)
			}
			var log syncBuffer
			tel := telemetry.New(telemetry.Options{Node: "dist"})
			tc := startClusterOpts(t, 1, func(o *Options) {
				o.AccessLog, o.Telemetry = &log, tel
				o.RetryBackoff = time.Millisecond
				if c.cache != nil {
					o.Cache = respcache.New(*c.cache)
				}
				if c.admit {
					withAdmission(6)(o)
				}
				o.Cluster.Nodes = append(o.Cluster.Nodes, config.NodeSpec{
					ID: "liar", CPUMHz: 350, MemoryMB: 64,
					Disk: config.DiskSCSI, Platform: config.LinuxApache, Addr: liarBackend(t),
				})
			})
			tc.place(t, path, body, "n1")
			liar := content.Object{Path: "/liar.gif", Size: 100, Class: content.ClassImage}
			if err := tc.table.Insert(liar, "liar"); err != nil {
				t.Fatal(err)
			}
			if c.prep != nil {
				c.prep(t, tc)
			}

			// records counts what finish has emitted for the measured path:
			// log lines, finished spans, and its class's Requests.
			cs := tc.dist.Stats().Class(content.Classify(c.path).String())
			var last telemetry.Span
			records := func() (lines, spans int, requests int64) {
				for _, l := range strings.Split(log.String(), "\n") {
					if strings.Contains(l, " "+c.path+" ") {
						lines++
					}
				}
				for _, sp := range tel.Spans(0) {
					if sp.Path == c.path && sp.Outcome != "client-fin" {
						spans++
						if sp.StartUnixNano >= last.StartUnixNano {
							last = sp
						}
					}
				}
				return lines, spans, cs.Requests.Value()
			}
			// wait for prep's own records to land
			var l0, s0 int
			var r0 int64
			testutil.Eventually(t, 2*time.Second, func() bool {
				l0, s0, r0 = records()
				return int64(l0) == c.prepped && int64(s0) == c.prepped && r0 == c.prepped
			}, "prep records never settled")
			e0 := cs.Errors.Value()

			status, header, wire := rawExchange(t, tc.front, c.raw)
			if status != c.status {
				t.Fatalf("status on the wire = %d, want %d", status, c.status)
			}
			if c.verdict != "" && !strings.Contains(header, "X-Dist-Cache: "+c.verdict) {
				t.Fatalf("want X-Dist-Cache: %s in\n%s", c.verdict, header)
			}

			var l1, s1 int
			var r1 int64
			testutil.Eventually(t, 2*time.Second, func() bool {
				l1, s1, r1 = records()
				return l1 > l0 && s1 > s0 && r1 > r0
			}, "finish did not emit every record")
			time.Sleep(30 * time.Millisecond) // a second emission would land by now
			l1, s1, r1 = records()
			if l1 != l0+1 || s1 != s0+1 || r1 != r0+1 {
				t.Fatalf("records = %d log lines, %d spans, %d requests; want exactly one of each",
					l1-l0, s1-s0, r1-r0)
			}
			if last.Status != status || last.Outcome != c.outcome || last.Bytes != int64(len(wire)) {
				t.Fatalf("span = status %d, %d bytes, outcome %q; wire = status %d, %d bytes, want outcome %q",
					last.Status, last.Bytes, last.Outcome, status, len(wire), c.outcome)
			}
			if !strings.Contains(log.String(), " "+strconv.Itoa(status)+" "+strconv.Itoa(len(wire))+"\n") {
				t.Fatalf("no access-log line with status %d and %d bytes:\n%s", status, len(wire), log.String())
			}
			wantErrs := e0
			if status >= 400 {
				wantErrs++
			}
			if got := cs.Errors.Value(); got != wantErrs {
				t.Fatalf("class Errors = %d, want %d", got, wantErrs)
			}
		})
	}
}

// TestOversizedBodyRefused: a Content-Length over httpx.MaxRequestBody is
// answered 413 before any of it is allocated or read (unchecked, the
// first length below panics the process in makeslice and the second asks
// for 4 GB), the connection is closed, and the distributor keeps serving.
func TestOversizedBodyRefused(t *testing.T) {
	tc := startCluster(t, 1)
	tc.place(t, "/a.html", []byte("still here"), "n1")
	for _, length := range []string{"9223372036854775807", "4000000000", strconv.Itoa(httpx.MaxRequestBody + 1)} {
		raw := "POST /a.html HTTP/1.1\r\nHost: c\r\nContent-Length: " + length + "\r\n\r\n"
		if status, _, _ := rawExchange(t, tc.front, raw); status != 413 {
			t.Fatalf("Content-Length %s: status %d, want 413", length, status)
		}
		if resp := fetch(t, tc.front, "/a.html", httpx.Proto11); resp.StatusCode != 200 || string(resp.Body) != "still here" {
			t.Fatalf("after Content-Length %s: %d %q", length, resp.StatusCode, resp.Body)
		}
	}
	// The bound itself is still a body the distributor reads and relays.
	raw := "POST /a.html HTTP/1.1\r\nHost: c\r\nConnection: close\r\nContent-Length: " + strconv.Itoa(httpx.MaxRequestBody) + "\r\n\r\n" +
		strings.Repeat("x", httpx.MaxRequestBody)
	if status, _, _ := rawExchange(t, tc.front, raw); status == 413 {
		t.Fatal("a body of exactly MaxRequestBody bytes was refused")
	}
}

// TestUnboundedHeaderLineRefused: a client streaming 8 MiB with no LF, in
// the request line or a header line, is answered 431 once the header
// section outgrows its bound; the connection closes and the next one is
// served.
func TestUnboundedHeaderLineRefused(t *testing.T) {
	tc := startCluster(t, 1)
	tc.place(t, "/a.html", []byte("still here"), "n1")
	for _, head := range []string{"GET /", "GET /a.html HTTP/1.1\r\nX-Long: "} {
		conn, err := net.Dial("tcp", tc.front)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := io.WriteString(conn, head); err != nil {
				return
			}
			chunk := bytes.Repeat([]byte("a"), 64<<10)
			for sent := 0; sent < 8<<20; sent += len(chunk) {
				if _, err := conn.Write(chunk); err != nil {
					return
				}
			}
		}()
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, err := httpx.ReadResponse(bufio.NewReader(conn))
		_ = conn.Close()
		<-done
		if err != nil {
			t.Fatalf("%q: %v", head, err)
		}
		if resp.StatusCode != 431 {
			t.Fatalf("%q: status %d, want 431", head, resp.StatusCode)
		}
	}
	if resp := fetch(t, tc.front, "/a.html", httpx.Proto11); resp.StatusCode != 200 || string(resp.Body) != "still here" {
		t.Fatalf("after the refusals: %d %q", resp.StatusCode, resp.Body)
	}
}

// TestTrackerChargedForCacheLedFetches: a back-end exchange the cache leads
// is load on that back end like any relay — the §3.3 index must see cold
// misses and revalidations, and must not see hits.
func TestTrackerChargedForCacheLedFetches(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: 50 * time.Millisecond, StaleTTL: time.Hour})
	tc := startClusterOpts(t, 2, withCache(rc))
	const n = 5
	paths := make([]string, n)
	for i := range paths {
		paths[i] = "/cold" + strconv.Itoa(i) + ".html"
		tc.place(t, paths[i], []byte("cold miss body"), "n1")
	}
	charged := func(want int64) {
		t.Helper()
		// the charge follows the last body byte, so the client can see the
		// response first
		testutil.Eventually(t, 2*time.Second, func() bool {
			return tc.dist.Tracker().Requests()["n1"] == want
		}, "tracker requests = %v, want n1:%d", tc.dist.Tracker().Requests(), want)
	}
	for _, p := range paths {
		if got := fetch(t, tc.front, p, httpx.Proto11).Header.Get("X-Dist-Cache"); got != "MISS" {
			t.Fatalf("%s: verdict %q, want MISS", p, got)
		}
	}
	charged(n)
	if got := fetch(t, tc.front, paths[0], httpx.Proto11).Header.Get("X-Dist-Cache"); got != "HIT" {
		t.Fatalf("verdict %q, want HIT", got)
	}
	time.Sleep(120 * time.Millisecond) // let freshness lapse
	if got := fetch(t, tc.front, paths[0], httpx.Proto11).Header.Get("X-Dist-Cache"); got != "REVALIDATED" {
		t.Fatalf("verdict %q, want REVALIDATED", got)
	}
	charged(n + 1) // the 304 exchange, not the hit
}
