package telemetry

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"webcluster/internal/httpx"
)

// Close must not return while the accept goroutine is still running: the
// admin server once leaked its serve goroutine past Close, which made
// shutdown racy — a scrape arriving between Close returning and the loop
// unwinding hit a half-torn-down server. Close straight after Start is
// the case only the join covers: the port must be free when Close
// returns. Twenty rounds, because one caught the old leak about half the
// time.
func TestAdminCloseJoinsServeGoroutine(t *testing.T) {
	for round := 0; round < 20; round++ {
		admin := NewAdmin(New(Options{Node: "front"}))
		addr, err := admin.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := admin.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("round %d: port still listening after Close returned: %v", round, err)
		}
		_ = l.Close()
	}
}

// adminGet fetches path from the admin server and decodes the JSON body
// into out.
func adminGet(t *testing.T, addr, path string, out any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: decoding %q: %v", path, body, err)
	}
}

// /debug/traces must present spans in start-time order. The span ring
// stores spans in *finish* order (newest finish first), so a long
// request that started before a short one used to appear after it —
// the regression this test pins.
func TestAdminTracesSortedByStartTime(t *testing.T) {
	now := time.Unix(1000, 0)
	tel := New(Options{Node: "front", Clock: func() time.Time { return now }})
	admin := NewAdmin(tel)
	addr, err := admin.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = admin.Close() }()

	long := tel.StartSpan(0) // starts first ...
	now = now.Add(10 * time.Millisecond)
	short := tel.StartSpan(0)
	now = now.Add(time.Millisecond)
	tel.FinishSpan(short)
	now = now.Add(time.Second)
	tel.FinishSpan(long) // ... finishes last, so the ring holds it newest

	var spans []Span
	adminGet(t, addr, "/debug/traces", &spans)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartUnixNano < spans[i-1].StartUnixNano {
			t.Fatalf("spans out of start order: [%d]=%d after [%d]=%d",
				i, spans[i].StartUnixNano, i-1, spans[i-1].StartUnixNano)
		}
	}
}

// Every endpoint, driven through net/http's client: the admin server
// speaks HTTP/1.1 to a stack that is not its own. Profiles are checked
// for the framing their readers need — heap?debug=1 is pprof's legacy
// text, and a binary profile is whole gzip members (go tool pprof reads
// a gzipped protobuf).
func TestAdminEndpoints(t *testing.T) {
	tel := New(Options{Node: "front"})
	tel.Registry().Class("html").Requests.Inc()
	sp := tel.StartSpan(0)
	sp.SetRequest("GET", "/a")
	tel.FinishSpan(sp)
	admin := NewAdmin(tel)
	addr, err := admin.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = admin.Close() }()
	client := &http.Client{Transport: &http.Transport{}, Timeout: 20 * time.Second}
	defer client.CloseIdleConnections()

	gzipped := func(t *testing.T, body []byte) {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("not gzip: %v", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil || len(raw) == 0 {
			t.Fatalf("gzip frames: %d bytes, %v", len(raw), err)
		}
	}
	for _, c := range []struct {
		method, path string
		status       int
		ctype        string
		check        func(t *testing.T, body []byte)
	}{
		{"GET", "/healthz", 200, "text/plain", func(t *testing.T, body []byte) {
			if string(body) != "ok\n" {
				t.Fatalf("body %q", body)
			}
		}},
		{"GET", "/metrics", 200, "text/plain; version=0.0.4; charset=utf-8", func(t *testing.T, body []byte) {
			samples := 0
			for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
				if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
					continue
				}
				sp := strings.LastIndexByte(line, ' ')
				if _, err := strconv.ParseFloat(line[sp+1:], 64); sp <= 0 || err != nil {
					t.Fatalf("sample line %q does not parse", line)
				}
				samples++
			}
			if samples == 0 || !strings.Contains(string(body), `webcluster_class_requests_total{node="front",class="html"} 1`) {
				t.Fatalf("%d samples, class counter missing:\n%s", samples, body)
			}
		}},
		{"GET", "/debug/traces?limit=5", 200, "application/json", func(t *testing.T, body []byte) {
			var spans []Span
			if err := json.Unmarshal(body, &spans); err != nil || len(spans) != 1 || spans[0].Path != "/a" {
				t.Fatalf("spans %+v, %v", spans, err)
			}
		}},
		{"GET", "/debug/traces?limit=bad", 400, textPlain, nil},
		{"GET", "/nowhere", 404, textPlain, nil},
		{"POST", "/metrics", 405, textPlain, nil},
		{"GET", "/debug/pprof/", 200, textPlain, func(t *testing.T, body []byte) {
			for _, name := range []string{"profile", "trace", "heap", "allocs", "goroutine", "block", "mutex", "threadcreate"} {
				if !strings.Contains(string(body), name+"\t") {
					t.Fatalf("index lists no %s:\n%s", name, body)
				}
			}
		}},
		{"GET", "/debug/pprof/heap?debug=1", 200, textPlain, func(t *testing.T, body []byte) {
			if !strings.HasPrefix(string(body), "heap profile: ") || !strings.Contains(string(body), "# runtime.MemStats") {
				t.Fatalf("not pprof's legacy heap text:\n%.200s", body)
			}
		}},
		{"GET", "/debug/pprof/heap", 200, "application/octet-stream", gzipped},
		{"GET", "/debug/pprof/goroutine?debug=2", 200, textPlain, func(t *testing.T, body []byte) {
			if !strings.Contains(string(body), "goroutine ") || !strings.Contains(string(body), "(*AdminServer).serveConn") {
				t.Fatalf("no goroutine dump naming the admin server:\n%.200s", body)
			}
		}},
		{"GET", "/debug/pprof/allocs", 200, "application/octet-stream", gzipped},
		{"GET", "/debug/pprof/block", 200, "application/octet-stream", gzipped},
		{"GET", "/debug/pprof/mutex", 200, "application/octet-stream", gzipped},
		{"GET", "/debug/pprof/threadcreate", 200, "application/octet-stream", gzipped},
		{"GET", "/debug/pprof/nosuch", 404, textPlain, nil},
		{"GET", "/debug/pprof/heap?seconds=1", 400, textPlain, nil},
		{"GET", "/debug/pprof/profile?seconds=1", 200, "application/octet-stream", gzipped},
		{"GET", "/debug/pprof/profile?seconds=30", 400, textPlain, nil},
		{"GET", "/debug/pprof/profile?seconds=NaN", 400, textPlain, nil},
		{"GET", "/debug/pprof/trace?seconds=0.2", 200, "application/octet-stream", func(t *testing.T, body []byte) {
			if !bytes.HasPrefix(body, []byte("go 1.")) {
				t.Fatalf("no execution trace header: %q", body[:min(len(body), 16)])
			}
		}},
	} {
		t.Run(c.method+" "+c.path, func(t *testing.T) {
			req, err := http.NewRequest(c.method, "http://"+addr+c.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.status || resp.Header.Get("Content-Type") != c.ctype {
				t.Fatalf("%d %q, want %d %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), c.status, c.ctype, body)
			}
			if c.status == 405 && resp.Header.Get("Allow") != "GET" {
				t.Fatalf("405 with Allow %q", resp.Header.Get("Allow"))
			}
			if c.check != nil {
				c.check(t, body)
			}
		})
	}
}

// The connection rules, on a raw socket: an HTTP/1.1 connection carries
// one request after another, HTTP/1.0 closes after its answer, and a
// request the parser refuses — a line ended by LF alone, or a header
// section past its bound — is answered 400 or 431 and the connection
// closed.
func TestAdminConnectionRules(t *testing.T) {
	admin := NewAdmin(New(Options{Node: "front"}))
	addr, err := admin.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = admin.Close() }()
	for _, c := range []struct {
		name, raw string
		statuses  []int
	}{
		{"keep-alive", "GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", []int{200, 200}},
		{"HTTP/1.0", "GET /healthz HTTP/1.0\r\n\r\nGET /healthz HTTP/1.0\r\n\r\n", []int{200}},
		{"bare LF", "GET /healthz HTTP/1.1\nHost: a\n\n", []int{400}},
		{"header too large", "GET /healthz HTTP/1.1\r\nX-Long: " + strings.Repeat("a", 96<<10) + "\r\n\r\n", []int{431}},
	} {
		t.Run(c.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			go func() { _, _ = io.WriteString(conn, c.raw) }()
			br := bufio.NewReader(conn)
			for i, want := range c.statuses {
				resp, err := httpx.ReadResponse(br)
				if err != nil || resp.StatusCode != want {
					t.Fatalf("response %d: %v, %v; want %d", i, resp, err, want)
				}
			}
			// a close with the rest of the request unread is a reset
			if b, err := br.ReadByte(); err == nil {
				t.Fatalf("after the last answer: read %q, want the server's close", b)
			}
		})
	}
}
