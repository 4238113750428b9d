package distributor

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/content"
	"webcluster/internal/httpx"
	"webcluster/internal/journal"
	"webcluster/internal/respcache"
	"webcluster/internal/telemetry"
)

// withCache returns a startClusterOpts tweak enabling the response cache.
func withCache(c *respcache.Cache) func(*Options) {
	return func(o *Options) { o.Cache = c }
}

// backendRequests sums the html-class request counters across backends —
// the number of round trips that actually reached a back end.
func (tc *testCluster) backendRequests() int64 {
	var n int64
	for _, srv := range tc.backends {
		n += srv.Stats().Class("html").Requests.Value()
	}
	return n
}

// fetchHdr issues one request with extra header pairs on a fresh
// connection and returns the parsed response.
func fetchHdr(t *testing.T, addr, method, path string, hdr ...string) *httpx.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	pairs := append([]string{"Host", "c", "Connection", "close"}, hdr...)
	req := &httpx.Request{
		Method: method, Target: path, Path: path,
		Proto: httpx.Proto11, Header: httpx.NewHeader(pairs...),
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

func TestCacheHitSkipsBackend(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	tc := startClusterOpts(t, 2, withCache(rc))
	body := []byte("<html>hot content</html>")
	tc.place(t, "/hot.html", body, "n1")

	resp := fetch(t, tc.front, "/hot.html", httpx.Proto11)
	if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("miss fetch: status=%d body=%q", resp.StatusCode, resp.Body)
	}
	if got := resp.Header.Get("X-Dist-Cache"); got != "MISS" {
		t.Fatalf("first fetch verdict = %q, want MISS", got)
	}
	if resp.Header.Get("Etag") == "" || resp.Header.Get("Date") == "" {
		t.Fatal("cached response missing validators")
	}
	before := tc.backendRequests()
	for i := 0; i < 5; i++ {
		resp = fetch(t, tc.front, "/hot.html", httpx.Proto11)
		if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
			t.Fatalf("hit fetch %d: status=%d body=%q", i, resp.StatusCode, resp.Body)
		}
		if got := resp.Header.Get("X-Dist-Cache"); got != "HIT" {
			t.Fatalf("hit fetch %d verdict = %q", i, got)
		}
		if resp.Header.Get("Age") == "" {
			t.Fatalf("hit fetch %d missing Age", i)
		}
	}
	if after := tc.backendRequests(); after != before {
		t.Fatalf("cache hits reached a back end: %d round trips", after-before)
	}
	if st := rc.Stats(); st.Hits < 5 || st.Fills != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

// One request counts once: the cold GET that leads the fill is one miss
// (the leader's double-check records nothing), the next GET one hit.
func TestCacheCountsEachRequestOnce(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	tc := startClusterOpts(t, 1, withCache(rc))
	tc.place(t, "/once.html", []byte("<html>once</html>"), "n1")
	if v := fetch(t, tc.front, "/once.html", httpx.Proto11).Header.Get("X-Dist-Cache"); v != "MISS" {
		t.Fatalf("cold fetch verdict = %q, want MISS", v)
	}
	if st := rc.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after one cold GET: misses=%d hits=%d, want 1 and 0", st.Misses, st.Hits)
	}
	if v := fetch(t, tc.front, "/once.html", httpx.Proto11).Header.Get("X-Dist-Cache"); v != "HIT" {
		t.Fatalf("warm fetch verdict = %q, want HIT", v)
	}
	if st := rc.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("after a hit: misses=%d hits=%d, want 1 and 1", st.Misses, st.Hits)
	}
}

// A keep-alive cache hit allocates nothing in the distributor, parse to
// finish, with telemetry and the journal attached as core.Attach wires
// them: the target adopts the URL table's path string and the repeated
// header lines reuse the previous request's strings. The client writes a
// pre-rendered request and reads the known-length response into a fixed
// buffer, so it allocates nothing either.
func TestCacheHitAllocFree(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector makes sync.Pool drop Puts, so pooled state is reallocated")
	}
	epoch := time.Unix(1_700_000_000, 0)
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour, Clock: func() time.Time { return epoch }})
	tc := startClusterOpts(t, 1, func(o *Options) {
		o.Cache = rc
		o.Telemetry = telemetry.New(telemetry.Options{Node: "distributor"})
		o.Journal = journal.New(journal.Options{Node: "front"})
	})
	tc.place(t, "/docs/hot.html", bytes.Repeat([]byte("h"), 4096), "n1")
	conn, err := net.Dial("tcp", tc.front)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	get := []byte("GET /docs/hot.html HTTP/1.1\r\nHost: cluster.example\r\nUser-Agent: webbench\r\n\r\n")
	var raw bytes.Buffer
	for _, want := range []string{"MISS", "HIT"} {
		raw.Reset()
		if _, err := conn.Write(get); err != nil {
			t.Fatal(err)
		}
		resp, err := httpx.ReadResponse(bufio.NewReader(io.TeeReader(conn, &raw)))
		if err != nil || resp.Header.Get("X-Dist-Cache") != want {
			t.Fatalf("warm-up: %v, verdict %q, want %s", err, resp.Header.Get("X-Dist-Cache"), want)
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
		t.Fatalf("a measured hit answered differently:\n%q\nwant\n%q", buf, raw.Bytes())
	}
	if allocs != 0 {
		t.Fatalf("cache hit: %.1f allocations, want 0", allocs)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

func TestCacheClientConditional(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	tc := startClusterOpts(t, 1, withCache(rc))
	body := []byte("<html>conditional</html>")
	tc.place(t, "/cond.html", body, "n1")

	warm := fetch(t, tc.front, "/cond.html", httpx.Proto11)
	etag := warm.Header.Get("Etag")
	if etag == "" {
		t.Fatal("no Etag to condition on")
	}
	resp := fetchHdr(t, tc.front, "GET", "/cond.html", "If-None-Match", etag)
	if resp.StatusCode != 304 {
		t.Fatalf("matching If-None-Match: status = %d", resp.StatusCode)
	}
	if len(resp.Body) != 0 {
		t.Fatalf("304 carried a body: %q", resp.Body)
	}
	if resp.Header.Get("Etag") != etag {
		t.Fatal("304 lost the validator")
	}
	// a mismatched validator gets the full representation
	resp = fetchHdr(t, tc.front, "GET", "/cond.html", "If-None-Match", `"stale-tag"`)
	if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("mismatched If-None-Match: status=%d body=%q", resp.StatusCode, resp.Body)
	}
	if st := rc.Stats(); st.NotModified != 1 {
		t.Fatalf("notModified = %d, want 1", st.NotModified)
	}
}

func TestCacheHEADHit(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	tc := startClusterOpts(t, 1, withCache(rc))
	body := []byte("<html>head me</html>")
	tc.place(t, "/head.html", body, "n1")
	fetch(t, tc.front, "/head.html", httpx.Proto11) // warm

	conn, err := net.Dial("tcp", tc.front)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	req := &httpx.Request{
		Method: "HEAD", Target: "/head.html", Path: "/head.html",
		Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c", "Connection", "close"),
	}
	if err := httpx.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	if !strings.Contains(out, "X-Dist-Cache: HIT") {
		t.Fatalf("HEAD not served from cache:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("Content-Length: %d", len(body))) {
		t.Fatalf("HEAD lost the representation length:\n%s", out)
	}
	if strings.Contains(out, "head me") {
		t.Fatalf("HEAD carried a body:\n%s", out)
	}
}

func TestCacheCoalescedMiss(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	tc := startClusterOpts(t, 1, withCache(rc))
	body := []byte("<html>one fetch to rule them all</html>")
	tc.place(t, "/surge.html", body, "n1")
	// slow the backend down so every concurrent requester arrives while
	// the leader's fetch is still in flight
	tc.backends["n1"].SetDelay(func(backend.ServedRequest) time.Duration {
		return 150 * time.Millisecond
	})

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", tc.front)
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = conn.Close() }()
			req := &httpx.Request{
				Method: "GET", Target: "/surge.html", Path: "/surge.html",
				Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c", "Connection", "close"),
			}
			if err := httpx.WriteRequest(conn, req); err != nil {
				errs <- err
				return
			}
			resp, err := httpx.ReadResponse(bufio.NewReader(conn))
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
				errs <- fmt.Errorf("status=%d body=%q", resp.StatusCode, resp.Body)
				return
			}
			if v := resp.Header.Get("X-Dist-Cache"); v != "HIT" && v != "MISS" {
				errs <- fmt.Errorf("verdict = %q", v)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := tc.backendRequests(); got != 1 {
		t.Fatalf("%d concurrent misses made %d backend fetches, want 1", clients, got)
	}
}

func TestCacheRevalidation(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: 50 * time.Millisecond, StaleTTL: time.Hour})
	tc := startClusterOpts(t, 1, withCache(rc))
	body := []byte("<html>unchanged upstream</html>")
	tc.place(t, "/reval.html", body, "n1")

	fetch(t, tc.front, "/reval.html", httpx.Proto11) // fill
	time.Sleep(120 * time.Millisecond)               // let freshness lapse

	resp := fetch(t, tc.front, "/reval.html", httpx.Proto11)
	if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("revalidated fetch: status=%d body=%q", resp.StatusCode, resp.Body)
	}
	if got := resp.Header.Get("X-Dist-Cache"); got != "REVALIDATED" {
		t.Fatalf("verdict = %q, want REVALIDATED (backend should have 304'd)", got)
	}
	// the refresh restored freshness: the next fetch is a plain hit
	resp = fetch(t, tc.front, "/reval.html", httpx.Proto11)
	if got := resp.Header.Get("X-Dist-Cache"); got != "HIT" {
		t.Fatalf("post-revalidation verdict = %q", got)
	}
	if st := rc.Stats(); st.Revalidated != 1 {
		t.Fatalf("revalidated = %d, want 1", st.Revalidated)
	}
}

func TestCacheStaleOnError(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: 50 * time.Millisecond, StaleTTL: time.Hour})
	tc := startClusterOpts(t, 2, withCache(rc))
	body := []byte("<html>last known good</html>")
	tc.place(t, "/fragile.html", body, "n1", "n2")

	fetch(t, tc.front, "/fragile.html", httpx.Proto11) // fill
	time.Sleep(120 * time.Millisecond)                 // expire
	for _, srv := range tc.backends {                  // every replica down
		_ = srv.Close()
	}

	resp := fetch(t, tc.front, "/fragile.html", httpx.Proto11)
	if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("stale-on-error: status=%d body=%q", resp.StatusCode, resp.Body)
	}
	if got := resp.Header.Get("X-Dist-Cache"); got != "STALE" {
		t.Fatalf("verdict = %q, want STALE", got)
	}
	if st := rc.Stats(); st.StaleServed == 0 {
		t.Fatalf("staleServed = 0: %+v", st)
	}
}

func TestCacheInvalidateNeverServesOldBody(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	tc := startClusterOpts(t, 1, withCache(rc))
	v1 := []byte("<html>version one</html>")
	v2 := []byte("<html>version two, longer</html>")
	tc.place(t, "/mut.html", v1, "n1")

	fetch(t, tc.front, "/mut.html", httpx.Proto11) // cache v1

	// the management-plane mutation: new content lands on the back end,
	// then the cache entry is purged
	if err := tc.backends["n1"].Store().Delete("/mut.html"); err != nil {
		t.Fatal(err)
	}
	if err := tc.backends["n1"].Store().Put("/mut.html", v2); err != nil {
		t.Fatal(err)
	}
	tc.backends["n1"].InvalidateCache("/mut.html")
	if n := rc.Invalidate("/mut.html"); n != 1 {
		t.Fatalf("Invalidate dropped %d entries", n)
	}

	resp := fetch(t, tc.front, "/mut.html", httpx.Proto11)
	if !bytes.Equal(resp.Body, v2) {
		t.Fatalf("post-purge fetch returned %q, want the new body", resp.Body)
	}
	if got := resp.Header.Get("X-Dist-Cache"); got != "MISS" {
		t.Fatalf("post-purge verdict = %q", got)
	}
}

func TestCacheUncacheableStreams(t *testing.T) {
	// per-entry cap below the object size: the miss path must stream the
	// response through the normal relay instead of buffering it
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour, MaxEntryBytes: 64})
	tc := startClusterOpts(t, 1, withCache(rc))
	body := bytes.Repeat([]byte("x"), 512)
	tc.place(t, "/large.html", body, "n1")

	for i := 0; i < 3; i++ {
		resp := fetch(t, tc.front, "/large.html", httpx.Proto11)
		if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
			t.Fatalf("fetch %d: status=%d len=%d", i, resp.StatusCode, len(resp.Body))
		}
		if v := resp.Header.Get("X-Dist-Cache"); v != "" {
			t.Fatalf("uncacheable response carried a cache verdict %q", v)
		}
	}
	// every fetch reached a back end; nothing was stored
	if got := tc.backendRequests(); got != 3 {
		t.Fatalf("backend round trips = %d, want 3", got)
	}
	if st := rc.Stats(); st.Entries != 0 {
		t.Fatalf("uncacheable body stored: %+v", st)
	}
}

func TestCacheDynamicBypassed(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	tc := startClusterOpts(t, 1, withCache(rc))
	tc.backends["n1"].HandleFunc("/cgi-bin/now", func(*httpx.Request) ([]byte, float64, error) {
		return []byte("dynamic"), 0, nil
	})
	tc.place(t, "/cgi-bin/now", []byte("#!script\n"), "n1")

	for i := 0; i < 2; i++ {
		resp := fetch(t, tc.front, "/cgi-bin/now", httpx.Proto11)
		if resp.StatusCode != 200 {
			t.Fatalf("dynamic fetch %d: status=%d", i, resp.StatusCode)
		}
		if v := resp.Header.Get("X-Dist-Cache"); v != "" {
			t.Fatalf("dynamic response cached: verdict %q", v)
		}
	}
}

// A 304 revalidation refreshes the resident entry in place: it is not a
// fill, so cache-stats and the admission reject ratio count only the
// bodies that really entered the cache.
func TestCacheRevalidationCountsNoFill(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: 50 * time.Millisecond, StaleTTL: time.Hour})
	tc := startClusterOpts(t, 1, withCache(rc))
	tc.place(t, "/reval.html", []byte("<html>unchanged upstream</html>"), "n1")

	fetch(t, tc.front, "/reval.html", httpx.Proto11) // fill
	for i := 0; i < 2; i++ {
		time.Sleep(120 * time.Millisecond) // let freshness lapse
		if v := fetch(t, tc.front, "/reval.html", httpx.Proto11).Header.Get("X-Dist-Cache"); v != "REVALIDATED" {
			t.Fatalf("revalidation %d verdict = %q", i, v)
		}
	}
	if st := rc.Stats(); st.Fills != 1 || st.Revalidated != 2 || st.Entries != 1 {
		t.Fatalf("after one fill and two revalidations: fills=%d revalidated=%d entries=%d, want 1, 2, 1",
			st.Fills, st.Revalidated, st.Entries)
	}
}

// A keep-alive cache miss allocates at most one object in the
// distributor when the cache is full and cycling more paths than fit: the
// flight is reused, the body goes into an entry an earlier release left
// on its size class's free list, and the one allocation is the strong
// ETag string the distributor derives because the back end sent none. A
// miss TinyLFU rejects hands its entry straight back to the free list; an
// admitted one evicts a victim whose release does the same. The back end
// answers each path with its own pre-rendered response, whose body starts
// with the path, so every fill reads bytes the entry's memory did not
// hold before; the client writes pre-rendered requests and reads the
// known-length reply into a fixed buffer.
func TestCacheMissAllocFree(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector makes sync.Pool drop Puts, so pooled state is reallocated")
	}
	const size = 1 << 10
	head := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"+
		"Date: Tue, 14 Nov 2023 22:13:20 GMT\r\nContent-Length: %d\r\n\r\n", size))
	miss := []byte("X-Dist-Cache: MISS")
	epoch := time.Unix(1_700_000_000, 0)

	// setup starts a cluster whose cache fits four entries and places n
	// paths on the answering node; get(i) answers path i.
	setup := func(t *testing.T, n int) (rc *respcache.Cache, get func(i int) []byte, measure func(runs int, path func(run int) int) float64) {
		rc = respcache.New(respcache.Options{
			MaxBytes: 4 * 1350, Shards: 1, FreshTTL: time.Hour,
			Clock: func() time.Time { return epoch },
		})
		paths := make([]string, n)
		bodies := make([][]byte, n)
		answers := make(map[string][]byte, n)
		for i := range paths {
			paths[i] = fmt.Sprintf("/docs/m%03d.html", i)
			bodies[i] = bytes.Repeat([]byte("m"), size)
			copy(bodies[i], paths[i])
			answers["GET "+paths[i]] = append(append([]byte(nil), head...), bodies[i]...)
		}
		tc := startClusterOpts(t, 0, func(o *Options) {
			o.Cache = rc
			o.Telemetry = telemetry.New(telemetry.Options{Node: "distributor"})
			o.Journal = journal.New(journal.Options{Node: "front"})
			withRawNode("c1", answeringBackend(t, func(req []byte) []byte {
				line, _, _ := bytes.Cut(req, []byte(" HTTP/"))
				return answers[string(line)]
			}))(o)
		})
		reqs := make([][]byte, n)
		for i, p := range paths {
			if err := tc.table.Insert(content.Object{Path: p, Size: size, Class: content.ClassHTML}, "c1"); err != nil {
				t.Fatal(err)
			}
			reqs[i] = []byte("GET " + p + " HTTP/1.1\r\nHost: cluster.example\r\nUser-Agent: webbench\r\n\r\n")
		}
		conn, err := net.Dial("tcp", tc.front)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		var raw bytes.Buffer
		get = func(i int) []byte {
			raw.Reset()
			if _, err := conn.Write(reqs[i]); err != nil {
				t.Fatal(err)
			}
			resp, err := httpx.ReadResponse(bufio.NewReader(io.TeeReader(conn, &raw)))
			if err != nil || resp.StatusCode != 200 || !bytes.Equal(resp.Body, bodies[i]) {
				t.Fatalf("warm-up GET %d: %v", i, err)
			}
			return raw.Bytes()
		}
		measure = func(runs int, path func(run int) int) float64 {
			warm := get(path(0))
			if !bytes.Contains(warm, miss) {
				t.Fatalf("the warm-up of the measured stream was not a miss:\n%q", warm)
			}
			// every path's reply has the same length: the same header
			// fields, and derived tags of one length for one body size
			buf := make([]byte, len(warm))
			run, wrong := 1, -1
			allocs := testing.AllocsPerRun(runs, func() {
				i := path(run)
				run++
				if _, err := conn.Write(reqs[i]); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(conn, buf); err != nil {
					t.Fatal(err)
				}
				if wrong < 0 && (!bytes.Contains(buf, miss) || !bytes.HasSuffix(buf, bodies[i])) {
					wrong = i
				}
			})
			if wrong >= 0 {
				t.Fatalf("a measured miss for %s was not that path's fresh body", paths[wrong])
			}
			return allocs
		}
		return rc, get, measure
	}

	t.Run("rejected", func(t *testing.T) {
		rc, get, measure := setup(t, 256)
		// four hot residents: TinyLFU prefers each to any newcomer
		for round := 0; round < 20; round++ {
			for i := 0; i < 4; i++ {
				get(i)
			}
		}
		before := rc.Stats()
		allocs := measure(100, func(run int) int { return 4 + run%252 })
		st := rc.Stats()
		if fills, rejected := st.Fills-before.Fills, st.Rejected-before.Rejected; fills != 0 || rejected != 102 {
			t.Fatalf("cold misses: %d fills, %d rejected, want 0 and 102", fills, rejected)
		}
		if allocs > 1 {
			t.Fatalf("rejected miss: %.1f allocations, want at most 1 (a derived validator)", allocs)
		}
	})

	t.Run("admitted", func(t *testing.T) {
		rc, get, measure := setup(t, 8)
		// eight paths round-robin through a cache of four: each request
		// misses, ties its victim in the sketch and displaces it
		for round := 0; round < 3; round++ {
			for i := 0; i < 8; i++ {
				get(i)
			}
		}
		before := rc.Stats()
		allocs := measure(100, func(run int) int { return run % 8 })
		st := rc.Stats()
		if fills, evicted := st.Fills-before.Fills, st.Evictions-before.Evictions; fills < 90 || evicted < 90 {
			t.Fatalf("cycling misses: %d fills, %d evictions of 102 requests, want each ≥ 90", fills, evicted)
		}
		if allocs > 1 {
			t.Fatalf("admitted miss: %.1f allocations, want at most 1 (a derived validator)", allocs)
		}
	})
}

// Recycled entries never serve another path's bytes. A cache of three
// entries takes concurrent hits and misses on many paths — every body
// names its own path — while invalidations and purges pull entries out
// from under the readers, so entries are evicted, rejected and reused
// constantly. Under -race an entry released before its last use (the
// memory goes to the next fill while a reply still reads it) is a
// reported race or a wrong body.
func TestCacheRecycleSafety(t *testing.T) {
	const (
		paths   = 48
		clients = 6
	)
	requests := 300
	if testing.Short() {
		requests = 100
	}
	pathOf := func(i int) string { return fmt.Sprintf("/docs/r%03d.html", i) }
	bodyOf := func(i int) []byte { return bytes.Repeat([]byte(fmt.Sprintf("<%03d>", i)), 200) }
	rc := respcache.New(respcache.Options{MaxBytes: 3 * 1400, Shards: 1, FreshTTL: time.Hour})
	tc := startClusterOpts(t, 2, withCache(rc))
	for i := 0; i < paths; i++ {
		tc.place(t, pathOf(i), bodyOf(i), "n1", "n2")
	}

	stop := make(chan struct{})
	purged := make(chan struct{})
	go func() {
		defer close(purged)
		r := rand.New(rand.NewSource(99))
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			if n%16 == 15 {
				rc.InvalidateAll()
			} else {
				rc.Invalidate(pathOf(r.Intn(paths)))
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", tc.front)
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = conn.Close() }()
			_ = conn.SetDeadline(time.Now().Add(time.Minute))
			br := bufio.NewReader(conn)
			r := rand.New(rand.NewSource(int64(c)))
			for n := 0; n < requests; n++ {
				i := r.Intn(paths)
				if r.Intn(2) == 0 {
					i = r.Intn(4) // a hot few, so hits mix with misses
				}
				method := "GET"
				if r.Intn(8) == 0 {
					method = "HEAD"
				}
				req := &httpx.Request{Method: method, Target: pathOf(i), Path: pathOf(i), Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c")}
				if err := httpx.WriteRequest(conn, req); err != nil {
					errs <- err
					return
				}
				read := httpx.ReadResponse
				if method == "HEAD" {
					read = httpx.ReadResponseHeader // a HEAD reply is its header
				}
				resp, err := read(br)
				if err == nil && method == "HEAD" {
					if resp.StatusCode != 200 || resp.ContentLength != int64(len(bodyOf(i))) {
						err = fmt.Errorf("HEAD %s: status %d, length %d", pathOf(i), resp.StatusCode, resp.ContentLength)
					}
				} else if err == nil && (resp.StatusCode != 200 || !bytes.Equal(resp.Body, bodyOf(i))) {
					err = fmt.Errorf("GET %s (%s): status %d, body %.24q…", pathOf(i), resp.Header.Get("X-Dist-Cache"), resp.StatusCode, resp.Body)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-purged
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := rc.Stats(); st.Fills == 0 || st.Rejected+st.Evictions == 0 {
		t.Fatalf("the cache never turned over: %+v", st)
	}
}
