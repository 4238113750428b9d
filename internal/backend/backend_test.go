package backend

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/faults"
	"webcluster/internal/httpx"
	"webcluster/internal/testutil"
)

func testSpec(id string) config.NodeSpec {
	return config.NodeSpec{
		ID:       config.NodeID(id),
		CPUMHz:   350,
		MemoryMB: 64,
		DiskGB:   4,
		Disk:     config.DiskSCSI,
		Platform: config.LinuxApache,
	}
}

func TestMemStoreCRUD(t *testing.T) {
	var s MemStore
	if s.Has("/a") {
		t.Fatal("empty store has /a")
	}
	if err := s.Put("/a", []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("/a", []byte("dup")); !errors.Is(err, ErrAlreadyStored) {
		t.Fatalf("duplicate put: %v", err)
	}
	data, err := s.Fetch("/a")
	if err != nil || string(data) != "xyz" {
		t.Fatalf("fetch = %q, %v", data, err)
	}
	if s.UsedBytes() != 3 {
		t.Fatalf("used = %d", s.UsedBytes())
	}
	if got := s.List(); len(got) != 1 || got[0] != "/a" {
		t.Fatalf("list = %v", got)
	}
	if err := s.Delete("/a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/a"); !errors.Is(err, ErrNotStored) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := s.Fetch("/a"); !errors.Is(err, ErrNotStored) {
		t.Fatalf("fetch after delete: %v", err)
	}
	if s.UsedBytes() != 0 {
		t.Fatalf("used after delete = %d", s.UsedBytes())
	}
}

// TestMemStoreKeepsTheSliceItIsGiven: Put and Replace take ownership, so
// the bytes a broker read off the wire are the stored object, not a
// source to copy from.
func TestMemStoreKeepsTheSliceItIsGiven(t *testing.T) {
	var s MemStore
	first, second := []byte("abc"), []byte("defgh")
	if err := s.Put("/a", first); err != nil {
		t.Fatal(err)
	}
	if data, _ := s.Fetch("/a"); &data[0] != &first[0] {
		t.Fatal("Put copied the slice it was given")
	}
	if err := s.Replace("/a", second); err != nil {
		t.Fatal(err)
	}
	if data, _ := s.Fetch("/a"); &data[0] != &second[0] || s.UsedBytes() != 5 {
		t.Fatalf("after Replace: %q, used %d", data, s.UsedBytes())
	}
}

// TestReplaceNeverUnstoresThePath: Replace swaps the bytes in one step, so
// a Fetch beside 500 replaces sees some version of the file every time.
// Delete-then-Put let it see ErrNotStored, which a GET that missed the
// page cache turned into a 404 for content that exists.
func TestReplaceNeverUnstoresThePath(t *testing.T) {
	dir, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Store{"mem": &MemStore{}, "synthetic": &SyntheticStore{}, "dir": dir} {
		t.Run(name, func(t *testing.T) {
			if err := s.Replace("/p", []byte("x")); !errors.Is(err, ErrNotStored) {
				t.Fatalf("replace of an absent path = %v, want ErrNotStored", err)
			}
			if err := s.Put("/p", []byte("version 0")); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			missed := make(chan error, 1)
			go func() {
				defer close(missed)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := s.Fetch("/p"); err != nil {
						missed <- err
						return
					}
				}
			}()
			for i := 1; i <= 500; i++ {
				if err := s.Replace("/p", []byte(fmt.Sprintf("version %d", i))); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			if err := <-missed; err != nil {
				t.Fatalf("a Fetch beside the replaces failed: %v", err)
			}
			if got := s.UsedBytes(); got != int64(len("version 500")) {
				t.Errorf("used = %d bytes after the last replace, want %d", got, len("version 500"))
			}
			if got := s.List(); len(got) != 1 || got[0] != "/p" {
				t.Errorf("store lists %v, want only /p (no staging file left behind)", got)
			}
		})
	}
}

// TestDirStoreHidesStagingFiles: the file Replace stages beside its target
// lives inside the served tree, so one left by a crash between CreateTemp
// and Rename (or seen mid-replace) must not count as stored content.
func TestDirStoreHidesStagingFiles(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("/d/p", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	left := stagingPrefix + "123"
	if err := os.WriteFile(filepath.Join(s.Root(), "d", left), []byte("half a replace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.List(); len(got) != 1 || got[0] != "/d/p" {
		t.Errorf("store lists %v, want only /d/p", got)
	}
	if got := s.UsedBytes(); got != int64(len("kept")) {
		t.Errorf("used = %d bytes, want %d", got, len("kept"))
	}
	if s.Has("/d/" + left) {
		t.Error("Has reports the staging file as stored")
	}
	if _, err := s.Fetch("/d/" + left); err == nil {
		t.Error("the staging file can be fetched")
	}
	if err := s.Put("/d/"+stagingPrefix+"x", []byte("y")); err == nil {
		t.Error("a path under the staging prefix can be stored")
	}
}

func TestSyntheticStore(t *testing.T) {
	var s SyntheticStore
	if err := s.PlaceSized("/v/big.mpg", 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceSized("/v/big.mpg", 1); !errors.Is(err, ErrAlreadyStored) {
		t.Fatalf("duplicate place: %v", err)
	}
	if err := s.PlaceSized("/neg", -1); err == nil {
		t.Fatal("negative size accepted")
	}
	if !s.Has("/v/big.mpg") {
		t.Fatal("Has failed")
	}
	data, err := s.Fetch("/v/big.mpg")
	if err != nil || int64(len(data)) != 1<<20 {
		t.Fatalf("fetch: %d bytes, %v", len(data), err)
	}
	if s.UsedBytes() != 1<<20 {
		t.Fatalf("used = %d", s.UsedBytes())
	}
	if err := s.Delete("/v/big.mpg"); err != nil {
		t.Fatal(err)
	}
	if s.UsedBytes() != 0 {
		t.Fatal("used not zero after delete")
	}
	// Put works via the data's length.
	if err := s.Put("/p", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	data, _ = s.Fetch("/p")
	if len(data) != 5 {
		t.Fatalf("synthesized %d bytes", len(data))
	}
}

func TestSynthesizeBodyDeterministic(t *testing.T) {
	a := SynthesizeBody("/x/y.html", 1000)
	b := SynthesizeBody("/x/y.html", 1000)
	if !bytes.Equal(a, b) {
		t.Fatal("not deterministic")
	}
	if len(SynthesizeBody("/x", 0)) != 0 {
		t.Fatal("zero size body not empty")
	}
	if !bytes.HasPrefix(a, []byte("/x/y.html\n")) {
		t.Fatal("body does not embed path")
	}
}

// TestPropertySynthesizeBodyLength: any (path, size) yields exactly size
// bytes.
func TestPropertySynthesizeBodyLength(t *testing.T) {
	f := func(pathSuffix string, size uint16) bool {
		body := SynthesizeBody("/"+pathSuffix, int64(size))
		return len(body) == int(size)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func newTestServer(t *testing.T, store Store) *Server {
	t.Helper()
	testutil.NoLeaks(t) // registered before Close so it checks last
	if store == nil {
		store = &MemStore{}
	}
	srv, err := NewServer(ServerOptions{Spec: testSpec("t1"), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func get(path string) *httpx.Request {
	return &httpx.Request{
		Method: "GET", Target: path, Path: path,
		Proto: httpx.Proto11, Header: httpx.Header{},
	}
}

func TestHandleStatic(t *testing.T) {
	store := &MemStore{}
	_ = store.Put("/a.html", []byte("<html>A</html>"))
	srv := newTestServer(t, store)

	resp := srv.Handle(get("/a.html"))
	if resp.StatusCode != 200 || string(resp.Body) != "<html>A</html>" {
		t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
	}
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first fetch X-Cache = %q", resp.Header.Get("X-Cache"))
	}
	if resp.Header.Get("X-Served-By") != "t1" {
		t.Fatal("missing X-Served-By")
	}
	resp2 := srv.Handle(get("/a.html"))
	if resp2.Header.Get("X-Cache") != "HIT" {
		t.Fatal("second fetch not a cache hit")
	}
	st := srv.PageCacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

func TestHandle404(t *testing.T) {
	srv := newTestServer(t, nil)
	resp := srv.Handle(get("/missing.html"))
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if srv.Stats().Class("html").Errors.Value() != 1 {
		t.Fatal("error not counted")
	}
}

func TestHandleBadMethod(t *testing.T) {
	srv := newTestServer(t, nil)
	req := get("/a")
	req.Method = "BREW"
	if resp := srv.Handle(req); resp.StatusCode != 400 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHandleHead(t *testing.T) {
	store := &MemStore{}
	_ = store.Put("/a.html", []byte("content"))
	srv := newTestServer(t, store)
	req := get("/a.html")
	req.Method = "HEAD"
	resp := srv.Handle(req)
	if resp.StatusCode != 200 || len(resp.Body) != 0 {
		t.Fatalf("HEAD resp = %d, %d bytes", resp.StatusCode, len(resp.Body))
	}
	// The header is a GET's: the representation's length and, for a
	// conditional request, its validator.
	var wire bytes.Buffer
	if err := httpx.WriteResponse(&wire, resp); err != nil {
		t.Fatal(err)
	}
	if out := wire.String(); !strings.Contains(out, "Content-Length: 7\r\n") || !strings.HasSuffix(out, "\r\n\r\n") {
		t.Fatalf("HEAD on the wire:\n%q", out)
	}
	req.Header.Set("If-None-Match", `"other"`)
	if resp := srv.Handle(req); resp.Header.Get("Etag") != httpx.StrongETag([]byte("content")) || resp.ContentLength != 7 || len(resp.Body) != 0 {
		t.Fatalf("conditional HEAD = %d, Etag %q, length %d, %d body bytes", resp.StatusCode, resp.Header.Get("Etag"), resp.ContentLength, len(resp.Body))
	}
}

func TestDynamicHandlerExact(t *testing.T) {
	srv := newTestServer(t, nil)
	srv.HandleFunc("/cgi-bin/app.cgi", func(req *httpx.Request) ([]byte, float64, error) {
		return []byte("dynamic:" + req.Query), 2.0, nil
	})
	req := get("/cgi-bin/app.cgi")
	req.Query = "q=1"
	resp := srv.Handle(req)
	if resp.StatusCode != 200 || string(resp.Body) != "dynamic:q=1" {
		t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
	}
}

func TestDynamicHandlerPrefix(t *testing.T) {
	srv := newTestServer(t, nil)
	srv.HandlePrefix("/asp/", func(req *httpx.Request) ([]byte, float64, error) {
		return []byte("asp:" + req.Path), 1.0, nil
	})
	resp := srv.Handle(get("/asp/any/page.asp"))
	if string(resp.Body) != "asp:/asp/any/page.asp" {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestDynamicHandlerError(t *testing.T) {
	srv := newTestServer(t, nil)
	srv.HandleFunc("/cgi-bin/fail.cgi", func(*httpx.Request) ([]byte, float64, error) {
		return nil, 0, errors.New("boom")
	})
	resp := srv.Handle(get("/cgi-bin/fail.cgi"))
	if resp.StatusCode != 500 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestExactBeatsPrefix(t *testing.T) {
	srv := newTestServer(t, nil)
	srv.HandlePrefix("/cgi-bin/", func(*httpx.Request) ([]byte, float64, error) {
		return []byte("prefix"), 1, nil
	})
	srv.HandleFunc("/cgi-bin/x.cgi", func(*httpx.Request) ([]byte, float64, error) {
		return []byte("exact"), 1, nil
	})
	if resp := srv.Handle(get("/cgi-bin/x.cgi")); string(resp.Body) != "exact" {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestInvalidateCache(t *testing.T) {
	store := &MemStore{}
	_ = store.Put("/a.html", []byte("v1"))
	srv := newTestServer(t, store)
	_ = srv.Handle(get("/a.html")) // cached
	_ = store.Delete("/a.html")
	_ = store.Put("/a.html", []byte("v2-longer"))
	srv.InvalidateCache("/a.html")
	resp := srv.Handle(get("/a.html"))
	if string(resp.Body) != "v2-longer" {
		t.Fatalf("stale body %q", resp.Body)
	}
}

func TestPageCacheBounded(t *testing.T) {
	store := &MemStore{}
	for i := 0; i < 10; i++ {
		_ = store.Put(fmt.Sprintf("/f%d", i), make([]byte, 1024))
	}
	srv, err := NewServer(ServerOptions{
		Spec:           testSpec("t1"),
		Store:          store,
		PageCacheBytes: 3 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	for i := 0; i < 10; i++ {
		_ = srv.Handle(get(fmt.Sprintf("/f%d", i)))
	}
	st := srv.PageCacheStats()
	if st.Used > 3*1024 {
		t.Fatalf("cache used %d > bound", st.Used)
	}
	if st.Entries > 3 {
		t.Fatalf("entries = %d", st.Entries)
	}
}

func TestServerRejectsNilStore(t *testing.T) {
	if _, err := NewServer(ServerOptions{Spec: testSpec("x")}); err == nil {
		t.Fatal("nil store accepted")
	}
}

func TestServerRejectsBadSpec(t *testing.T) {
	if _, err := NewServer(ServerOptions{Spec: config.NodeSpec{}, Store: &MemStore{}}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestDelayApplied(t *testing.T) {
	store := &MemStore{}
	_ = store.Put("/a", []byte("x"))
	var sawDelay bool
	srv, err := NewServer(ServerOptions{
		Spec:  testSpec("t1"),
		Store: store,
		Delay: func(r ServedRequest) time.Duration {
			sawDelay = true
			if r.Class != content.ClassHTML {
				t.Errorf("class = %v", r.Class)
			}
			return time.Microsecond
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	_ = srv.Handle(get("/a"))
	if !sawDelay {
		t.Fatal("delay model not consulted")
	}
}

// Network-level tests.

func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

func TestServeKeepAlive(t *testing.T) {
	store := &MemStore{}
	_ = store.Put("/a", []byte("AAA"))
	_ = store.Put("/b", []byte("BBBB"))
	srv := newTestServer(t, store)
	addr := startServer(t, srv)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)

	for _, path := range []string{"/a", "/b", "/a"} {
		if err := httpx.WriteRequest(conn, get(path)); err != nil {
			t.Fatal(err)
		}
		resp, err := httpx.ReadResponse(br)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s → %d", path, resp.StatusCode)
		}
	}
	// Three requests over one connection: keep-alive held.
	total := srv.Stats().Class("html").Requests.Value()
	if total != 3 {
		t.Fatalf("served = %d requests", total)
	}
}

func TestServeHTTP10Closes(t *testing.T) {
	store := &MemStore{}
	_ = store.Put("/a", []byte("x"))
	srv := newTestServer(t, store)
	addr := startServer(t, srv)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	req := get("/a")
	req.Proto = httpx.Proto10
	if err := httpx.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := httpx.ReadResponse(br)
	if err != nil {
		t.Fatal(err)
	}
	if resp.KeepAlive() {
		t.Fatal("HTTP/1.0 response claims keep-alive")
	}
	// Server closes: next read hits EOF.
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("connection stayed open after HTTP/1.0 exchange")
	}
}

func TestServeMalformedRequest(t *testing.T) {
	srv := newTestServer(t, nil)
	addr := startServer(t, srv)
	for _, raw := range []string{"NONSENSE\r\n\r\n", "GET / HTTP/1.1\nHost: a\n\n", "GET / HTTP/1.1\r\nHost: a\n\r\n"} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(raw)); err != nil {
			t.Fatal(err)
		}
		resp, err := httpx.ReadResponse(bufio.NewReader(conn))
		_ = conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 400 {
			t.Fatalf("%q: status = %d, want 400", raw, resp.StatusCode)
		}
	}
}

// A client streaming 8 MiB with no LF is answered 431 once the header
// section outgrows its bound, and the server reads no further.
func TestServeUnboundedHeaderLine(t *testing.T) {
	srv := newTestServer(t, nil)
	conn, err := net.Dial("tcp", startServer(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	sent := make(chan int64, 1)
	go func() {
		n, _ := io.WriteString(conn, "GET / HTTP/1.1\r\nX-Long: ")
		chunk := bytes.Repeat([]byte("a"), 64<<10)
		total := int64(n)
		for total < 8<<20 {
			n, err := conn.Write(chunk)
			total += int64(n)
			if err != nil {
				break
			}
		}
		sent <- total
	}()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 431 {
		t.Fatalf("status = %d, want 431", resp.StatusCode)
	}
	_ = conn.Close()
	<-sent
}

func TestCloseUnblocksOpenConnections(t *testing.T) {
	srv := newTestServer(t, nil)
	addr := startServer(t, srv)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung on an idle keep-alive connection")
	}
}

// TestCloseWakesFaultStalledReader: a handler held inside an injected read
// stall is released only by the fault wrapper's own Close, so Close must
// sweep the connection the handler reads, not the socket under it.
func TestCloseWakesFaultStalledReader(t *testing.T) {
	testutil.NoLeaks(t)
	in := faults.New(1)
	in.Set("backend.conn/t1", faults.Rule{ReadStall: 30 * time.Second})
	srv, err := NewServer(ServerOptions{Spec: testSpec("t1"), Store: &MemStore{}, Faults: in})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", startServer(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	testutil.Eventually(t, 5*time.Second, func() bool { return in.Fired("backend.conn/t1") > 0 },
		"handler never entered the stall")
	start := time.Now()
	_ = srv.Close()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close took %v with a handler in a 30s read stall", elapsed)
	}
}

func TestConcurrentClients(t *testing.T) {
	store := &MemStore{}
	for i := 0; i < 10; i++ {
		_ = store.Put(fmt.Sprintf("/f%d", i), []byte("data"))
	}
	srv := newTestServer(t, store)
	addr := startServer(t, srv)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = conn.Close() }()
			br := bufio.NewReader(conn)
			for i := 0; i < 30; i++ {
				if err := httpx.WriteRequest(conn, get(fmt.Sprintf("/f%d", i%10))); err != nil {
					errs <- err
					return
				}
				resp, err := httpx.ReadResponse(br)
				if err != nil || resp.StatusCode != 200 {
					errs <- fmt.Errorf("resp %v %v", resp, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := srv.Stats().Class("html").Requests.Value(); got != 240 {
		t.Fatalf("served %d, want 240", got)
	}
}

func TestActiveRequestsSettlesToZero(t *testing.T) {
	store := &MemStore{}
	_ = store.Put("/a", []byte("x"))
	srv := newTestServer(t, store)
	for i := 0; i < 5; i++ {
		_ = srv.Handle(get("/a"))
	}
	if srv.ActiveRequests() != 0 {
		t.Fatalf("active = %d", srv.ActiveRequests())
	}
}

func TestDirStoreCRUD(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if s.Has("/docs/a.html") {
		t.Fatal("empty store has file")
	}
	if err := s.Put("/docs/a.html", []byte("on disk")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("/docs/a.html", []byte("dup")); !errors.Is(err, ErrAlreadyStored) {
		t.Fatalf("duplicate put: %v", err)
	}
	data, err := s.Fetch("/docs/a.html")
	if err != nil || string(data) != "on disk" {
		t.Fatalf("fetch = %q, %v", data, err)
	}
	if got := s.List(); len(got) != 1 || got[0] != "/docs/a.html" {
		t.Fatalf("list = %v", got)
	}
	if s.UsedBytes() != 7 {
		t.Fatalf("used = %d", s.UsedBytes())
	}
	if err := s.Delete("/docs/a.html"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/docs/a.html"); !errors.Is(err, ErrNotStored) {
		t.Fatalf("double delete: %v", err)
	}
	// The now-empty /docs directory was pruned.
	if _, err := os.Stat(filepath.Join(s.Root(), "docs")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("empty dir not pruned: %v", err)
	}
}

func TestDirStoreRejectsTraversal(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"../etc/passwd", "/../../etc/passwd", "/a/../../etc", "/", "relative"} {
		if err := s.Put(p, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", p)
		}
		if s.Has(p) {
			t.Errorf("Has(%q) true", p)
		}
	}
}

func TestDirStoreServesThroughServer(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Put("/index.html", []byte("<html>disk</html>"))
	srv := newTestServer(t, s)
	resp := srv.Handle(get("/index.html"))
	if resp.StatusCode != 200 || string(resp.Body) != "<html>disk</html>" {
		t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
	}
}

func TestDirStoreAgentLifecycle(t *testing.T) {
	// The broker's file agents operate on a real directory.
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("/deep/nested/file.html", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	ondisk := filepath.Join(dir, "deep", "nested", "file.html")
	if _, err := os.Stat(ondisk); err != nil {
		t.Fatalf("file not on disk: %v", err)
	}
}

// TestDeadlineRejectsOverdueRequest: a request whose propagated
// X-Dist-Deadline already lapsed is refused before any work.
func TestDeadlineRejectsOverdueRequest(t *testing.T) {
	store := &MemStore{}
	_ = store.Put("/a.html", []byte("<html>A</html>"))
	srv := newTestServer(t, store)

	req := get("/a.html")
	req.Deadline = time.Now().Add(-time.Second).UnixNano()
	resp := srv.Handle(req)
	if resp.StatusCode != 503 {
		t.Fatalf("overdue request got %d, want 503", resp.StatusCode)
	}
	if srv.Stats().Counter("backend_deadline_rejected").Value() != 1 {
		t.Fatal("rejection not counted")
	}

	// A future deadline leaves the request untouched.
	req2 := get("/a.html")
	req2.Deadline = time.Now().Add(time.Minute).UnixNano()
	if resp := srv.Handle(req2); resp.StatusCode != 200 {
		t.Fatalf("future-deadline request got %d", resp.StatusCode)
	}
}

// TestDeadlineCancelsMidWork: the emulated service time is cut short the
// moment the propagated deadline lapses, and the handler answers 503
// instead of finishing work nobody is waiting for.
func TestDeadlineCancelsMidWork(t *testing.T) {
	store := &MemStore{}
	_ = store.Put("/a.html", []byte("<html>A</html>"))
	srv := newTestServer(t, store)
	srv.SetDelay(func(ServedRequest) time.Duration { return time.Second })

	req := get("/a.html")
	req.Deadline = time.Now().Add(20 * time.Millisecond).UnixNano()
	start := time.Now()
	resp := srv.Handle(req)
	took := time.Since(start)
	if resp.StatusCode != 503 {
		t.Fatalf("canceled request got %d, want 503", resp.StatusCode)
	}
	if took >= 500*time.Millisecond {
		t.Fatalf("handler ran the full service time (%v) past the deadline", took)
	}
	if srv.Stats().Counter("backend_deadline_canceled").Value() != 1 {
		t.Fatal("cancellation not counted")
	}
}

// A keep-alive connection's static hit allocates nothing in the server:
// the connection owns its reader, request and response, and the fault
// point names are built once in NewServer. A large hit's memfd is filled
// on the first hit, so the second and later ones allocate nothing either.
func TestBackendServeAllocFree(t *testing.T) {
	for _, size := range []int{4 << 10, 256 << 10} {
		t.Run(fmt.Sprintf("%dKiB", size>>10), func(t *testing.T) {
			store := &MemStore{}
			body := bytes.Repeat([]byte("b"), size)
			_ = store.Put("/docs/a.html", body)
			srv := newTestServer(t, store)
			conn, err := net.Dial("tcp", startServer(t, srv))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			var wire bytes.Buffer
			if err := httpx.WriteRequest(&wire, get("/docs/a.html")); err != nil {
				t.Fatal(err)
			}
			req := wire.Bytes()
			exchange := func() []byte {
				if _, err := conn.Write(req); err != nil {
					t.Fatal(err)
				}
				resp := make([]byte, 0, size+1024)
				for !bytes.HasSuffix(resp, body) {
					n, err := conn.Read(resp[len(resp):cap(resp)])
					if err != nil {
						t.Fatal(err)
					}
					resp = resp[:len(resp)+n]
				}
				return resp
			}
			exchange() // a page-cache miss
			hit := firstHit(t, size, exchange)
			buf := make([]byte, len(hit))
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := conn.Write(req); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(conn, buf); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("a static hit allocates %.2f times per request, want 0", allocs)
			}
			if !bytes.Equal(buf, hit) {
				t.Fatal("a later hit differs from the first")
			}
		})
	}
}
