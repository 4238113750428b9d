//go:build linux

package backend

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"webcluster/internal/faults"
	"webcluster/internal/httpx"
	"webcluster/internal/testutil"
)

// The kernel body path (bodyFile): a large page-cache hit on a raw
// connection leaves from a sealed memfd by sendfile(2). These cases hold it
// to what writev(2) promised: whole, ordered bodies, clean failure, fresh
// bytes after an invalidation, and no say over HEAD, 304 or a faulted
// connection.

// bodyFiles maps the inode of every open body memfd to a /proc/self/fd
// path for it. Inodes, not descriptors, tell files apart: a page the GC
// collects closes its memfd whenever it runs, freeing a descriptor number
// the next memfd may take.
func bodyFiles(t *testing.T) map[uint64]string {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]string)
	for _, e := range ents {
		p := "/proc/self/fd/" + e.Name()
		if target, err := os.Readlink(p); err != nil || !strings.HasPrefix(target, "/memfd:httpx-body") {
			continue
		}
		if st, err := os.Stat(p); err == nil {
			out[st.Sys().(*syscall.Stat_t).Ino] = p
		}
	}
	return out
}

// opened returns the body memfds open now that were not in before.
func opened(t *testing.T, before map[uint64]string) []string {
	t.Helper()
	var out []string
	for ino, p := range bodyFiles(t) {
		if _, ok := before[ino]; !ok {
			out = append(out, p)
		}
	}
	return out
}

// firstHit runs a static hit's first exchange and checks that it filled one
// body memfd exactly when the body is large enough to leave by sendfile(2).
func firstHit(t *testing.T, size int, exchange func() []byte) []byte {
	t.Helper()
	before := bodyFiles(t)
	hit := exchange()
	if got, want := len(opened(t, before)), btoi(size >= sendfileMin); got != want {
		t.Fatalf("the first hit opened %d body memfds, want %d", got, want)
	}
	return hit
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pattern returns n bytes that differ from any shift of themselves, so a
// reordered or repeated segment shows.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i/4093) ^ byte(i) ^ seed
	}
	return b
}

// largeServer serves body at /v.bin from a MemStore.
func largeServer(t *testing.T, body []byte, opts ServerOptions) (*Server, *MemStore, string) {
	t.Helper()
	testutil.NoLeaks(t)
	store := &MemStore{}
	if err := store.Put("/v.bin", body); err != nil {
		t.Fatal(err)
	}
	opts.Spec, opts.Store = testSpec("t1"), store
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, store, startServer(t, srv)
}

// client is one keep-alive connection to a back end.
type client struct {
	t    *testing.T
	conn *net.TCPConn
	br   *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	return dialRcvbuf(t, addr, 0)
}

// dialRcvbuf is dial with the client's receive buffer fixed at rcvbuf
// bytes before the handshake (0 leaves it to the kernel), so the window it
// advertises never grows past it.
func dialRcvbuf(t *testing.T, addr string, rcvbuf int) *client {
	t.Helper()
	d := net.Dialer{}
	if rcvbuf > 0 {
		d.Control = func(_, _ string, rc syscall.RawConn) error {
			var err error
			if cerr := rc.Control(func(fd uintptr) {
				err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, rcvbuf)
			}); cerr != nil {
				return cerr
			}
			return err
		}
	}
	c, err := d.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return &client{t: t, conn: c.(*net.TCPConn), br: bufio.NewReader(c)}
}

// send writes one request for path.
func (c *client) send(method, path string, hdr ...string) {
	c.t.Helper()
	raw := method + " " + path + " HTTP/1.1\r\nHost: t\r\n" + strings.Join(hdr, "") + "\r\n"
	if _, err := io.WriteString(c.conn, raw); err != nil {
		c.t.Fatal(err)
	}
}

// do makes one exchange and returns the response, body read whole for a
// GET.
func (c *client) do(method, path string, hdr ...string) *httpx.Response {
	c.t.Helper()
	c.send(method, path, hdr...)
	resp, err := httpx.ReadResponseHeader(c.br)
	if err != nil {
		c.t.Fatal(err)
	}
	if method == "GET" {
		resp.Body = make([]byte, resp.ContentLength)
		if _, err := io.ReadFull(c.br, resp.Body); err != nil {
			c.t.Fatal(err)
		}
	}
	return resp
}

// warm makes a miss and a first hit, which fills the memfd, and checks
// both bodies.
func (c *client) warm(body []byte) {
	c.t.Helper()
	before := bodyFiles(c.t)
	for _, want := range []string{"MISS", "HIT"} {
		resp := c.do("GET", "/v.bin")
		if resp.Header.Get("X-Cache") != want || !bytes.Equal(resp.Body, body) {
			c.t.Fatalf("%s: X-Cache %q, %d bytes, body equal %v", want, resp.Header.Get("X-Cache"), len(resp.Body), bytes.Equal(resp.Body, body))
		}
	}
	if got := len(opened(c.t, before)); got != 1 {
		c.t.Fatalf("the first hit opened %d body memfds, want 1", got)
	}
}

// A 1 MiB hit to a reader slower than the socket buffers drain arrives
// whole and in order: sendfile's partial sends resume where they stopped.
// The client's receive buffer is fixed small, so the body cannot all be
// queued and the send waits on the reader.
func TestSendfileSlowReader(t *testing.T) {
	body := pattern(1<<20, 1)
	_, _, addr := largeServer(t, body, ServerOptions{})
	c := dialRcvbuf(t, addr, 64<<10)
	c.warm(body)
	c.send("GET", "/v.bin")
	resp, err := httpx.ReadResponseHeader(c.br)
	if err != nil || resp.ContentLength != int64(len(body)) {
		t.Fatalf("header: %v, %v", resp, err)
	}
	got := make([]byte, 0, len(body))
	chunk := make([]byte, 16<<10)
	for len(got) < len(body) {
		if len(got)%(64<<10) < len(chunk) {
			time.Sleep(2 * time.Millisecond) // the sender finds its buffer full
		}
		n, err := c.br.Read(chunk[:min(len(chunk), len(body)-len(got))])
		if err != nil {
			t.Fatalf("after %d bytes: %v", len(got), err)
		}
		got = append(got, chunk[:n]...)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("the slow reader's body differs from the store's")
	}
	if again := c.do("GET", "/v.bin"); !bytes.Equal(again.Body, body) {
		t.Fatal("the next response on the connection differs")
	}
}

// A client that resets mid-sendfile ends its connection with an error:
// the handler returns, and the server serves the next client and closes
// promptly.
func TestSendfilePeerReset(t *testing.T) {
	body := pattern(8<<20, 2)
	srv, _, addr := largeServer(t, body, ServerOptions{})
	dial(t, addr).warm(body)
	c := dialRcvbuf(t, addr, 64<<10) // the body cannot all be queued
	c.send("GET", "/v.bin")
	if _, err := io.ReadFull(c.br, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	_ = c.conn.SetLinger(0)
	_ = c.conn.Close()
	testutil.Eventually(t, 5*time.Second, func() bool { return srv.ActiveRequests() == 0 },
		"the reset connection's request never finished")
	if resp := dial(t, addr).do("GET", "/v.bin"); !bytes.Equal(resp.Body, body) {
		t.Fatal("the next client's body differs")
	}
	start := time.Now()
	_ = srv.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v after a reset mid-sendfile", d)
	}
}

// An invalidation during a send closes the memfd under it: the send keeps
// the descriptor open until it completes, that response carries the old
// bytes whole, and the next carries the new ones. The body is larger than
// the kernel's largest socket send buffer and the client's receive buffer
// together, so the send is still running when the invalidation lands.
func TestSendfileInvalidateInFlight(t *testing.T) {
	old, fresh := pattern(8<<20, 3), pattern(8<<20, 4)
	srv, store, addr := largeServer(t, old, ServerOptions{})
	c := dial(t, addr)
	before := bodyFiles(t)
	c.warm(old)
	filled := opened(t, before)[0]
	st, err := os.Stat(filled)
	if err != nil {
		t.Fatal(err)
	}
	held := st.Sys().(*syscall.Stat_t).Ino
	c = dialRcvbuf(t, addr, 64<<10)
	c.send("GET", "/v.bin")
	resp, err := httpx.ReadResponseHeader(c.br)
	if err != nil {
		t.Fatal(err)
	}
	// With the client not reading, the send is parked on the full socket;
	// replace the content under it.
	if err := store.Replace("/v.bin", fresh); err != nil {
		t.Fatal(err)
	}
	srv.InvalidateCache("/v.bin")
	if _, ok := bodyFiles(t)[held]; !ok {
		t.Fatal("the invalidation closed the memfd's descriptor under a send still running")
	}
	got := make([]byte, resp.ContentLength)
	if _, err := io.ReadFull(c.br, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("the in-flight response does not carry the old bytes whole")
	}
	testutil.Eventually(t, 5*time.Second, func() bool { _, ok := bodyFiles(t)[held]; return !ok },
		"the invalidated memfd stayed open after its send")
	for i, want := range []string{"MISS", "HIT", "HIT"} {
		r := c.do("GET", "/v.bin")
		if r.Header.Get("X-Cache") != want || !bytes.Equal(r.Body, fresh) {
			t.Fatalf("request %d after the invalidation: X-Cache %q, fresh bytes %v", i, r.Header.Get("X-Cache"), bytes.Equal(r.Body, fresh))
		}
	}
}

// Close empties the page cache through its evict func, so no body memfd
// outlives the server waiting for a collection to find its page.
func TestCloseClosesBodyFiles(t *testing.T) {
	body := pattern(256<<10, 9)
	srv, _, addr := largeServer(t, body, ServerOptions{})
	dial(t, addr).warm(body)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if left := bodyFiles(t); len(left) != 0 {
		t.Fatalf("%d body memfds open after Close: %v", len(left), left)
	}
}

// HEAD and 304 answers carry no body, so they never take the kernel path:
// they fill no memfd, and the first GET hit after them does.
func TestSendfileSkipsHeadAnd304(t *testing.T) {
	body := pattern(256<<10, 5)
	_, _, addr := largeServer(t, body, ServerOptions{})
	c := dial(t, addr)
	etag := httpx.StrongETag(body)
	if r := c.do("GET", "/v.bin"); r.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first GET: X-Cache %q", r.Header.Get("X-Cache"))
	}
	before := bodyFiles(t)
	for i := 0; i < 2; i++ {
		if r := c.do("HEAD", "/v.bin"); r.StatusCode != 200 || r.ContentLength != int64(len(body)) {
			t.Fatalf("HEAD: %d, Content-Length %d", r.StatusCode, r.ContentLength)
		}
		if r := c.do("GET", "/v.bin", "If-None-Match: "+etag+"\r\n"); r.StatusCode != 304 || len(r.Body) != 0 {
			t.Fatalf("conditional GET: %d, %d body bytes", r.StatusCode, len(r.Body))
		}
	}
	if got := len(opened(t, before)); got != 0 {
		t.Fatalf("HEAD and 304 opened %d body memfds, want 0", got)
	}
	if r := c.do("GET", "/v.bin"); !bytes.Equal(r.Body, body) || len(opened(t, before)) != 1 {
		t.Fatalf("the GET hit after them: body equal %v, %d memfds opened", bytes.Equal(r.Body, body), len(opened(t, before)))
	}
}

// A connection under a fault wrapper keeps writev, so a stream fault on
// the back end's connections still truncates a large hit.
func TestSendfileFaultWrappedTruncates(t *testing.T) {
	body := pattern(256<<10, 6)
	in := faults.New(1)
	_, _, addr := largeServer(t, body, ServerOptions{Faults: in})
	before := bodyFiles(t)
	for _, want := range []string{"MISS", "HIT"} {
		if r := dial(t, addr).do("GET", "/v.bin"); r.Header.Get("X-Cache") != want || !bytes.Equal(r.Body, body) {
			t.Fatalf("%s: X-Cache %q", want, r.Header.Get("X-Cache"))
		}
	}
	// The drop lands after the write that crosses it, so writes are cut
	// to chunks for it to land mid-body.
	in.Set("backend.conn/t1", faults.Rule{MaxWriteChunk: 16 << 10, DropAfterBytes: 64 << 10})
	c := dial(t, addr)
	c.send("GET", "/v.bin")
	_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(c.br)
	if err != nil && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatal(err)
	}
	if len(got) > 80<<10 {
		t.Fatalf("a %d-byte hit arrived as %d bytes through a 64 KiB DropAfterBytes rule", len(body), len(got))
	}
	if in.Fired("backend.conn/t1") == 0 {
		t.Fatal("the DropAfterBytes rule never fired")
	}
	if got := len(opened(t, before)); got != 0 {
		t.Fatalf("a fault-wrapped server opened %d body memfds, want 0", got)
	}
}

// The kernel refuses every change to a filled memfd: the socket shares its
// pages, so a write would change bytes already in flight.
func TestSendfileMemfdSealed(t *testing.T) {
	body := pattern(256<<10, 7)
	_, _, addr := largeServer(t, body, ServerOptions{})
	before := bodyFiles(t)
	dial(t, addr).warm(body)
	f, err := os.OpenFile(opened(t, before)[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, syscall.EPERM) {
		t.Fatalf("write to the sealed memfd: %v, want EPERM", err)
	}
	if err := f.Truncate(1); !errors.Is(err, syscall.EPERM) {
		t.Fatalf("truncate of the sealed memfd: %v, want EPERM", err)
	}
	if err := f.Truncate(int64(len(body)) + 1); !errors.Is(err, syscall.EPERM) {
		t.Fatalf("growing the sealed memfd: %v, want EPERM", err)
	}
	if st, err := f.Stat(); err != nil || st.Size() != int64(len(body)) {
		t.Fatalf("memfd size %v, %v; want %d", st, err, len(body))
	}
}

// Hits, fills and invalidations from several connections at once: every
// response carries one version whole, whichever page and memfd it met.
func TestSendfileConcurrentInvalidate(t *testing.T) {
	versions := [][]byte{pattern(256<<10, 8), pattern(256<<10, 9)}
	srv, store, addr := largeServer(t, versions[0], ServerOptions{})
	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := store.Replace("/v.bin", versions[i%2]); err != nil {
				t.Error(err)
				return
			}
			srv.InvalidateCache("/v.bin")
			time.Sleep(time.Millisecond)
		}
	}()
	errc := make(chan error, 4)
	for g := 0; g < cap(errc); g++ {
		go func() {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errc <- err
				return
			}
			defer func() { _ = conn.Close() }()
			br := bufio.NewReader(conn)
			for i := 0; i < 50; i++ {
				if _, err := io.WriteString(conn, "GET /v.bin HTTP/1.1\r\nHost: t\r\n\r\n"); err != nil {
					errc <- err
					return
				}
				resp, err := httpx.ReadResponse(br)
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(resp.Body, versions[0]) && !bytes.Equal(resp.Body, versions[1]) {
					errc <- errors.New("a response mixes versions or is cut short")
					return
				}
			}
			errc <- nil
		}()
	}
	for g := 0; g < cap(errc); g++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	<-flipped
}
