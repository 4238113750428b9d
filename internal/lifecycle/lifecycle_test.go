package lifecycle

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcluster/internal/testutil"
)

// closeWithin fails the test unless g.Close returns within d.
func closeWithin(t *testing.T, g *Group, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		_ = g.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("Close did not return within %v", d)
	}
}

// readUntilClosed is a serve function that idles in a deadline-free read.
func readUntilClosed(c net.Conn) { _, _ = io.Copy(io.Discard, c) }

// flakyListener fails its first Accept with a non-closed error, as a
// process out of file descriptors does, then behaves.
type flakyListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failed.CompareAndSwap(false, true) {
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

func TestAcceptSurvivesTransientError(t *testing.T) {
	testutil.NoLeaks(t)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var g Group
	served := make(chan struct{})
	if err := g.accept(&flakyListener{Listener: inner}, func(net.Conn) { close(served) }); err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, &g, time.Second)
	c, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("connection after a transient Accept error was never served")
	}
}

// stallConn stands in for a fault wrapper holding its reader itself: Read
// blocks until the wrapper's own Close, whatever happens to the socket
// underneath.
type stallConn struct {
	net.Conn
	once    sync.Once
	release chan struct{}
}

func (c *stallConn) Read([]byte) (int, error) {
	<-c.release
	return 0, net.ErrClosed
}

func (c *stallConn) Close() error {
	c.once.Do(func() { close(c.release) })
	return c.Conn.Close()
}

func TestCloseWakesAReaderTheWrapperHolds(t *testing.T) {
	testutil.NoLeaks(t)
	reading := make(chan struct{})
	g := Group{Wrap: func(c net.Conn) net.Conn { return &stallConn{Conn: c, release: make(chan struct{})} }}
	addr, err := g.Listen("127.0.0.1:0", func(c net.Conn) {
		if _, ok := c.(*stallConn); !ok {
			t.Error("serve was handed the raw connection, not the wrapped one")
		}
		close(reading)
		readUntilClosed(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	<-reading
	closeWithin(t, &g, time.Second)
}

func TestTrack(t *testing.T) {
	testutil.NoLeaks(t)
	var g Group
	a, b := net.Pipe()
	defer func() { _ = b.Close() }()
	release, ok := g.Track(a)
	if !ok {
		t.Fatal("Track refused on an open group")
	}
	release()
	if _, err := a.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("release left the connection open: write error %v", err)
	}

	swept, peer := net.Pipe()
	defer func() { _ = peer.Close() }()
	if _, ok := g.Track(swept); !ok {
		t.Fatal("Track refused on an open group")
	}
	closeWithin(t, &g, time.Second)
	if _, err := swept.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("Close left a tracked connection open: write error %v", err)
	}

	late, peer2 := net.Pipe()
	defer func() { _ = peer2.Close() }()
	if _, ok := g.Track(late); ok {
		t.Fatal("Track accepted a connection after Close")
	}
	if _, err := late.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("a refused connection was left open: write error %v", err)
	}
}

func TestEvery(t *testing.T) {
	testutil.NoLeaks(t)
	var g Group
	var ticks atomic.Int64
	g.Every(time.Millisecond, func() { ticks.Add(1) })
	testutil.Eventually(t, 5*time.Second, func() bool { return ticks.Load() >= 3 }, "ticker never ran")
	closeWithin(t, &g, time.Second)
	stopped := ticks.Load()
	g.Every(time.Millisecond, func() { ticks.Add(1) })
	time.Sleep(20 * time.Millisecond)
	if got := ticks.Load(); got != stopped {
		t.Fatalf("%d ticks after Close", got-stopped)
	}
	select {
	case <-g.Done():
	default:
		t.Fatal("Done still open after Close")
	}
}

func TestListenAfterClose(t *testing.T) {
	testutil.NoLeaks(t)
	var g Group
	closeWithin(t, &g, time.Second) // before Listen
	closeWithin(t, &g, time.Second) // twice
	if _, err := g.Listen("127.0.0.1:0", readUntilClosed); !errors.Is(err, ErrClosed) {
		t.Fatalf("Listen after Close: %v, want ErrClosed", err)
	}
}
