//go:build linux

package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"webcluster/internal/testutil"
)

// connKinds is the conformance table's two rows: the raw connection and
// the *net.TCPConn it wraps. Every case below must read the same on both.
var connKinds = []struct {
	name string
	wrap func(*net.TCPConn) net.Conn
}{
	{"raw", func(c *net.TCPConn) net.Conn { return WrapTCP(c) }},
	{"net", func(c *net.TCPConn) net.Conn { return c }},
}

// kindPair returns the two ends of a loopback TCP connection, each made by
// wrap, closed at cleanup.
func kindPair(t *testing.T, wrap func(*net.TCPConn) net.Conn) (net.Conn, net.Conn) {
	t.Helper()
	a, b := plainPair(t)
	ca, cb := wrap(a), wrap(b)
	t.Cleanup(func() { _ = ca.Close(); _ = cb.Close() })
	return ca, cb
}

// isReadOpError reports whether err is a *net.OpError for a read, as a
// *net.TCPConn reports every read failure but EOF.
func isReadOpError(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "read"
}

// TestTCPConnConformance runs one table on the raw connection and on a
// *net.TCPConn: what a caller can observe — counts, bytes, and the
// errors it classifies with errors.Is — must not tell them apart.
func TestTCPConnConformance(t *testing.T) {
	for _, kind := range connKinds {
		t.Run(kind.name, func(t *testing.T) {
			t.Run("EOF", func(t *testing.T) {
				a, b := kindPair(t, kind.wrap)
				if _, err := b.Write([]byte("last")); err != nil {
					t.Fatal(err)
				}
				_ = b.Close()
				got, err := io.ReadAll(a)
				if err != nil || string(got) != "last" {
					t.Fatalf("ReadAll = %q, %v", got, err)
				}
				if n, err := a.Read(make([]byte, 8)); n != 0 || err != io.EOF {
					t.Fatalf("Read after EOF = %d, %v; want 0, io.EOF", n, err)
				}
			})
			t.Run("read deadline", func(t *testing.T) {
				a, _ := kindPair(t, kind.wrap)
				_ = a.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
				_, err := a.Read(make([]byte, 8))
				var ne net.Error
				if !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() || !isReadOpError(err) {
					t.Fatalf("err = %v; want a read timeout wrapping os.ErrDeadlineExceeded", err)
				}
			})
			t.Run("close unblocks read", func(t *testing.T) {
				a, _ := kindPair(t, kind.wrap)
				done := make(chan error, 1)
				go func() {
					_, err := a.Read(make([]byte, 8))
					done <- err
				}()
				time.Sleep(10 * time.Millisecond) // let the read park
				_ = a.Close()
				select {
				case err := <-done:
					if !errors.Is(err, net.ErrClosed) || !isReadOpError(err) {
						t.Fatalf("err = %v; want net.ErrClosed", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Close did not wake the pending Read")
				}
			})
			t.Run("peer reset", func(t *testing.T) {
				a, b := kindPair(t, kind.wrap)
				if _, err := a.Write([]byte("unread")); err != nil {
					t.Fatal(err)
				}
				time.Sleep(10 * time.Millisecond) // the bytes reach b's receive queue
				_ = lingerZero(b)
				_ = b.Close() // unread data: the close sends RST
				_, err := io.ReadAll(a)
				if !errors.Is(err, syscall.ECONNRESET) || !isReadOpError(err) {
					t.Fatalf("err = %v; want ECONNRESET", err)
				}
			})
			t.Run("write to a reset peer", func(t *testing.T) {
				a, b := kindPair(t, kind.wrap)
				_ = lingerZero(b)
				_ = b.Close()
				time.Sleep(10 * time.Millisecond) // the RST arrives
				var err error
				for i := 0; i < 100 && err == nil; i++ {
					_, err = a.Write([]byte("after the reset"))
				}
				var oe *net.OpError
				if !errors.Is(err, syscall.EPIPE) && !errors.Is(err, syscall.ECONNRESET) || !errors.As(err, &oe) || oe.Op != "write" {
					t.Fatalf("err = %v; want a write error wrapping EPIPE or ECONNRESET", err)
				}
			})
			t.Run("writev past SO_SNDBUF to a slow reader", func(t *testing.T) {
				a, b := kindPair(t, kind.wrap)
				_ = a.(interface{ SetWriteBuffer(int) error }).SetWriteBuffer(16 << 10)
				_ = b.(interface{ SetReadBuffer(int) error }).SetReadBuffer(16 << 10)
				head := bytes.Repeat([]byte("h"), 3000)
				body := make([]byte, 1<<20)
				for i := range body {
					body[i] = byte(i * 7)
				}
				got := make(chan []byte, 1)
				go func() {
					var buf bytes.Buffer
					chunk := make([]byte, 4096)
					for buf.Len() < len(head)+len(body) {
						n, err := b.Read(chunk)
						buf.Write(chunk[:n])
						if err != nil {
							break
						}
						if buf.Len()%(64<<10) < 4096 {
							time.Sleep(time.Millisecond)
						}
					}
					got <- buf.Bytes()
				}()
				n, err := NewPools().writeVectored(a, head, body)
				if err != nil || n != int64(len(head)+len(body)) {
					t.Fatalf("writeVectored = %d, %v", n, err)
				}
				if want := append(head, body...); !bytes.Equal(<-got, want) {
					t.Fatal("the reader got different bytes, or out of order")
				}
			})
			t.Run("splice source dies mid-body", func(t *testing.T) {
				backend, upstream := kindPair(t, kind.wrap)
				relay, client := kindPair(t, kind.wrap)
				go func() { _, _ = io.Copy(io.Discard, client) }()
				body := bytes.Repeat([]byte("t"), 1<<20)
				parsed := make(chan struct{})
				go func() {
					_, _ = backend.Write(responseWire(body)[:len(body)/2])
					<-parsed
					_ = lingerZero(backend)
					_ = backend.Close()
				}()
				br := bufio.NewReaderSize(upstream, 16<<10)
				var resp Response
				err := ReadResponseHeaderInto(br, &resp)
				close(parsed)
				if err != nil {
					t.Fatal(err)
				}
				n, err := NewPools().Relay(relay, &resp, br, RelayOptions{Proto: Proto11, Src: upstream})
				if !errors.Is(err, ErrBodyTruncated) || n >= int64(len(body)) {
					t.Fatalf("relayed %d, %v; want a truncation", n, err)
				}
			})
			t.Run("splice client leaves", func(t *testing.T) {
				backend, upstream := kindPair(t, kind.wrap)
				relay, client := kindPair(t, kind.wrap)
				_ = relay.(interface{ SetWriteBuffer(int) error }).SetWriteBuffer(16 << 10)
				_ = client.(interface{ SetReadBuffer(int) error }).SetReadBuffer(16 << 10)
				body := bytes.Repeat([]byte("c"), 4<<20)
				go func() { _, _ = backend.Write(responseWire(body)) }()
				go func() {
					_, _ = io.ReadFull(client, make([]byte, 4096))
					_ = lingerZero(client)
					_ = client.Close()
				}()
				br := bufio.NewReaderSize(upstream, 16<<10)
				var resp Response
				if err := ReadResponseHeaderInto(br, &resp); err != nil {
					t.Fatal(err)
				}
				n, err := NewPools().Relay(relay, &resp, br, RelayOptions{Proto: Proto11, Src: upstream})
				if err == nil || errors.Is(err, ErrBodyTruncated) {
					t.Fatalf("relayed %d, %v; want a client-side error that is not a truncation", n, err)
				}
			})
			t.Run("concurrent read and write", func(t *testing.T) {
				a, b := kindPair(t, kind.wrap)
				go func() { _, _ = io.Copy(b, b) }() // echo
				const total = 256 << 10
				var wg sync.WaitGroup
				wg.Add(2)
				var werr error
				go func() {
					defer wg.Done()
					chunk := bytes.Repeat([]byte("w"), 1000)
					for sent := 0; sent < total; sent += len(chunk) {
						if _, werr = a.Write(chunk[:min(len(chunk), total-sent)]); werr != nil {
							return
						}
					}
				}()
				var got int
				var rerr error
				go func() {
					defer wg.Done()
					buf := make([]byte, 3000)
					for got < total {
						var n int
						n, rerr = a.Read(buf)
						got += n
						if rerr != nil {
							return
						}
					}
				}()
				wg.Wait()
				if werr != nil || rerr != nil || got != total {
					t.Fatalf("wrote: %v; read %d of %d: %v", werr, got, total, rerr)
				}
			})
		})
	}
}

// lingerZero makes c's close send RST.
func lingerZero(c net.Conn) error {
	return c.(interface{ SetLinger(int) error }).SetLinger(0)
}

// A raw exchange allocates nothing: the callbacks are bound at wrap time.
func TestTCPConnAllocFree(t *testing.T) {
	a, b := tcpPair(t)
	p := NewPools()
	head, body, buf := []byte("head"), []byte("body"), make([]byte, 16)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.writeVectored(a, head, body); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(b, buf[:8]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a raw writev and read allocate %.1f times, want 0", allocs)
	}
}

// The preemption tick runs exactly while a raw connection is open: it
// starts with the first, survives the close of all but the last, and
// stops with the last, leaving no goroutine behind.
func TestPreemptTickFollowsOpenConns(t *testing.T) {
	testutil.NoLeaks(t)
	check := func() (int, bool) {
		tick.Lock()
		defer tick.Unlock()
		// Stop reports whether the timer was pending; a pending one is
		// re-armed at once.
		was := tick.t != nil && tick.t.Stop()
		if was {
			tick.t.Reset(preemptTick)
		}
		return tick.open, was
	}
	// A timer caught between firing and its re-arm reads as stopped, so
	// a tick that should be on gets a few looks.
	pending := func() (open int, on bool) {
		for i := 0; i < 5 && !on; i++ {
			if i > 0 {
				time.Sleep(time.Millisecond)
			}
			open, on = check()
		}
		return open, on
	}
	if open, on := pending(); open != 0 || on {
		t.Fatalf("before: %d open, tick pending %v; want 0, false", open, on)
	}
	a, b := plainPair(t)
	ra, rb := WrapTCP(a), WrapTCP(b)
	if open, on := pending(); open != 2 || !on {
		t.Fatalf("two open: %d, tick pending %v", open, on)
	}
	time.Sleep(3 * preemptTick) // the tick re-arms itself
	_ = ra.Close()
	_ = ra.Close() // a second Close lets go of nothing more
	if open, on := pending(); open != 1 || !on {
		t.Fatalf("one open: %d, tick pending %v", open, on)
	}
	_ = rb.Close()
	if open, on := pending(); open != 0 || on {
		t.Fatalf("all closed: %d open, tick pending %v; want 0, false", open, on)
	}
}

// preemptServerEnv turns the test binary into TestRawPreemption's server.
const preemptServerEnv = "HTTPX_PREEMPT_SERVER"

func TestMain(m *testing.M) {
	if os.Getenv(preemptServerEnv) != "" {
		servePreemption()
		return
	}
	os.Exit(m.Run())
}

// servePreemption runs on one P: it prints its address, then answers two
// raw connections. A request byte 'A' is answered with 's', 200 ms of
// spinning, then 'd'; 'B' is answered at once with 'b'.
func servePreemption() {
	runtime.GOMAXPROCS(1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("listen:", err)
		return
	}
	fmt.Println(l.Addr())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		c, err := l.Accept()
		if err != nil {
			return
		}
		conn := WrapTCP(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { _ = conn.Close() }()
			var req [1]byte
			if _, err := conn.Read(req[:]); err != nil {
				return
			}
			if req[0] == 'B' {
				_, _ = conn.Write([]byte("b"))
				return
			}
			_, _ = conn.Write([]byte("s"))
			for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
			}
			_, _ = conn.Write([]byte("d"))
		}()
	}
	wg.Wait()
}

// A goroutine that a raw read wakes is still time-sliced: on a one-P
// server whose handler spins for 200 ms, a second raw exchange finishes
// within 50 ms. The server is a child process, so nothing of the test's
// own wakes its scheduler; without the preemption tick its sysmon sleeps
// through the spin and the exchange waits all 200 ms.
func TestRawPreemption(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), preemptServerEnv+"=1", "GOMAXPROCS=1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill(); _ = cmd.Wait() })
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimSpace(line)
	dial := func() net.Conn {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		_ = c.SetDeadline(time.Now().Add(10 * time.Second))
		return c
	}
	spin, quick := dial(), dial()
	exchange := func(c net.Conn, req byte, want string) {
		t.Helper()
		if _, err := c.Write([]byte{req}); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := io.ReadFull(c, got); err != nil || string(got) != want {
			t.Fatalf("got %q, %v; want %q", got, err, want)
		}
	}
	time.Sleep(50 * time.Millisecond) // the server goes idle
	exchange(spin, 'A', "s")
	start := time.Now()
	exchange(quick, 'B', "b")
	stall := time.Since(start)
	t.Logf("the second exchange took %v", stall)
	got := make([]byte, 1)
	if _, err := io.ReadFull(spin, got); err != nil || got[0] != 'd' {
		t.Fatalf("the spinning handler answered %q, %v", got, err)
	}
	if stall > 50*time.Millisecond {
		t.Fatalf("a second exchange waited %v behind a spinning handler; want ≤ 50ms", stall)
	}
}
