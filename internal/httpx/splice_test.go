//go:build linux

package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"testing"
)

// tcpPair returns the two ends of a loopback TCP connection, raw.
func tcpPair(t testing.TB) (*TCPConn, *TCPConn) {
	t.Helper()
	a, b := plainPair(t)
	ra, rb := WrapTCP(a).(*TCPConn), WrapTCP(b).(*TCPConn)
	t.Cleanup(func() { _ = ra.Close(); _ = rb.Close() })
	return ra, rb
}

// plainPair returns the two ends of a loopback TCP connection as the net
// package makes them.
func plainPair(t testing.TB) (*net.TCPConn, *net.TCPConn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		_ = client.Close()
		t.Fatal(r.err)
	}
	t.Cleanup(func() { _ = client.Close(); _ = r.c.Close() })
	return client.(*net.TCPConn), r.c.(*net.TCPConn)
}

// wrappedConn stands for a fault-injection wrapper: it hides the
// connection's type and counts the bytes read through it.
type wrappedConn struct {
	net.Conn
	read atomic.Int64
}

func (w *wrappedConn) Read(p []byte) (int, error) {
	n, err := w.Conn.Read(p)
	w.read.Add(int64(n))
	return n, err
}

func TestBareTCP(t *testing.T) {
	a, b := tcpPair(t)
	if _, _, ok := bareTCP(a, b); !ok {
		t.Fatal("two raw TCP conns should be spliceable")
	}
	wrapped := &wrappedConn{Conn: a}
	if _, _, ok := bareTCP(wrapped, b); ok {
		t.Fatal("a wrapped destination must not pass — unwrapping would bypass injection")
	}
	if _, _, ok := bareTCP(b, wrapped); ok {
		t.Fatal("a wrapped source must not pass — unwrapping would bypass injection")
	}
	if WrapTCP(wrapped) != net.Conn(wrapped) {
		t.Fatal("WrapTCP must leave a wrapped connection as it is")
	}
	pa, pb := plainPair(t)
	if _, _, ok := bareTCP(pa, pb); ok {
		t.Fatal("only the raw type takes the kernel path")
	}
	p1, p2 := net.Pipe()
	defer func() { _ = p1.Close(); _ = p2.Close() }()
	if _, _, ok := bareTCP(p1, p2); ok {
		t.Fatal("net.Pipe ends are not TCP")
	}
}

// kernelRelay is one relay the way the distributor runs it: the back end
// writes wire on its end of a TCP pair, the relay parses the header
// through a 16 KiB reader over its end and relays to a client TCP pair
// with Src set. It returns the bytes relayed, the bytes the back-end
// reader took through user space, the reader for whatever follows, and
// the relay's error.
func kernelRelay(t *testing.T, wire []byte, client net.Conn) (int64, int64, *bufio.Reader, error) {
	t.Helper()
	backend, upstream := tcpPair(t)
	go func() { _, _ = backend.Write(wire) }()
	src := &countingReader{r: upstream}
	br := bufio.NewReaderSize(src, 16<<10)
	var resp Response
	if err := ReadResponseHeaderInto(br, &resp); err != nil {
		t.Fatal(err)
	}
	n, err := NewPools().Relay(client, &resp, br, RelayOptions{Proto: Proto11, Src: upstream})
	return n, src.bytes, br, err
}

func responseWire(body []byte) []byte {
	head := "HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n"
	return append([]byte(head), body...)
}

// The part of a body the back-end reader has not buffered moves in the
// kernel: the client gets every byte, only the reader's fill crossed user
// space, and the next response on the back-end connection is intact.
func TestRelayKernelPath(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
	wire := append(responseWire(body), responseWire([]byte("next"))...)
	relay, client := tcpPair(t)
	got := make(chan *Response, 1)
	go func() {
		resp, err := ReadResponse(bufio.NewReader(client))
		if err != nil {
			t.Error(err)
		}
		got <- resp
	}()
	n, userBytes, br, err := kernelRelay(t, wire, relay)
	if err != nil || n != int64(len(body)) {
		t.Fatalf("relayed %d, %v; want %d", n, err, len(body))
	}
	if resp := <-got; resp == nil || !bytes.Equal(resp.Body, body) {
		t.Fatal("the client's body differs from the back end's")
	}
	if userBytes > 64<<10 {
		t.Fatalf("%d body bytes crossed user space; the kernel path moves all but the reader's fill", userBytes)
	}
	next, err := ReadResponse(br)
	if err != nil || string(next.Body) != "next" {
		t.Fatalf("the next response on the back-end connection: %v, %v", next, err)
	}
}

// A back end that resets mid-body is a truncation; a client that leaves
// mid-body is not: the drain and the pump fail separately.
func TestRelayKernelFailureAttribution(t *testing.T) {
	body := bytes.Repeat([]byte("t"), 1<<20)
	t.Run("source resets", func(t *testing.T) {
		backend, upstream := tcpPair(t)
		relay, client := tcpPair(t)
		go func() { _, _ = io.Copy(io.Discard, client) }()
		parsed := make(chan struct{})
		go func() {
			_, _ = backend.Write(responseWire(body)[:len(body)/2])
			<-parsed
			_ = backend.SetLinger(0)
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
	t.Run("client leaves", func(t *testing.T) {
		relay, client := tcpPair(t)
		// Small socket buffers, so the client leaves before they can
		// absorb the body.
		_ = relay.SetWriteBuffer(16 << 10)
		_ = client.SetReadBuffer(16 << 10)
		go func() {
			buf := make([]byte, 4096)
			_, _ = io.ReadFull(client, buf)
			_ = client.SetLinger(0)
			_ = client.Close()
		}()
		n, _, _, err := kernelRelay(t, responseWire(body), relay)
		if err == nil || errors.Is(err, ErrBodyTruncated) {
			t.Fatalf("relayed %d, %v; want a client-side error that is not a truncation", n, err)
		}
	})
}
