package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strconv"
	"testing"

	"webcluster/internal/faults"
)

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (*net.TCPConn, *net.TCPConn) {
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

func TestBareTCP(t *testing.T) {
	a, b := tcpPair(t)
	if _, _, ok := bareTCP(a, b); !ok {
		t.Fatal("two direct TCP conns should be spliceable")
	}
	in := faults.New(1)
	wrapped := in.Conn("test.conn", a)
	if _, _, ok := bareTCP(wrapped, b); ok {
		t.Fatal("a fault-wrapped destination must not pass — unwrapping would bypass injection")
	}
	if _, _, ok := bareTCP(b, wrapped); ok {
		t.Fatal("a fault-wrapped source must not pass — unwrapping would bypass injection")
	}
	p1, p2 := net.Pipe()
	defer func() { _ = p1.Close(); _ = p2.Close() }()
	if _, _, ok := bareTCP(p1, p2); ok {
		t.Fatal("net.Pipe ends are not TCP")
	}
}

// relayChain pushes payload through SpliceStreams across two TCP hops
// (client → relay → sink), with optional wrapping of the relay's source
// side, and returns what the sink received.
func relayChain(t *testing.T, payload []byte, wrap func(net.Conn) net.Conn) []byte {
	t.Helper()
	upClient, upServer := tcpPair(t)
	downClient, downServer := tcpPair(t)

	src := net.Conn(upServer)
	if wrap != nil {
		src = wrap(src)
	}
	relayDone := make(chan error, 1)
	go func() {
		_, err := SpliceStreams(downClient, src)
		_ = downClient.CloseWrite()
		relayDone <- err
	}()
	go func() {
		_, _ = upClient.Write(payload)
		_ = upClient.CloseWrite()
	}()
	got, err := io.ReadAll(downServer)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-relayDone; err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSpliceStreamsTCPPath(t *testing.T) {
	payload := bytes.Repeat([]byte("s"), 2*CopyBufSize+7)
	got := relayChain(t, payload, nil)
	if !bytes.Equal(got, payload) {
		t.Fatalf("TCP splice path moved %d bytes, want %d", len(got), len(payload))
	}
}

// TestSpliceStreamsFallback wraps the source in the fault injector (so
// it is no longer a *net.TCPConn) and checks the buffered fallback moves
// the same bytes — and that the wrapper's rules still apply, proving the
// fast path never unwrapped it.
func TestSpliceStreamsFallback(t *testing.T) {
	in := faults.New(7)
	in.Set("splice.src", faults.Rule{MaxWriteChunk: 11}) // exercises chunked I/O through the wrapper
	payload := bytes.Repeat([]byte("f"), CopyBufSize+4096)
	got := relayChain(t, payload, func(c net.Conn) net.Conn {
		return in.Conn("splice.src", c)
	})
	if !bytes.Equal(got, payload) {
		t.Fatalf("fallback path moved %d bytes, want %d", len(got), len(payload))
	}
}

// kernelRelay is one relay the way the distributor runs it: the back end
// writes wire on its end of a TCP pair, the relay parses the header
// through a 16 KiB reader over its end and relays to a client TCP pair
// with Conn set. It returns the bytes relayed, the bytes the back-end
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
	rest := io.LimitedReader{R: upstream}
	n, err := NewPools().Relay(client, &resp, br, RelayOptions{Proto: Proto11, Conn: &rest})
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
// mid-body is not, though Go's splice error names neither socket.
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
		rest := io.LimitedReader{R: upstream}
		n, err := NewPools().Relay(relay, &resp, br, RelayOptions{Proto: Proto11, Conn: &rest})
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
