package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestReadResponseHeaderLeavesBodyUnread(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nX-Served-By: n1\r\nContent-Length: 5\r\n\r\nhello"
	br := bufio.NewReader(strings.NewReader(raw))
	resp, err := ReadResponseHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || resp.ContentLength != 5 || resp.Body != nil {
		t.Fatalf("got %+v", resp)
	}
	rest, err := io.ReadAll(br)
	if err != nil || string(rest) != "hello" {
		t.Fatalf("body consumed: %q %v", rest, err)
	}
}

func TestCopyBodyExact(t *testing.T) {
	src := strings.NewReader("0123456789")
	var dst bytes.Buffer
	n, err := CopyBody(&dst, src, 10)
	if err != nil || n != 10 || dst.String() != "0123456789" {
		t.Fatalf("CopyBody = %d %v %q", n, err, dst.String())
	}
}

func TestCopyBodyLargerThanBuffer(t *testing.T) {
	body := bytes.Repeat([]byte("x"), CopyBufSize*2+17)
	var dst bytes.Buffer
	n, err := CopyBody(&dst, bytes.NewReader(body), int64(len(body)))
	if err != nil || n != int64(len(body)) || !bytes.Equal(dst.Bytes(), body) {
		t.Fatalf("CopyBody = %d %v (want %d)", n, err, len(body))
	}
}

func TestCopyBodyTruncatedSource(t *testing.T) {
	src := strings.NewReader("abc") // promises 10, delivers 3
	var dst bytes.Buffer
	n, err := CopyBody(&dst, src, 10)
	if !errors.Is(err, ErrBodyTruncated) {
		t.Fatalf("err = %v, want ErrBodyTruncated", err)
	}
	if n != 3 || dst.String() != "abc" {
		t.Fatalf("relayed %d %q before the truncation", n, dst.String())
	}
}

// errWriter fails after accepting limit bytes — a client that went away.
type errWriter struct {
	limit int
	wrote int
}

func (w *errWriter) Write(p []byte) (int, error) {
	if w.wrote+len(p) > w.limit {
		n := w.limit - w.wrote
		w.wrote = w.limit
		return n, errors.New("client gone")
	}
	w.wrote += len(p)
	return len(p), nil
}

func TestCopyBodyDestinationErrorIsNotTruncation(t *testing.T) {
	body := bytes.Repeat([]byte("y"), 4096)
	_, err := CopyBody(&errWriter{limit: 100}, bytes.NewReader(body), int64(len(body)))
	if err == nil {
		t.Fatal("want error from dead client")
	}
	if errors.Is(err, ErrBodyTruncated) {
		t.Fatalf("client-side failure misreported as source truncation: %v", err)
	}
}

func TestRelayResponseRewritesConnectionOnWire(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nX-Served-By: n1\r\nContent-Length: 5\r\n\r\nhello"
	br := bufio.NewReader(strings.NewReader(raw))
	resp, err := ReadResponseHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	var client bytes.Buffer
	n, err := RelayResponse(&client, resp, br, Proto10, true)
	if err != nil || n != 5 {
		t.Fatalf("RelayResponse = %d %v", n, err)
	}
	got, err := ReadResponse(bufio.NewReader(&client))
	if err != nil {
		t.Fatal(err)
	}
	if got.Proto != Proto10 || got.Header.Get("Connection") != "close" {
		t.Fatalf("relayed head not rewritten: %+v", got)
	}
	if string(got.Body) != "hello" || got.Header.Get("X-Served-By") != "n1" {
		t.Fatalf("relayed payload lost: %+v", got)
	}
	// The source response object must not have been mutated.
	if resp.Header.Get("Connection") != "" || resp.Proto != Proto11 {
		t.Fatalf("RelayResponse mutated resp: %+v", resp)
	}
}

func TestRelayResponseTruncatedBackend(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort"
	br := bufio.NewReader(strings.NewReader(raw))
	resp, err := ReadResponseHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	var client bytes.Buffer
	n, err := RelayResponse(&client, resp, br, Proto11, false)
	if !errors.Is(err, ErrBodyTruncated) {
		t.Fatalf("err = %v, want ErrBodyTruncated", err)
	}
	if n != 5 {
		t.Fatalf("relayed %d bytes before truncation, want 5", n)
	}
}

func TestReadRequestIntoReusesStorage(t *testing.T) {
	raw := "POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc" +
		"GET /b HTTP/1.1\r\nHost: h\r\n\r\n"
	br := bufio.NewReader(strings.NewReader(raw))
	req := AcquireRequest()
	defer ReleaseRequest(req)
	if err := ReadRequestInto(br, req); err != nil {
		t.Fatal(err)
	}
	if req.Method != "POST" || string(req.Body) != "abc" {
		t.Fatalf("first parse: %+v", req)
	}
	if err := ReadRequestInto(br, req); err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.Path != "/b" || len(req.Body) != 0 {
		t.Fatalf("second parse leaked state: %+v", req)
	}
	if req.Header.Get("Content-Length") != "" {
		t.Fatal("stale Content-Length survived reset")
	}
}

func TestWriteProxyRequestDropsConnection(t *testing.T) {
	req := &Request{
		Method: "GET",
		Target: "/x",
		Path:   "/x",
		Proto:  Proto10,
		Header: NewHeader("Connection", "keep-alive", "Host", "h"),
	}
	var buf bytes.Buffer
	if err := WriteProxyRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	wire := buf.String()
	if !strings.HasPrefix(wire, "GET /x HTTP/1.1\r\n") {
		t.Fatalf("wire = %q", wire)
	}
	if strings.Contains(wire, "Connection:") {
		t.Fatalf("hop-by-hop Connection forwarded: %q", wire)
	}
	if !strings.Contains(wire, "Host: h\r\n") {
		t.Fatalf("end-to-end header lost: %q", wire)
	}
	// req itself is untouched: same header fields as built.
	if req.Header.Get("Connection") != "keep-alive" || req.Proto != Proto10 {
		t.Fatalf("WriteProxyRequest mutated req: %+v", req)
	}
}

func TestHeaderPreservesInsertionOrder(t *testing.T) {
	resp := NewResponse(Proto11, 200, []byte("z"))
	resp.Header.Set("X-B", "2")
	resp.Header.Set("X-A", "1")
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	wire := buf.String()
	if strings.Index(wire, "X-B:") > strings.Index(wire, "X-A:") {
		t.Fatalf("insertion order not preserved: %q", wire)
	}
}

// countingReader counts the Read calls that reach the source — the
// read(2)s a socket would see — and the bytes they return.
type countingReader struct {
	r     io.Reader
	reads int
	bytes int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	n, err := c.r.Read(p)
	c.bytes += int64(n)
	return n, err
}

// A small response the back end sends whole — header plus 8 KiB body —
// crosses a back-end-sized (16 KiB) reader in one source read; the pooled
// 4 KiB reader needs two. The client gets the same bytes either way.
func TestSmallResponseOneRead(t *testing.T) {
	body := bytes.Repeat([]byte("s"), 8<<10)
	raw := "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 8192\r\n\r\n" + string(body)
	relay := func(size int) (reads int, wire []byte) {
		src := &countingReader{r: strings.NewReader(raw)}
		br := bufio.NewReaderSize(src, size)
		var resp Response
		if err := ReadResponseHeaderInto(br, &resp); err != nil {
			t.Fatal(err)
		}
		var client bytes.Buffer
		if n, err := RelayResponse(&client, &resp, br, Proto11, false); err != nil || n != int64(len(body)) {
			t.Fatalf("%d-byte reader: relayed %d, %v", size, n, err)
		}
		return src.reads, client.Bytes()
	}
	reads, wire := relay(16 << 10)
	if reads != 1 {
		t.Fatalf("16 KiB reader: %d source reads, want 1", reads)
	}
	pooledReads, pooledWire := relay(readerBufSize)
	if pooledReads != 2 {
		t.Fatalf("%d-byte reader: %d source reads, want 2", readerBufSize, pooledReads)
	}
	if !bytes.Equal(wire, pooledWire) || !bytes.HasSuffix(wire, body) {
		t.Fatalf("the two readers relayed different bytes:\n%q\n%q", wire, pooledWire)
	}
}
