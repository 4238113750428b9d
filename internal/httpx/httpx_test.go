package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func parse(t *testing.T, raw string) *Request {
	t.Helper()
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatalf("ReadRequest(%q): %v", raw, err)
	}
	return req
}

func TestReadRequestBasic(t *testing.T) {
	req := parse(t, "GET /docs/a.html?x=1 HTTP/1.1\r\nHost: example\r\n\r\n")
	if req.Method != "GET" || req.Target != "/docs/a.html?x=1" {
		t.Fatalf("parsed %+v", req)
	}
	if req.Path != "/docs/a.html" || req.Query != "x=1" {
		t.Fatalf("path/query split wrong: %q %q", req.Path, req.Query)
	}
	if req.Proto != Proto11 {
		t.Fatalf("proto = %q", req.Proto)
	}
	if req.Header.Get("host") != "example" {
		t.Fatal("case-insensitive header lookup failed")
	}
}

func TestReadRequestLFOnly(t *testing.T) {
	req := parse(t, "GET / HTTP/1.0\nHost: h\n\n")
	if req.Proto != Proto10 || req.Header.Get("Host") != "h" {
		t.Fatalf("parsed %+v", req)
	}
}

func TestReadRequestBody(t *testing.T) {
	req := parse(t, "POST /cgi-bin/f.cgi HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
	if string(req.Body) != "hello" {
		t.Fatalf("body = %q", req.Body)
	}
}

func TestReadRequestEOF(t *testing.T) {
	_, err := ReadRequest(bufio.NewReader(strings.NewReader("")))
	if err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestReadRequestMalformed(t *testing.T) {
	cases := []string{
		"GARBAGE\r\n\r\n",
		"GET\r\n\r\n",
		"GET /\r\n\r\n",
		"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
		"GET / HTTP/1.1\r\n: novalue\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: -3\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
	}
	for _, raw := range cases {
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Errorf("ReadRequest(%q) succeeded, want error", raw)
		}
	}
}

func TestReadRequestUnsupportedProto(t *testing.T) {
	_, err := ReadRequest(bufio.NewReader(strings.NewReader("GET / HTTP/2.0\r\n\r\n")))
	if !errors.Is(err, ErrUnsupportedProto) {
		t.Fatalf("err = %v, want ErrUnsupportedProto", err)
	}
}

func TestReadRequestTooManyHeaders(t *testing.T) {
	var b strings.Builder
	b.WriteString("GET / HTTP/1.1\r\n")
	for i := 0; i < maxHeaderLines+1; i++ {
		b.WriteString("X-H: v\r\n")
	}
	b.WriteString("\r\n")
	_, err := ReadRequest(bufio.NewReader(strings.NewReader(b.String())))
	if !errors.Is(err, ErrHeaderTooLarge) {
		t.Fatalf("err = %v, want ErrHeaderTooLarge", err)
	}
}

func TestKeepAliveRules(t *testing.T) {
	cases := []struct {
		proto, conn string
		want        bool
	}{
		{Proto11, "", true},
		{Proto11, "close", false},
		{Proto11, "Close", false},
		{Proto10, "", false},
		{Proto10, "keep-alive", true},
		{Proto10, "Keep-Alive", true},
	}
	for _, tc := range cases {
		req := &Request{Proto: tc.proto, Header: Header{}}
		if tc.conn != "" {
			req.Header.Set("Connection", tc.conn)
		}
		if got := req.KeepAlive(); got != tc.want {
			t.Errorf("KeepAlive(%s, conn=%q) = %v, want %v", tc.proto, tc.conn, got, tc.want)
		}
		resp := &Response{Proto: tc.proto, Header: req.Header.Clone()}
		if got := resp.KeepAlive(); got != tc.want {
			t.Errorf("Response.KeepAlive(%s, conn=%q) = %v, want %v", tc.proto, tc.conn, got, tc.want)
		}
	}
}

func TestIsDynamic(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"/cgi-bin/app.cgi", true},
		{"/scripts/x.cgi", true},
		{"/asp/page.asp", true},
		{"/docs/a.html", false},
		{"/images/i.gif", false},
	}
	for _, tc := range cases {
		req := &Request{Path: tc.path}
		if got := req.IsDynamic(); got != tc.want {
			t.Errorf("IsDynamic(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

func TestCanonicalKey(t *testing.T) {
	cases := map[string]string{
		"content-length": "Content-Length",
		"HOST":           "Host",
		"x-served-by":    "X-Served-By",
		"ALREADY-OK":     "Already-Ok",
	}
	for in, want := range cases {
		if got := CanonicalKey(in); got != want {
			t.Errorf("CanonicalKey(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHeaderSetGetDel(t *testing.T) {
	h := Header{}
	h.Set("x-one", "1")
	if h.Get("X-One") != "1" {
		t.Fatal("Get after Set failed")
	}
	h.Del("X-ONE")
	if h.Get("x-one") != "" {
		t.Fatal("Del failed")
	}
}

func TestHeaderClone(t *testing.T) {
	h := NewHeader("A", "1")
	c := h.Clone()
	c.Set("A", "2")
	if h.Get("A") != "1" {
		t.Fatal("Clone aliases the original")
	}
}

func TestRequestRoundTrip(t *testing.T) {
	orig := &Request{
		Method: "POST",
		Target: "/asp/p.asp?q=2",
		Path:   "/asp/p.asp",
		Query:  "q=2",
		Proto:  Proto11,
		Header: NewHeader("Host", "h", "X-Test", "yes"),
		Body:   []byte("payload"),
	}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != orig.Method || got.Target != orig.Target || got.Proto != orig.Proto {
		t.Fatalf("round trip lost request line: %+v", got)
	}
	if got.Header.Get("X-Test") != "yes" || string(got.Body) != "payload" {
		t.Fatalf("round trip lost header/body: %+v", got)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	orig := NewResponse(Proto11, 200, []byte("<html>hi</html>"))
	orig.Header.Set("X-Served-By", "n1")
	var buf bytes.Buffer
	if err := WriteResponse(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != 200 || got.Status != "OK" {
		t.Fatalf("status = %d %q", got.StatusCode, got.Status)
	}
	if string(got.Body) != "<html>hi</html>" {
		t.Fatalf("body = %q", got.Body)
	}
	if got.Header.Get("X-Served-By") != "n1" {
		t.Fatal("header lost")
	}
}

func TestResponseEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResponse(&buf, NewResponse(Proto10, 404, nil)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != 404 || len(got.Body) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestWriteResponseForcesContentLength(t *testing.T) {
	resp := &Response{Proto: Proto11, StatusCode: 200, Header: NewHeader("Content-Length", "999"), Body: []byte("ab")}
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Content-Length: 2\r\n") {
		t.Fatalf("wire = %q", buf.String())
	}
}

func TestWriteResponseNilHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResponse(&buf, &Response{Proto: Proto11, StatusCode: 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResponse(bufio.NewReader(&buf)); err != nil {
		t.Fatal(err)
	}
}

func TestStatusText(t *testing.T) {
	cases := map[int]string{200: "OK", 404: "Not Found", 502: "Bad Gateway", 418: "Status 418"}
	for code, want := range cases {
		if got := statusText(code); got != want {
			t.Errorf("statusText(%d) = %q, want %q", code, got, want)
		}
	}
}

func TestReadResponseMalformed(t *testing.T) {
	cases := []string{
		"HTTP/1.1\r\n\r\n",
		"HTTP/3.0 200 OK\r\n\r\n",
		"HTTP/1.1 abc OK\r\n\r\n",
	}
	for _, raw := range cases {
		if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Errorf("ReadResponse(%q) succeeded", raw)
		}
	}
}

func TestReadResponseEOF(t *testing.T) {
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(""))); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestPipelinedRequests(t *testing.T) {
	raw := "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"
	br := bufio.NewReader(strings.NewReader(raw))
	r1, err := ReadRequest(br)
	if err != nil || r1.Path != "/a" {
		t.Fatalf("first: %v %+v", err, r1)
	}
	r2, err := ReadRequest(br)
	if err != nil || r2.Path != "/b" {
		t.Fatalf("second: %v %+v", err, r2)
	}
}

// TestPropertyCanonicalKeyIdempotent: canonicalization is idempotent.
func TestPropertyCanonicalKeyIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := CanonicalKey(s)
		return CanonicalKey(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBodyRoundTrip: arbitrary binary bodies survive the wire.
func TestPropertyBodyRoundTrip(t *testing.T) {
	f := func(body []byte) bool {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, NewResponse(Proto11, 200, body)); err != nil {
			return false
		}
		got, err := ReadResponse(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBodyBoundsCheckedBeforeAllocation: a declared length over the bound
// is refused from the header alone — no body storage is sized from it and
// none of the body is read. Without the check the 2⁶³-1 case panics in
// make and the others allocate what the peer asked for.
func TestBodyBoundsCheckedBeforeAllocation(t *testing.T) {
	for _, length := range []string{"9223372036854775807", "4000000000", "1048577"} {
		raw := "POST /cgi-bin/f.cgi HTTP/1.1\r\nContent-Length: " + length + "\r\n\r\nbody"
		src := strings.NewReader(raw)
		br := bufio.NewReader(src)
		req := &Request{Header: make(Header, 0, 8)}
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			src.Reset(raw)
			br.Reset(src)
			err = ReadRequestInto(br, req)
		})
		if !errors.Is(err, ErrBodyTooLarge) {
			t.Fatalf("Content-Length %s: err = %v, want ErrBodyTooLarge", length, err)
		}
		if cap(req.Body) != 0 {
			t.Fatalf("Content-Length %s: refusal sized a %d-byte body", length, cap(req.Body))
		}
		// the request target, the header value and the error itself
		if allocs > 8 {
			t.Fatalf("Content-Length %s: refusal made %.0f allocations", length, allocs)
		}
		if req.Method != "POST" || req.Path != "/cgi-bin/f.cgi" {
			t.Fatalf("refused request lost its request line: %+v", req)
		}
		if rest, _ := io.ReadAll(br); string(rest) != "body" {
			t.Fatalf("refusal consumed body bytes: %q left", rest)
		}
	}
	// at the bound itself the length passes and the missing bytes fail
	atBound := "POST / HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n"
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(atBound))); err == nil || errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("length at the bound: err = %v, want a short-body error", err)
	}

	// ReadResponse hands back no storage to inspect, so count the bytes
	for _, length := range []string{"9223372036854775807", "268435457"} {
		raw := "HTTP/1.1 200 OK\r\nContent-Length: " + length + "\r\n\r\n"
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBodyTooLarge) {
			t.Fatalf("response Content-Length %s: err = %v, want ErrBodyTooLarge", length, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Fatalf("response Content-Length %s: refusal allocated %d bytes", length, grew)
		}
	}
}
