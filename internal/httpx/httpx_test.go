package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
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

// A line ended by LF alone is malformed wherever it sits — the request or
// status line, a header line, or the empty line ending the section — so
// the edge never reads a message differently from a peer that insists on
// CRLF.
func TestReadRequestLFOnly(t *testing.T) {
	for _, raw := range bareLFRequests {
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(raw))); !errors.Is(err, ErrMalformedRequest) {
			t.Errorf("ReadRequest(%q): err = %v, want ErrMalformedRequest", raw, err)
		}
	}
	for _, raw := range bareLFResponses {
		if _, err := ReadResponseHeader(bufio.NewReader(strings.NewReader(raw))); !errors.Is(err, ErrMalformedRequest) {
			t.Errorf("ReadResponseHeader(%q): err = %v, want ErrMalformedRequest", raw, err)
		}
	}
}

// bareLFRequests and bareLFResponses end one line each with LF alone.
var (
	bareLFRequests = []string{
		"GET / HTTP/1.0\nHost: h\n\n",
		"GET / HTTP/1.1\r\nHost: h\n\r\n",
		"GET / HTTP/1.1\r\nHost: h\r\n\n",
	}
	bareLFResponses = []string{
		"HTTP/1.1 200 OK\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\nok",
	}
)

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

// noLF streams n bytes that never end a line.
type noLF struct{ n int }

func (r *noLF) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), r.n)
	for i := range p[:k] {
		p[i] = 'a'
	}
	r.n -= k
	return k, nil
}

// A request or header line with no LF is refused once the header section
// outgrows maxHeaderBytes: the parser reads a bounded prefix of an 8 MiB
// stream and allocates a bounded amount for it, on the pooled reader the
// servers use.
func TestHeaderSectionBoundedByBytes(t *testing.T) {
	const stream = 8 << 20
	for _, tc := range []struct {
		name string
		head string
	}{
		{"request line", "GET /"},
		{"header line", "GET / HTTP/1.1\r\nX-Long: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &noLF{n: stream}
			br := NewPools().AcquireReader(io.MultiReader(strings.NewReader(tc.head), src))
			var req Request
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := ReadRequestInto(br, &req)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrHeaderTooLarge) {
				t.Fatalf("err = %v, want ErrHeaderTooLarge", err)
			}
			if read := stream - src.n; read > 2*maxHeaderBytes {
				t.Fatalf("read %d bytes of a line with no LF, want at most %d", read, 2*maxHeaderBytes)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*maxHeaderBytes {
				t.Fatalf("allocated %d bytes refusing the stream, want at most %d", alloc, 8*maxHeaderBytes)
			}
		})
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

// requestStreams are the request inputs of this package's parser tests, as
// keep-alive streams, so every case is also parsed into a Request that
// held the previous one.
var requestStreams = []string{
	"GET /docs/a.html?x=1 HTTP/1.1\r\nHost: example\r\n\r\n",
	"GET / HTTP/1.0\r\nHost: h\r\n\r\n",
	"POST /cgi-bin/f.cgi HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
	"POST /asp/p.asp?q=2 HTTP/1.1\r\nHost: h\r\nX-Test: yes\r\nContent-Length: 7\r\n\r\npayload",
	"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
	"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc" +
		"GET /b HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET /docs/a.html HTTP/1.1\r\nHost: bench.example\r\nUser-Agent: webbench\r\n\r\n" +
		"GET /docs/a.html HTTP/1.1\r\nHost: bench.example\r\nUser-Agent: webbench\r\n\r\n" +
		"GET /docs//a.html HTTP/1.1\r\nhost: bench.example\r\nConnection: close\r\n\r\n",
	"GET /x HTTP/1.1\r\nX-Dist-Trace: feedc0dedeadbeef\r\nX-Dist-Deadline: 1700000000000000000\r\nX-Dist-Class: batch\r\n\r\n" +
		"HEAD /x HTTP/1.0\r\nConnection: keep-alive\r\nIf-None-Match: \"v1\"\r\n\r\n",
}

// placed resolves the targets a URL table would hold for the streams.
func placed(target []byte) (string, bool) {
	for _, p := range []string{"/docs/a.html", "/a", "/b", "/x", "/", "/asp/p.asp?q=2"} {
		if p == string(target) {
			return p, true
		}
	}
	return "", false
}

// Parsing with a target resolver gives the same requests, field for field,
// as parsing without one.
func TestReadRequestIntoResolverDifferential(t *testing.T) {
	resolving := NewPools()
	resolving.Targets = placed
	for _, raw := range requestStreams {
		plainBR := bufio.NewReader(strings.NewReader(raw))
		resBR := bufio.NewReader(strings.NewReader(raw))
		plain := &Request{Header: make(Header, 0, 8)}
		res := &Request{Header: make(Header, 0, 8)}
		for i := 0; ; i++ {
			perr := ReadRequestInto(plainBR, plain)
			rerr := resolving.ReadRequestInto(resBR, res)
			if (perr == nil) != (rerr == nil) {
				t.Fatalf("%q request %d: plain err %v, resolving err %v", raw, i, perr, rerr)
			}
			if perr != nil {
				break
			}
			if !reflect.DeepEqual(plain, res) {
				t.Fatalf("%q request %d:\nplain     %+v\nresolving %+v", raw, i, plain, res)
			}
		}
	}
}

// A keep-alive request repeating its predecessor reuses its strings; a
// value or key that changed is read fresh.
func TestReadRequestIntoReusesRepeatedFields(t *testing.T) {
	const first = "GET /docs/a.html HTTP/1.1\r\nHost: bench.example\r\nX-V: one\r\n\r\n"
	p := NewPools()
	p.Targets = placed
	req := p.AcquireRequest()
	defer p.ReleaseRequest(req)
	src := strings.NewReader(first)
	br := bufio.NewReader(src)
	if err := p.ReadRequestInto(br, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(first)
		br.Reset(src)
		if err := p.ReadRequestInto(br, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("repeated request for a placed path: %.1f allocations, want 0", allocs)
	}
	for _, next := range []string{
		"GET /docs/a.html HTTP/1.1\r\nHost: bench.example\r\nX-V: two\r\n\r\n",
		"GET /docs/a.html HTTP/1.1\r\nHost: bench.example\r\nX-W: one\r\n\r\n",
		"GET /docs/a.html HTTP/1.1\r\nX-V: one\r\nHost: bench.example\r\n\r\n",
	} {
		src.Reset(first + next)
		br.Reset(src)
		for i := 0; i < 2; i++ {
			if err := p.ReadRequestInto(br, req); err != nil {
				t.Fatal(err)
			}
		}
		want := parse(t, next)
		if !reflect.DeepEqual(req.Header, want.Header) {
			t.Fatalf("after %q:\nheader %+v\nwant   %+v", next, req.Header, want.Header)
		}
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

// responseStreams are keep-alive streams of back-end responses: the
// status lines, header shapes and in-band trace fields this system's
// servers emit, and the malformed ones the relay must refuse.
var responseStreams = []string{
	"HTTP/1.1 200 OK\r\nX-Served-By: n1\r\nContent-Length: 5\r\n\r\nhello",
	"HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 3\r\n\r\nabc" +
		"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 3\r\n\r\nabc" +
		"HTTP/1.1 200 OK\r\nContent-Type: image/gif\r\nContent-Length: 4\r\n\r\nGIF8",
	"HTTP/1.1 304 Not Modified\r\nEtag: \"v1\"\r\nDate: Tue, 14 Nov 2023 22:13:20 GMT\r\n\r\n" +
		"HTTP/1.1 200 OK\r\nEtag: \"v2\"\r\nContent-Length: 2\r\nConnection: close\r\n\r\nv2",
	"HTTP/1.1 200 OK\r\nX-Dist-Trace: feedc0dedeadbeef\r\nX-Dist-Span: 2a\r\nContent-Length: 1\r\n\r\nx" +
		"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok" + "HTTP/3.0 200 OK\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
}

// Parsing into a reused Response gives the same responses, field for
// field and error for error, as parsing each into a new one.
func TestReadResponseHeaderIntoDifferential(t *testing.T) {
	for _, raw := range responseStreams {
		freshBR := bufio.NewReader(strings.NewReader(raw))
		reusedBR := bufio.NewReader(strings.NewReader(raw))
		reused := &Response{Header: make(Header, 0, 8)}
		for i := 0; ; i++ {
			fresh, ferr := ReadResponseHeader(freshBR)
			rerr := ReadResponseHeaderInto(reusedBR, reused)
			if (ferr == nil) != (rerr == nil) || (ferr != nil && ferr.Error() != rerr.Error()) {
				t.Fatalf("%q response %d: fresh err %v, reused err %v", raw, i, ferr, rerr)
			}
			if ferr != nil {
				break
			}
			if !reflect.DeepEqual(fresh, reused) {
				t.Fatalf("%q response %d:\nfresh  %+v\nreused %+v", raw, i, fresh, reused)
			}
			for _, br := range []*bufio.Reader{freshBR, reusedBR} {
				if _, err := br.Discard(int(fresh.ContentLength)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// A reused Response reads a repeated response without allocating; a value
// that changed is read fresh, and strings taken from the earlier response
// keep their values.
func TestReadResponseHeaderIntoReusesRepeatedFields(t *testing.T) {
	const first = "HTTP/1.1 200 OK\r\nEtag: \"a\"\r\nX-Served-By: n1\r\nContent-Length: 5\r\n\r\n"
	src := strings.NewReader(first)
	br := bufio.NewReader(src)
	var resp Response
	if err := ReadResponseHeaderInto(br, &resp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(first)
		br.Reset(src)
		if err := ReadResponseHeaderInto(br, &resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("repeated response: %.1f allocations, want 0", allocs)
	}
	etag, length := resp.Header.Get("Etag"), resp.Header.Get("Content-Length")
	src.Reset("HTTP/1.1 200 OK\r\nEtag: \"b\"\r\nX-Served-By: n1\r\nContent-Length: 12\r\n\r\n")
	br.Reset(src)
	if err := ReadResponseHeaderInto(br, &resp); err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Etag"); got != `"b"` || resp.ContentLength != 12 || resp.Header.Get("Content-Length") != "12" {
		t.Fatalf("second response read as Etag %s, length %d", got, resp.ContentLength)
	}
	if etag != `"a"` || length != "5" {
		t.Fatalf("strings from the first response changed to %s, %s", etag, length)
	}
}

// fuzzResponse is the one Response FuzzReadResponseHeaderInto parses
// every input into, so each input is read over the strings the previous
// one left behind — the reuse the distributor's exchange relies on.
var fuzzResponse = Response{Header: make(Header, 0, 8)}

// FuzzReadResponseHeaderInto: whatever a back end sends, parsing it into
// a reused Response gives what parsing it into a new one gives, field for
// field and error for error, and a header it accepts is a fixed point of
// write → parse → write: what WriteResponse renders from it parses back
// to a response that renders the same bytes again, with the status, the
// framing, the trace fields and every other header unchanged.
func FuzzReadResponseHeaderInto(f *testing.F) {
	for _, raw := range responseStreams {
		f.Add([]byte(raw))
	}
	f.Add([]byte("HTTP/1.1 200 OK\r\nEtag: \"a\"\r\nX-Served-By: n1\r\nContent-Length: 5\r\n\r\nhello" +
		"HTTP/1.1 200 OK\r\nEtag: \"b\"\r\nX-Served-By: n1\r\nContent-Length: 12\r\n\r\nhello, again"))
	f.Add([]byte("HTTP/1.1 200\r\nx-dist-trace: zz\r\ncontent-length: +3\r\nVary:  \r\n\r\nabc"))
	for _, raw := range bareLFResponses {
		f.Add([]byte(raw))
	}
	render := func(t *testing.T, resp *Response) []byte {
		var b bytes.Buffer
		if err := WriteResponse(&b, resp); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		freshBR := bufio.NewReader(bytes.NewReader(wire))
		reusedBR := bufio.NewReader(bytes.NewReader(wire))
		resp := &fuzzResponse
		for i := 0; i < 8; i++ {
			fresh, ferr := ReadResponseHeader(freshBR)
			rerr := ReadResponseHeaderInto(reusedBR, resp)
			if (ferr == nil) != (rerr == nil) || (ferr != nil && ferr.Error() != rerr.Error()) {
				t.Fatalf("response %d: fresh err %v, reused err %v", i, ferr, rerr)
			}
			if ferr != nil {
				return
			}
			if !reflect.DeepEqual(fresh, resp) {
				t.Fatalf("response %d:\nfresh  %+v\nreused %+v", i, fresh, resp)
			}
			once := render(t, resp)
			again, err := ReadResponseHeader(bufio.NewReader(bytes.NewReader(once)))
			if err != nil {
				t.Fatalf("response %d: re-reading %q: %v", i, once, err)
			}
			if twice := render(t, again); !bytes.Equal(once, twice) {
				t.Fatalf("response %d: not a fixed point:\n%q\n%q", i, once, twice)
			}
			if again.Proto != resp.Proto || again.StatusCode != resp.StatusCode || again.ContentLength != resp.ContentLength ||
				again.TraceID != resp.TraceID || again.SpanID != resp.SpanID {
				t.Fatalf("response %d changed across the round trip:\n%+v\n%+v", i, resp, again)
			}
			for _, fl := range resp.Header {
				if fl.Key != "Content-Length" && again.Header.Get(fl.Key) != fl.Value {
					t.Fatalf("response %d: %s %q came back as %q", i, fl.Key, fl.Value, again.Header.Get(fl.Key))
				}
			}
			// the body is the caller's to consume before the next response
			for _, br := range []*bufio.Reader{freshBR, reusedBR} {
				if _, err := br.Discard(int(min(resp.ContentLength, int64(len(wire))))); err != nil {
					return
				}
			}
		}
	})
}

// fuzzRequest and fuzzResolved are the Requests FuzzReadRequest parses
// every input into, one per parse path, so each input is read over the
// strings the previous one left behind — a keep-alive loop's reuse.
var (
	fuzzRequest  = Request{Header: make(Header, 0, 8)}
	fuzzResolved = Request{Header: make(Header, 0, 8)}
	fuzzPools    = func() *Pools { p := NewPools(); p.Targets = placed; return p }()
)

// FuzzReadRequest: whatever a client sends, the default parse and the
// parse that resolves targets through Pools.Targets (the distributor's
// URL-table path) give the same request, field for field and error for
// error, and a request they accept is a fixed point of parse → write →
// parse: what WriteRequest renders from it parses back to a request that
// renders the same bytes, with method, target, body, trace and deadline
// fields and every header unchanged.
func FuzzReadRequest(f *testing.F) {
	for _, raw := range requestStreams {
		f.Add([]byte(raw))
	}
	f.Add([]byte("GET /docs/a.html HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc"))
	f.Add([]byte("GET /b?x HTTP/1.0\r\nX-Dist-Trace: zz\r\nX-Dist-Deadline: -1\r\nhost:  h \r\n\r\n"))
	// A line with no LF past the header section's byte bound.
	f.Add(append([]byte("GET / HTTP/1.1\r\nX-Long: "), bytes.Repeat([]byte("a"), 2*maxHeaderBytes)...))
	for _, raw := range bareLFRequests {
		f.Add([]byte(raw))
	}
	render := func(t *testing.T, req *Request) []byte {
		var b bytes.Buffer
		if err := WriteRequest(&b, req); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		plainBR := bufio.NewReader(bytes.NewReader(wire))
		resBR := bufio.NewReader(bytes.NewReader(wire))
		req, res := &fuzzRequest, &fuzzResolved
		for i := 0; i < 8; i++ {
			perr := ReadRequestInto(plainBR, req)
			rerr := fuzzPools.ReadRequestInto(resBR, res)
			if (perr == nil) != (rerr == nil) || (perr != nil && perr.Error() != rerr.Error()) {
				t.Fatalf("request %d: default err %v, resolving err %v", i, perr, rerr)
			}
			if perr != nil {
				return
			}
			if !reflect.DeepEqual(req, res) {
				t.Fatalf("request %d:\ndefault   %+v\nresolving %+v", i, req, res)
			}
			once := render(t, req)
			again, err := ReadRequest(bufio.NewReader(bytes.NewReader(once)))
			if err != nil {
				t.Fatalf("request %d: re-reading %q: %v", i, once, err)
			}
			if twice := render(t, again); !bytes.Equal(once, twice) {
				t.Fatalf("request %d: not a fixed point:\n%q\n%q", i, once, twice)
			}
			if again.Method != req.Method || again.Target != req.Target || again.Proto != req.Proto ||
				!bytes.Equal(again.Body, req.Body) || again.TraceID != req.TraceID || again.Deadline != req.Deadline {
				t.Fatalf("request %d changed across the round trip:\n%+v\n%+v", i, req, again)
			}
			for _, fl := range req.Header {
				if fl.Key != "Content-Length" && again.Header.Get(fl.Key) != fl.Value {
					t.Fatalf("request %d: %s %q came back as %q", i, fl.Key, fl.Value, again.Header.Get(fl.Key))
				}
			}
		}
	})
}

// Framing a message two ways is refused (RFC 9112 §6.3): a Content-Length
// contradicting an earlier one is malformed, and Transfer-Encoding — which
// this package does not implement — is refused outright. Repeating one
// Content-Length is not ambiguous.
func TestAmbiguousFramingRefused(t *testing.T) {
	cases := []struct {
		head string
		want error
	}{
		{"Content-Length: 5\r\nContent-Length: 100\r\n", ErrMalformedRequest},
		{"Content-Length: 100\r\nHost: h\r\nContent-Length: 5\r\n", ErrMalformedRequest},
		{"Transfer-Encoding: chunked\r\n", ErrTransferEncoding},
		{"Content-Length: 5\r\ntransfer-encoding: identity\r\n", ErrTransferEncoding},
		{"Content-Length: 5\r\nContent-Length: 5\r\n", nil},
	}
	for _, c := range cases {
		for _, raw := range []string{"POST /f.cgi HTTP/1.1\r\n", "HTTP/1.1 200 OK\r\n"} {
			raw += c.head + "\r\nhello"
			br := bufio.NewReader(strings.NewReader(raw))
			var err error
			var length int64
			if strings.HasPrefix(raw, "HTTP/") {
				var resp *Response
				if resp, err = ReadResponse(br); err == nil {
					length = int64(len(resp.Body))
				}
			} else {
				var req *Request
				if req, err = ReadRequest(br); err == nil {
					length = int64(len(req.Body))
				}
			}
			if !errors.Is(err, c.want) || (c.want == nil && length != 5) {
				t.Errorf("%q: err %v, body %d bytes; want %v", raw, err, length, c.want)
			}
		}
	}
}
