// Package httpx implements the small slice of HTTP/1.0 and HTTP/1.1 the
// system needs: request parsing, response framing and keep-alive semantics.
//
// The content-aware distributor must see the request line before it can
// route (§2.2), and it reuses pre-forked persistent connections (HTTP/1.1
// keep-alive) toward the back ends, so the library controls message framing
// itself instead of delegating to net/http's transport pooling, whose
// connection management would hide exactly the mechanism the paper builds.
//
// The package is written for the distributor's fast path: parsing interns
// common methods, header keys and values instead of allocating, headers are
// insertion-ordered slices rather than maps (no sort on write, no clone on
// forward), every message is serialized into a pooled staging buffer and
// leaves with its body in one vectored write (writev.go), and response
// bodies can be streamed (ReadResponseHeader + CopyBody) instead of
// buffered. See DESIGN.md §2 for the pooling and aliasing invariants.
package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Protocol versions understood by the parser.
const (
	Proto10 = "HTTP/1.0"
	Proto11 = "HTTP/1.1"
)

// Errors returned by the parser.
var (
	// ErrMalformedRequest reports an unparsable request line or header.
	ErrMalformedRequest = errors.New("httpx: malformed request")
	// ErrUnsupportedProto reports an HTTP version other than 1.0/1.1.
	ErrUnsupportedProto = errors.New("httpx: unsupported protocol version")
	// ErrHeaderTooLarge reports a header section beyond the size limit.
	ErrHeaderTooLarge = errors.New("httpx: header section too large")
	// ErrBodyTooLarge reports a Content-Length beyond the bound for its
	// kind of message. Nothing of the body has been read.
	ErrBodyTooLarge = errors.New("httpx: body too large")
)

// Body bounds, checked before a declared length sizes an allocation.
const (
	// MaxRequestBody bounds a request body: the content model's largest
	// object is 1 MiB and CGI/ASP posts are far smaller.
	MaxRequestBody = 1 << 20
	// maxBufferedResponse bounds a body ReadResponse buffers whole: no
	// back end holds a file larger than the management plane can place
	// (mgmt's frame payload bound).
	maxBufferedResponse = 256 << 20
)

// maxHeaderLines bounds the header section to keep a malicious client from
// holding distributor memory hostage.
const maxHeaderLines = 128

// Field is one header name/value pair. Keys are stored canonicalized by
// textproto rules (Content-Length, Host, ...).
type Field struct {
	Key   string
	Value string
}

// Header is a case-insensitive, single-valued, insertion-ordered header
// list. Relative to a map it writes without sorting (wire order is
// insertion order), iterates without allocation, and reuses its backing
// array across keep-alive requests. With the handful of fields this
// system's messages carry, linear scans beat map hashing.
type Header []Field

// NewHeader builds a header from alternating key, value pairs.
func NewHeader(pairs ...string) Header {
	if len(pairs)%2 != 0 {
		panic("httpx: NewHeader requires key/value pairs")
	}
	h := make(Header, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		h.Set(pairs[i], pairs[i+1])
	}
	return h
}

// isCanonicalKey reports whether k is already in canonical form, letting
// CanonicalKey skip its allocation for the common case of well-formed
// peers.
func isCanonicalKey(k string) bool {
	upper := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		if upper && 'a' <= c && c <= 'z' {
			return false
		}
		if !upper && 'A' <= c && c <= 'Z' {
			return false
		}
		upper = c == '-'
	}
	return true
}

// CanonicalKey normalizes a header name: first letter and letters after '-'
// upper-cased, the rest lower-cased.
func CanonicalKey(k string) string {
	if isCanonicalKey(k) {
		return k
	}
	b := []byte(k)
	upper := true
	for i, c := range b {
		if upper && 'a' <= c && c <= 'z' {
			b[i] = c - ('a' - 'A')
		} else if !upper && 'A' <= c && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
		upper = c == '-'
	}
	return string(b)
}

// Get returns the value for key, canonicalizing the lookup.
func (h Header) Get(key string) string {
	key = CanonicalKey(key)
	for i := range h {
		if h[i].Key == key {
			return h[i].Value
		}
	}
	return ""
}

// Set stores value under the canonicalized key, replacing any existing
// entry in place (wire position is preserved).
func (h *Header) Set(key, value string) {
	h.setCanonical(CanonicalKey(key), value)
}

// setCanonical is Set for keys already in canonical form (the parser's
// path, which canonicalizes straight off the wire bytes).
func (h *Header) setCanonical(key, value string) {
	for i := range *h {
		if (*h)[i].Key == key {
			(*h)[i].Value = value
			return
		}
	}
	*h = append(*h, Field{Key: key, Value: value})
}

// Del removes the canonicalized key.
func (h *Header) Del(key string) {
	key = CanonicalKey(key)
	for i := range *h {
		if (*h)[i].Key == key {
			*h = append((*h)[:i], (*h)[i+1:]...)
			return
		}
	}
}

// Clone returns a copy of the header with its own backing array.
func (h Header) Clone() Header {
	if h == nil {
		return nil
	}
	return append(make(Header, 0, len(h)), h...)
}

// Request is a parsed HTTP request.
type Request struct {
	Method string
	// Target is the request-target as sent (path plus optional query).
	Target string
	// Path is Target with any query string removed.
	Path string
	// Query is the raw query string (no leading '?'), empty if none.
	Query  string
	Proto  string
	Header Header
	// Body holds the request body when Content-Length was present.
	Body []byte
	// TraceID carries the in-band X-Dist-Trace value. The wire header is
	// parsed into (and emitted from) this field rather than the Header
	// slice, so tracing never allocates a header string on the hot path.
	TraceID uint64
	// Deadline carries the in-band X-Dist-Deadline value: the absolute
	// instant (Unix nanoseconds) after which the client has given up on
	// this request, 0 when none was propagated. Like TraceID it is a
	// field, not a header string, so deadline propagation stays
	// allocation-free; see deadline.go for the helpers.
	Deadline int64
}

// reset clears the request for reuse, keeping the header and body backing
// arrays so a keep-alive loop parses without allocating.
func (r *Request) reset() {
	r.Method, r.Target, r.Path, r.Query, r.Proto = "", "", "", "", ""
	r.Header = r.Header[:0]
	r.Body = r.Body[:0]
	r.TraceID = 0
	r.Deadline = 0
}

// keepAlive implements the shared version-dependent connection rules:
// HTTP/1.0 persists on "Connection: keep-alive" opt-in, HTTP/1.1 on
// "Connection: close" opt-out.
func keepAlive(proto, conn string) bool {
	switch proto {
	case Proto11:
		return !strings.EqualFold(conn, "close")
	case Proto10:
		return strings.EqualFold(conn, "keep-alive")
	default:
		return false
	}
}

// KeepAlive reports whether the connection should persist after this
// request.
func (r *Request) KeepAlive() bool {
	return keepAlive(r.Proto, r.Header.Get("Connection"))
}

// IsDynamic reports whether the request targets executable content by the
// path conventions the paper's workloads use (CGI scripts and ASP pages).
func (r *Request) IsDynamic() bool {
	return strings.Contains(r.Path, "/cgi-bin/") ||
		strings.HasSuffix(r.Path, ".cgi") ||
		strings.HasSuffix(r.Path, ".asp")
}

// internMethod returns a shared string for the common methods so request
// parsing does not allocate for them.
func internMethod(b []byte) string {
	switch string(b) { // compiles to a comparison, no conversion alloc
	case "GET":
		return "GET"
	case "POST":
		return "POST"
	case "HEAD":
		return "HEAD"
	case "PUT":
		return "PUT"
	case "DELETE":
		return "DELETE"
	}
	return string(b)
}

// internValue returns shared strings for header values this system emits
// on every message.
func internValue(b []byte) string {
	switch string(b) {
	case "close":
		return "close"
	case "keep-alive":
		return "keep-alive"
	case "text/html":
		return "text/html"
	case "HIT":
		return "HIT"
	case "MISS":
		return "MISS"
	case "STALE":
		return "STALE"
	case "REVALIDATED":
		return "REVALIDATED"
	case "critical":
		return "critical"
	case "interactive":
		return "interactive"
	case "batch":
		return "batch"
	}
	return string(b)
}

// canonFieldKey canonicalizes a wire header name and interns the keys this
// system sees on every message, so steady-state parsing allocates nothing.
func canonFieldKey(b []byte) string {
	var tmp [64]byte
	if len(b) > len(tmp) {
		return CanonicalKey(string(b))
	}
	upper := true
	for i := 0; i < len(b); i++ {
		c := b[i]
		if upper && 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		} else if !upper && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		tmp[i] = c
		upper = c == '-'
	}
	s := tmp[:len(b)]
	switch string(s) {
	case "Host":
		return "Host"
	case "Connection":
		return "Connection"
	case "Content-Length":
		return "Content-Length"
	case "Content-Type":
		return "Content-Type"
	case "User-Agent":
		return "User-Agent"
	case "Accept":
		return "Accept"
	case "X-Served-By":
		return "X-Served-By"
	case "X-Cache":
		return "X-Cache"
	case "X-Dist-Cache":
		return "X-Dist-Cache"
	case "Etag":
		return "Etag"
	case "Last-Modified":
		return "Last-Modified"
	case "Date":
		return "Date"
	case "Age":
		return "Age"
	case "If-None-Match":
		return "If-None-Match"
	case "If-Modified-Since":
		return "If-Modified-Since"
	case "X-Dist-Trace":
		return "X-Dist-Trace"
	case "X-Dist-Span":
		return "X-Dist-Span"
	case "X-Dist-Deadline":
		return "X-Dist-Deadline"
	case "X-Dist-Class":
		return "X-Dist-Class"
	}
	return string(s)
}

// readHeaderInto parses header lines into h until the blank separator.
// The in-band tracing and deadline headers are diverted into the
// trace/span/deadline sinks when provided (never materialized as header
// strings — the zero-alloc keep-alive path depends on that); with a nil
// sink they land in h like any other field.
func readHeaderInto(br *bufio.Reader, h *Header, trace, span *uint64, deadline *int64) error {
	for i := 0; ; i++ {
		if i >= maxHeaderLines {
			return ErrHeaderTooLarge
		}
		line, err := readLineBytes(br)
		if err != nil {
			return fmt.Errorf("reading header: %w", err)
		}
		if len(line) == 0 {
			return nil
		}
		idx := bytes.IndexByte(line, ':')
		if idx <= 0 {
			return fmt.Errorf("%w: header %q", ErrMalformedRequest, line)
		}
		key := canonFieldKey(line[:idx])
		if key == "X-Dist-Trace" && trace != nil {
			*trace, _ = parseHex(bytes.TrimSpace(line[idx+1:]))
			continue
		}
		if key == "X-Dist-Span" && span != nil {
			*span, _ = parseHex(bytes.TrimSpace(line[idx+1:]))
			continue
		}
		if key == "X-Dist-Deadline" && deadline != nil {
			*deadline, _ = ParseDeadline(bytes.TrimSpace(line[idx+1:]))
			continue
		}
		val := internValue(bytes.TrimSpace(line[idx+1:]))
		h.setCanonical(key, val)
	}
}

// ReadRequest parses one request from br. io.EOF is returned unwrapped when
// the connection closes cleanly before any byte of a new request.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	req := &Request{Header: make(Header, 0, 8)}
	if err := ReadRequestInto(br, req); err != nil {
		return nil, err
	}
	return req, nil
}

// ReadRequestInto parses one request from br into req, reusing req's
// header and body storage — the allocation-free path for keep-alive loops.
// io.EOF is returned unwrapped when the connection closes cleanly before
// any byte of a new request.
func ReadRequestInto(br *bufio.Reader, req *Request) error {
	req.reset()
	line, err := readLineBytes(br)
	if err != nil {
		if err == io.EOF && len(line) == 0 {
			return io.EOF
		}
		return fmt.Errorf("reading request line: %w", err)
	}
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 <= 0 {
		return fmt.Errorf("%w: %q", ErrMalformedRequest, line)
	}
	rest := line[sp1+1:]
	sp2 := bytes.IndexByte(rest, ' ')
	if sp2 <= 0 {
		return fmt.Errorf("%w: %q", ErrMalformedRequest, line)
	}
	proto := rest[sp2+1:]
	switch string(proto) {
	case Proto11:
		req.Proto = Proto11
	case Proto10:
		req.Proto = Proto10
	default:
		return fmt.Errorf("%w: %q", ErrUnsupportedProto, proto)
	}
	req.Method = internMethod(line[:sp1])
	req.Target = string(rest[:sp2])
	req.Path, req.Query, _ = strings.Cut(req.Target, "?")

	if err := readHeaderInto(br, &req.Header, &req.TraceID, nil, &req.Deadline); err != nil {
		return err
	}

	if cl := req.Header.Get("Content-Length"); cl != "" {
		n, err := strconv.ParseInt(cl, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("%w: content-length %q", ErrMalformedRequest, cl)
		}
		if n > MaxRequestBody {
			return fmt.Errorf("%w: request declares %d bytes, over the %d-byte bound", ErrBodyTooLarge, n, MaxRequestBody)
		}
		req.Body = grow(req.Body, n)
		if _, err := io.ReadFull(br, req.Body); err != nil {
			return fmt.Errorf("reading body: %w", err)
		}
	}
	return nil
}

// grow returns b resized to n bytes, reusing its backing array when large
// enough.
func grow(b []byte, n int64) []byte {
	if int64(cap(b)) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// WriteRequest serializes req to w in wire format: the request head is
// staged into a pooled buffer and goes out together with the body as one
// vectored write.
func (p *Pools) WriteRequest(w io.Writer, req *Request) error {
	return p.writeRequest(w, req, req.Proto, "writing request")
}

// WriteRequest is Pools.WriteRequest on the default pool set.
func WriteRequest(w io.Writer, req *Request) error {
	return defaultPools.WriteRequest(w, req)
}

// WriteProxyRequest forwards req toward a back end: the request is written
// as HTTP/1.1 (so the pre-forked persistent connection survives the
// exchange) with the hop-by-hop Connection header dropped on the wire —
// no header clone, no mutation of req. Head and body leave in one
// vectored write.
func (p *Pools) WriteProxyRequest(w io.Writer, req *Request) error {
	return p.writeRequest(w, req, Proto11, "forwarding request")
}

// WriteProxyRequest is Pools.WriteProxyRequest on the default pool set.
func WriteProxyRequest(w io.Writer, req *Request) error {
	return defaultPools.WriteProxyRequest(w, req)
}

func (p *Pools) writeRequest(w io.Writer, req *Request, proto, doing string) error {
	hb := p.acquireHeaderBuf()
	defer p.releaseHeaderBuf(hb)
	head := appendRequestHead((*hb)[:0], req, proto)
	*hb = head[:0]
	if _, err := p.writeVectored(w, head, req.Body); err != nil {
		return fmt.Errorf("%s: %w", doing, err)
	}
	return nil
}

// Response is a parsed or to-be-written HTTP response.
type Response struct {
	Proto      string
	StatusCode int
	Status     string // reason phrase; derived from StatusCode when empty
	Header     Header
	// Body holds the full body in buffered mode (ReadResponse). In
	// streaming mode (ReadResponseHeader) it is nil and the body remains
	// on the connection, ContentLength bytes long.
	Body []byte
	// ContentLength is the declared body length parsed from the header
	// section (0 when absent). Valid after ReadResponseHeader and
	// ReadResponse.
	ContentLength int64
	// TraceID/SpanID carry the in-band X-Dist-Trace / X-Dist-Span values:
	// a traced backend echoes the request's trace ID and stamps its own
	// service span ID. Parsed into (and emitted from) these fields, never
	// stored as header strings.
	TraceID uint64
	SpanID  uint64
}

// statusText maps the status codes this system emits to reason phrases.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 304:
		return "Not Modified"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 413:
		return "Content Too Large"
	case 500:
		return "Internal Server Error"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	default:
		return "Status " + strconv.Itoa(code)
	}
}

// internStatus returns shared strings for the reason phrases this system
// emits.
func internStatus(b []byte) string {
	switch string(b) {
	case "OK":
		return "OK"
	case "Not Modified":
		return "Not Modified"
	case "Bad Request":
		return "Bad Request"
	case "Not Found":
		return "Not Found"
	case "Internal Server Error":
		return "Internal Server Error"
	case "Bad Gateway":
		return "Bad Gateway"
	case "Service Unavailable":
		return "Service Unavailable"
	}
	return string(b)
}

// KeepAlive reports whether the connection persists after this response,
// by the same version-dependent rules as Request.KeepAlive.
func (r *Response) KeepAlive() bool {
	return keepAlive(r.Proto, r.Header.Get("Connection"))
}

// NewResponse builds a response with the given status and body, framed with
// a Content-Length so it can be carried on a persistent connection.
func NewResponse(proto string, code int, body []byte) *Response {
	resp := &Response{
		Proto:         proto,
		StatusCode:    code,
		Header:        make(Header, 0, 4),
		Body:          body,
		ContentLength: int64(len(body)),
	}
	resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
	return resp
}

// WriteResponse serializes resp to w, forcing a correct Content-Length.
// Headers go out in insertion order (any stale Content-Length field is
// skipped, not cloned around), and the body — typically an aliased slice
// of the backend's page cache — is written without copying.
func WriteResponse(w io.Writer, resp *Response) error {
	hb := defaultPools.acquireHeaderBuf()
	defer defaultPools.releaseHeaderBuf(hb)
	head := appendStatusLine((*hb)[:0], resp.Proto, resp.StatusCode, resp.Status)
	head = resp.Header.appendFields(head, "Content-Length", "")
	head = appendTraceFields(head, resp)
	head = appendContentLength(head, int64(len(resp.Body)))
	*hb = head[:0]
	if _, err := defaultPools.writeVectored(w, head, resp.Body); err != nil {
		return fmt.Errorf("writing response: %w", err)
	}
	return nil
}

// parseHex parses an unsigned hex value from wire bytes without
// allocating.
func parseHex(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 16 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		n <<= 4
		switch {
		case c >= '0' && c <= '9':
			n |= uint64(c - '0')
		case c >= 'a' && c <= 'f':
			n |= uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			n |= uint64(c-'A') + 10
		default:
			return 0, false
		}
	}
	return n, true
}

// parseDecimal parses an unsigned decimal from wire bytes without
// allocating.
func parseDecimal(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// ReadResponseHeader parses the status line and header section from br,
// leaving the body unread on the connection — the streaming half of the
// relay fast path. The caller owns reading exactly ContentLength further
// bytes (CopyBody) before the connection can carry another exchange.
func ReadResponseHeader(br *bufio.Reader) (*Response, error) {
	line, err := readLineBytes(br)
	if err != nil {
		if err == io.EOF && len(line) == 0 {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("reading status line: %w", err)
	}
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 <= 0 {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformedRequest, line)
	}
	resp := &Response{Header: make(Header, 0, 8)}
	switch string(line[:sp1]) {
	case Proto11:
		resp.Proto = Proto11
	case Proto10:
		resp.Proto = Proto10
	default:
		return nil, fmt.Errorf("%w: status line %q", ErrMalformedRequest, line)
	}
	rest := line[sp1+1:]
	codeBytes := rest
	if sp2 := bytes.IndexByte(rest, ' '); sp2 >= 0 {
		codeBytes = rest[:sp2]
		resp.Status = internStatus(rest[sp2+1:])
	}
	code, ok := parseDecimal(codeBytes)
	if !ok {
		return nil, fmt.Errorf("%w: status code %q", ErrMalformedRequest, codeBytes)
	}
	resp.StatusCode = int(code)
	if err := readHeaderInto(br, &resp.Header, &resp.TraceID, &resp.SpanID, nil); err != nil {
		return nil, err
	}
	if cl := resp.Header.Get("Content-Length"); cl != "" {
		n, err := strconv.ParseInt(cl, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%w: content-length %q", ErrMalformedRequest, cl)
		}
		resp.ContentLength = n
	}
	return resp, nil
}

// ReadResponse parses one response from br, requiring Content-Length
// framing (the only framing this system's servers emit) and buffering the
// whole body. The management, NFS and test-client paths use this; the
// distributor's relay streams instead (ReadResponseHeader + CopyBody).
func ReadResponse(br *bufio.Reader) (*Response, error) {
	resp, err := ReadResponseHeader(br)
	if err != nil {
		return nil, err
	}
	if cl := resp.Header.Get("Content-Length"); cl != "" {
		if resp.ContentLength > maxBufferedResponse {
			return nil, fmt.Errorf("%w: response declares %d bytes, over the %d-byte bound", ErrBodyTooLarge, resp.ContentLength, maxBufferedResponse)
		}
		resp.Body = make([]byte, resp.ContentLength)
		if _, err := io.ReadFull(br, resp.Body); err != nil {
			return nil, fmt.Errorf("reading body: %w", err)
		}
	}
	return resp, nil
}

// readLineBytes reads a CRLF- or LF-terminated line, returning it without
// the terminator. The returned slice aliases br's buffer and is only valid
// until the next read; lines longer than the buffer spill into an owned
// allocation.
func readLineBytes(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		owned := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = br.ReadSlice('\n')
			owned = append(owned, line...)
		}
		line = owned
	}
	if err != nil {
		return line, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}
