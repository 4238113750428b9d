package httpx

// HTTP validators and cache-serving support (the RFC 7232/7234 slice this
// system needs): strong entity tags derived from content, HTTP-date
// formatting with a per-second cache, If-None-Match / If-Modified-Since
// evaluation, and a zero-allocation serializer for stored responses that
// emits Date, Age and conditional 304s. The distributor's hot-content
// cache is the main consumer, but the helpers are layer-agnostic: the
// back-end servers use the same evaluation for conditional requests so
// the front end can revalidate expired entries against them.

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// TimeFormat is the HTTP-date layout (RFC 7231 IMF-fixdate). Times must be
// rendered in UTC.
const TimeFormat = "Mon, 02 Jan 2006 15:04:05 GMT"

// FormatHTTPTime renders t as an HTTP-date.
func FormatHTTPTime(t time.Time) string {
	return t.UTC().Format(TimeFormat)
}

// ParseHTTPTime parses an HTTP-date, accepting the obsolete RFC 850 and
// asctime layouts a legacy client might still send.
func ParseHTTPTime(s string) (time.Time, error) {
	for _, layout := range []string{TimeFormat, time.RFC850, time.ANSIC} {
		if t, err := time.Parse(layout, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("%w: http-date %q", ErrMalformedRequest, s)
}

// cachedDate is the per-second formatted Date value, so emitting a Date
// header on every response costs one allocation per second, not per
// request.
type cachedDate struct {
	unix int64
	s    string
}

var currentDate atomic.Pointer[cachedDate]

// CurrentDate returns the HTTP-date for the current wall-clock second. The
// formatted string is cached until the second rolls over.
func CurrentDate() string {
	now := time.Now()
	sec := now.Unix()
	if d := currentDate.Load(); d != nil && d.unix == sec {
		return d.s
	}
	d := &cachedDate{unix: sec, s: FormatHTTPTime(now)}
	currentDate.Store(d)
	return d.s
}

// fnv64a hashes b with FNV-1a (64-bit).
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

const hexDigits = "0123456789abcdef"

// StrongETag derives a strong entity tag from the content bytes: a quoted
// 16-hex-digit FNV-1a digest prefixed with the body length, so two bodies
// differing in length or bytes get different tags. Both the back ends and
// the distributor's cache derive tags with this function, which is what
// makes front-end revalidation against any replica work.
func StrongETag(body []byte) string {
	h := fnv64a(body)
	var buf [28]byte
	buf[0] = '"'
	n := 1
	// length prefix in hex
	l := uint64(len(body))
	var lh [16]byte
	li := len(lh)
	for {
		li--
		lh[li] = hexDigits[l&0xf]
		l >>= 4
		if l == 0 {
			break
		}
	}
	n += copy(buf[n:], lh[li:])
	buf[n] = '-'
	n++
	for shift := 60; shift >= 0; shift -= 4 {
		buf[n] = hexDigits[(h>>uint(shift))&0xf]
		n++
	}
	buf[n] = '"'
	n++
	return string(buf[:n])
}

// ETagMatch evaluates an If-None-Match header value against etag using the
// weak comparison (a W/ prefix on either side is ignored): "*" matches any
// current representation, otherwise the comma-separated list is scanned
// for a tag equal to etag.
func ETagMatch(headerValue, etag string) bool {
	if headerValue == "" || etag == "" {
		return false
	}
	if headerValue == "*" {
		return true
	}
	etag = strings.TrimPrefix(etag, "W/")
	for headerValue != "" {
		var candidate string
		if i := strings.IndexByte(headerValue, ','); i >= 0 {
			candidate, headerValue = headerValue[:i], headerValue[i+1:]
		} else {
			candidate, headerValue = headerValue, ""
		}
		candidate = strings.TrimSpace(candidate)
		if strings.TrimPrefix(candidate, "W/") == etag {
			return true
		}
	}
	return false
}

// NotModified reports whether a conditional request carrying h should be
// answered 304 for a representation with the given validators. Per RFC
// 7232 §6, If-None-Match takes precedence over If-Modified-Since; a zero
// lastModified disables the date check.
func NotModified(h Header, etag string, lastModified time.Time) bool {
	if inm := h.Get("If-None-Match"); inm != "" {
		return ETagMatch(inm, etag)
	}
	ims := h.Get("If-Modified-Since")
	if ims == "" || lastModified.IsZero() {
		return false
	}
	t, err := ParseHTTPTime(ims)
	if err != nil {
		return false
	}
	// HTTP dates have one-second resolution: not modified when the
	// representation's change time is no later than the client's copy.
	return !lastModified.Truncate(time.Second).After(t)
}

// Stored is a response retained for later replay: the immutable pieces of
// a 200 the front end cached, with its validators pre-rendered so serving
// allocates nothing. Construct the validator strings with StrongETag and
// FormatHTTPTime.
type Stored struct {
	StatusCode  int
	ContentType string
	// ETag is the strong validator (quoted, as it appears on the wire).
	ETag string
	// LastModified is the pre-rendered HTTP-date of the representation's
	// change time ("" omits the header).
	LastModified string
	// Date is the pre-rendered origination date of the stored response.
	Date string
	Body []byte
}

// ServeOptions shapes one replay of a Stored response.
type ServeOptions struct {
	// Proto is the client's protocol version (the status line's).
	Proto string
	// Head omits the body while keeping the Content-Length of the full
	// representation (a HEAD reply).
	Head bool
	// NotModified replays the response as a bodyless 304 carrying only
	// the validators (the client's conditional matched).
	NotModified bool
	// AgeSeconds emits an Age header when >= 0 (RFC 7234 §5.1: the time
	// the response has spent in caches).
	AgeSeconds int64
	// CacheStatus emits an X-Dist-Cache header when non-empty (HIT,
	// MISS, STALE, REVALIDATED — the front-end cache's verdict).
	CacheStatus string
	// ForceClose appends Connection: close (last response on the
	// connection).
	ForceClose bool
}

// ServeStored writes one replay of s to w. Every header byte comes from
// s's pre-rendered strings or is formatted in place in a pooled staging
// buffer, so the steady-state hit path of a response cache performs zero
// allocations here.
func ServeStored(w io.Writer, s *Stored, o ServeOptions) error {
	hb := defaultPools.acquireHeaderBuf()
	defer defaultPools.releaseHeaderBuf(hb)
	code := s.StatusCode
	if o.NotModified {
		code = 304
	}
	head := appendStatusLine((*hb)[:0], o.Proto, code, "")
	if !o.NotModified && s.ContentType != "" {
		head = appendField(head, "Content-Type", s.ContentType)
	}
	if s.ETag != "" {
		head = appendField(head, "Etag", s.ETag)
	}
	if s.LastModified != "" {
		head = appendField(head, "Last-Modified", s.LastModified)
	}
	if s.Date != "" {
		head = appendField(head, "Date", s.Date)
	}
	if o.AgeSeconds >= 0 {
		head = append(head, "Age: "...)
		head = strconv.AppendInt(head, o.AgeSeconds, 10)
		head = append(head, "\r\n"...)
	}
	if o.CacheStatus != "" {
		head = appendField(head, "X-Dist-Cache", o.CacheStatus)
	}
	if o.ForceClose {
		head = append(head, "Connection: close\r\n"...)
	}
	body := s.Body
	if o.Head || o.NotModified {
		body = nil
	}
	cl := int64(len(s.Body))
	if o.NotModified {
		cl = 0
	}
	head = appendContentLength(head, cl)
	*hb = head[:0]
	if _, err := defaultPools.writeVectored(w, head, body); err != nil {
		return fmt.Errorf("serving stored response: %w", err)
	}
	return nil
}
