package httpx

import (
	"errors"
	"fmt"
	"io"
	"net"
)

// ErrBodyTruncated reports that a peer delivered fewer body bytes than its
// Content-Length promised. The relay uses it to tell a source-side failure
// (back end died mid-body — the response already sent to the client is
// short, so the client connection must close) from a destination-side one
// (client went away).
var ErrBodyTruncated = errors.New("httpx: body truncated")

// bareTCP is the rule the response relay applies before moving bytes in
// the kernel: dst and src must both be *TCPConn values, whose splice runs
// on the raw path and never brings the payload into user space. A wrapped
// connection (fault injection, TLS, a test double) fails the rule on
// purpose: unwrapping it would move bytes the wrapper never sees and
// bypass injected faults. Such a pair takes the copy loop through a pooled
// CopyBufSize buffer.
func bareTCP(dst io.Writer, src io.Reader) (*TCPConn, *TCPConn, bool) {
	tdst, dok := dst.(*TCPConn)
	tsrc, sok := src.(*TCPConn)
	return tdst, tsrc, dok && sok
}

// copyBodyBuf is the relay loop: it copies exactly n bytes from src to dst
// through buf. See CopyBody for the error contract.
func copyBodyBuf(dst io.Writer, src io.Reader, n int64, buf []byte) (int64, error) {
	var written int64
	for written < n {
		chunk := n - written
		if chunk > int64(len(buf)) {
			chunk = int64(len(buf))
		}
		rn, rerr := src.Read(buf[:chunk])
		if rn > 0 {
			wn, werr := dst.Write(buf[:rn])
			written += int64(wn)
			if werr != nil {
				return written, fmt.Errorf("relaying body: %w", werr)
			}
			if wn < rn {
				return written, fmt.Errorf("relaying body: %w", io.ErrShortWrite)
			}
		}
		if written >= n {
			break
		}
		if rerr != nil {
			return written, fmt.Errorf("%w after %d/%d bytes: %v", ErrBodyTruncated, written, n, rerr)
		}
	}
	return written, nil
}

// CopyBody copies exactly n body bytes from src to dst using a pooled
// CopyBufSize buffer, so relaying a body of any size costs zero
// allocations. A short read from src returns an error wrapping
// ErrBodyTruncated; a write error on dst is returned as-is (not a
// truncation — the source stream is still intact). Either way the
// returned count is what reached dst, and on error the connection
// carrying src can no longer be reused for another exchange (framing is
// lost).
func (p *Pools) CopyBody(dst io.Writer, src io.Reader, n int64) (int64, error) {
	if n <= 0 {
		return 0, nil
	}
	bufp := p.acquireCopyBuf()
	defer p.releaseCopyBuf(bufp)
	return copyBodyBuf(dst, src, n, *bufp)
}

// CopyBody is Pools.CopyBody on the default pool set.
func CopyBody(dst io.Writer, src io.Reader, n int64) (int64, error) {
	return defaultPools.CopyBody(dst, src, n)
}

// RelayOptions shapes one relayed response.
type RelayOptions struct {
	// Proto is the client's protocol version (the status line's).
	Proto string
	// ForceClose sends Connection: close (the last response on the client
	// connection).
	ForceClose bool
	// Head relays the header section alone, whatever its Content-Length:
	// the response answers a HEAD request, so no body follows it on either
	// connection (RFC 9112 §6.3, rule 1).
	Head bool
	// Src, when set, is the connection src buffers. When src has nothing
	// buffered left and Src and dst both pass bareTCP, the rest of the
	// body moves in the kernel, straight from Src.
	Src net.Conn
	// CacheStatus adds an X-Dist-Cache field when non-empty (a miss the
	// front-end cache would not store is relayed as MISS).
	CacheStatus string
}

// Relay streams resp from a back-end connection to the client: the status
// line and headers (translated to the client's protocol version,
// Connection rewritten on the wire — resp is not mutated) are staged into
// a pooled buffer, the first body chunk is read from src, and both go out
// in one vectored write (a single writev(2) on a TCP client). When src
// already holds the whole body — a back-end connection's reader takes a
// small response off the socket in one read — the response leaves in that
// one write. The rest of the body, to resp.ContentLength bytes in total,
// moves in the kernel when o.Src allows it (see RelayOptions) and through
// the same pooled buffer otherwise. resp must come from
// ReadResponseHeaderInto with its body still unread on src.
//
// The returned count is the number of body bytes that reached the client.
// Errors keep CopyBody's contract: a source-side failure wraps
// ErrBodyTruncated, a client-side one does not. On error the exchange is
// unrecoverable: the header section (and possibly part of the body)
// already went out, so the caller must close both connections (no retry,
// no reuse).
func (p *Pools) Relay(dst io.Writer, resp *Response, src io.Reader, o RelayOptions) (int64, error) {
	hb := p.acquireHeaderBuf()
	defer p.releaseHeaderBuf(hb)
	head := appendResponseHeader((*hb)[:0], resp, o)
	*hb = head[:0] // keep any growth pooled
	total := resp.ContentLength
	if total <= 0 || o.Head {
		if _, err := WriteVectored(dst, head, nil); err != nil {
			return 0, fmt.Errorf("writing response header: %w", err)
		}
		return 0, nil
	}
	bufp := p.acquireCopyBuf()
	defer p.releaseCopyBuf(bufp)
	buf := *bufp
	chunk := total
	if chunk > int64(len(buf)) {
		chunk = int64(len(buf))
	}
	// One read before the header goes out: whatever src already buffered
	// rides the same writev as the header section.
	rn, rerr := src.Read(buf[:chunk])
	wn, werr := WriteVectored(dst, head, buf[:rn])
	written := wn - int64(len(head))
	if written < 0 {
		written = 0
	}
	if werr != nil {
		if wn < int64(len(head)) {
			return 0, fmt.Errorf("writing response header: %w", werr)
		}
		return written, fmt.Errorf("relaying body: %w", werr)
	}
	if rerr != nil && written < total {
		return written, fmt.Errorf("%w after %d/%d bytes: %v", ErrBodyTruncated, written, total, rerr)
	}
	if written >= total {
		return written, nil
	}
	if tdst, tsrc, ok := spliceable(dst, src, o.Src); ok {
		if p := acquirePipe(); p != nil {
			defer releasePipe(p)
			m, err := spliceBody(tdst, tsrc, p, total-written, total)
			return written + m, err
		}
	}
	m, err := copyBodyBuf(dst, src, total-written, buf)
	return written + m, err
}

// spliceable reports whether the rest of a body src is relaying may move
// in the kernel: conn is the connection under src, src has nothing
// buffered left to hand over, and dst and conn pass bareTCP.
func spliceable(dst io.Writer, src io.Reader, conn net.Conn) (*TCPConn, *TCPConn, bool) {
	if conn == nil {
		return nil, nil, false
	}
	if b, ok := src.(interface{ Buffered() int }); !ok || b.Buffered() > 0 {
		return nil, nil, false
	}
	return bareTCP(dst, conn)
}

// RelayResponse is Relay with no direct connection read: the whole body
// flows through src and the pooled buffer.
func (p *Pools) RelayResponse(dst io.Writer, resp *Response, src io.Reader, clientProto string, forceClose bool) (int64, error) {
	return p.Relay(dst, resp, src, RelayOptions{Proto: clientProto, ForceClose: forceClose})
}

// RelayResponse is Pools.RelayResponse on the default pool set.
func RelayResponse(dst io.Writer, resp *Response, src io.Reader, clientProto string, forceClose bool) (int64, error) {
	return defaultPools.RelayResponse(dst, resp, src, clientProto, forceClose)
}
