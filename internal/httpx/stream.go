package httpx

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"
)

// ErrBodyTruncated reports that a peer delivered fewer body bytes than its
// Content-Length promised. The relay uses it to tell a source-side failure
// (back end died mid-body — the response already sent to the client is
// short, so the client connection must close) from a destination-side one
// (client went away).
var ErrBodyTruncated = errors.New("httpx: body truncated")

// bareTCP is the one rule both relays — the distributor's response relay
// and the L4 router's stream splice — apply before moving bytes in the
// kernel: dst and src must both be *net.TCPConn values, for which
// (*net.TCPConn).ReadFrom uses splice(2) and the payload never enters user
// space. A wrapped connection (fault injection, TLS, a test double) fails
// the rule on purpose: unwrapping it would move bytes the wrapper never
// sees and bypass injected faults. Such a pair takes the copy loop through
// a pooled CopyBufSize buffer, the one fallback pool both relays share.
func bareTCP(dst io.Writer, src io.Reader) (*net.TCPConn, *net.TCPConn, bool) {
	tdst, dok := dst.(*net.TCPConn)
	tsrc, sok := src.(*net.TCPConn)
	return tdst, tsrc, dok && sok
}

// SpliceStreams relays src into dst until EOF or error, returning the
// bytes moved: one direction of the L4 router's connection splice. A bare
// TCP pair moves in the kernel; any other pairing copies through a pooled
// buffer, with both ends wrapped in bare structs so io.CopyBuffer cannot
// bypass it through their own ReaderFrom/WriterTo.
func SpliceStreams(dst io.Writer, src io.Reader) (int64, error) {
	if tdst, tsrc, ok := bareTCP(dst, src); ok {
		return tdst.ReadFrom(tsrc)
	}
	bufp := defaultPools.acquireCopyBuf()
	defer defaultPools.releaseCopyBuf(bufp)
	return io.CopyBuffer(struct{ io.Writer }{dst}, struct{ io.Reader }{src}, *bufp)
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
	// Conn, when set, is a limiter whose R is the connection src buffers;
	// Relay sets its N. When src has nothing buffered left and Conn.R and
	// dst are both bare TCP, the rest of the body moves in the kernel
	// through Conn. A limiter kept with the connection makes that
	// allocation-free. dst must carry no deadline: a kernel relay that
	// misses one is charged to the source.
	Conn *io.LimitedReader
}

// Relay streams resp from a back-end connection to the client: the status
// line and headers (translated to the client's protocol version,
// Connection rewritten on the wire — resp is not mutated) are staged into
// a pooled buffer, the first body chunk is read from src, and both go out
// in one vectored write (a single writev(2) on a TCP client). When src
// already holds the whole body — a back-end connection's reader takes a
// small response off the socket in one read — the response leaves in that
// one write. The rest of the body, to resp.ContentLength bytes in total,
// moves in the kernel when o.Conn allows it (see RelayOptions) and through
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
	head := appendResponseHeader((*hb)[:0], resp, o.Proto, o.ForceClose)
	*hb = head[:0] // keep any growth pooled
	total := resp.ContentLength
	if total <= 0 || o.Head {
		if _, err := p.writeVectored(dst, head, nil); err != nil {
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
	wn, werr := p.writeVectored(dst, head, buf[:rn])
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
	if tdst, tsrc, ok := spliceable(dst, src, o.Conn); ok {
		m, err := spliceBody(tdst, tsrc, o.Conn, total-written, total)
		return written + m, err
	}
	m, err := copyBodyBuf(dst, src, total-written, buf)
	return written + m, err
}

// spliceable reports whether the rest of a body src is relaying may move
// in the kernel: conn reads the connection under src, src has nothing
// buffered left to hand over, and dst and conn.R pass bareTCP.
func spliceable(dst io.Writer, src io.Reader, conn *io.LimitedReader) (*net.TCPConn, *net.TCPConn, bool) {
	if conn == nil {
		return nil, nil, false
	}
	if b, ok := src.(interface{ Buffered() int }); !ok || b.Buffered() > 0 {
		return nil, nil, false
	}
	return bareTCP(dst, conn.R)
}

// spliceBody moves the last n of a body's total bytes from src to dst in
// the kernel, reading through conn (whose R is src). Go's splice error
// does not say which socket failed, so the error path attributes it: a
// short count with no error is the source's EOF; a missed deadline is the
// source's, since only it carries one; anything else is the source's if
// src no longer answers (alive). The success path costs nothing extra.
func spliceBody(dst, src *net.TCPConn, conn *io.LimitedReader, n, total int64) (int64, error) {
	conn.N = n
	m, err := dst.ReadFrom(conn)
	if m == n {
		return m, nil
	}
	if err == nil || errors.Is(err, os.ErrDeadlineExceeded) || !alive(src) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return m, fmt.Errorf("%w after %d/%d bytes: %v", ErrBodyTruncated, total-n+m, total, err)
	}
	return m, fmt.Errorf("relaying body: %w", err)
}

// aliveWait bounds alive's read: a live back end with nothing left to send
// makes it wait this long.
const aliveWait = time.Millisecond

// alive reports whether c, a back-end connection a kernel relay just
// failed on, still works: one read that returns a byte or times out finds
// it alive, EOF or a reset finds it dead. The read overwrites c's deadline
// and may consume a byte, so c must be discarded afterwards — as it is
// after any failed relay.
func alive(c *net.TCPConn) bool {
	if err := c.SetReadDeadline(time.Now().Add(aliveWait)); err != nil {
		return false
	}
	var b [1]byte
	_, err := c.Read(b[:])
	return err == nil || errors.Is(err, os.ErrDeadlineExceeded)
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
