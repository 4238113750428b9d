package httpx

import (
	"errors"
	"fmt"
	"io"
)

// ErrBodyTruncated reports that a peer delivered fewer body bytes than its
// Content-Length promised. The relay uses it to tell a source-side failure
// (back end died mid-body — the response already sent to the client is
// short, so the client connection must close) from a destination-side one
// (client went away).
var ErrBodyTruncated = errors.New("httpx: body truncated")

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

// RelayResponse streams resp from a back-end connection to the client:
// the status line and headers (translated to the client's protocol
// version, Connection rewritten on the wire — resp is not mutated) are
// staged into a pooled buffer, the first body chunk is read from src, and
// both go out in one vectored write (a single writev(2) on a TCP client),
// so a response that fits one copy buffer costs one write syscall instead
// of header-flush-plus-body. The remaining body — exactly
// resp.ContentLength bytes in total — streams through the same pooled
// buffer. When src's buffer already holds the whole body — a back-end
// connection's reader takes a small response off the socket in one read —
// the response leaves in that one write. resp must come from
// ReadResponseHeaderInto with its body still unread on src.
//
// The returned count is the number of body bytes that reached the client.
// On error the exchange is unrecoverable: the header section (and
// possibly part of the body) already went out, so the caller must close
// both connections (no retry, no reuse).
func (p *Pools) RelayResponse(dst io.Writer, resp *Response, src io.Reader, clientProto string, forceClose bool) (int64, error) {
	hb := p.acquireHeaderBuf()
	defer p.releaseHeaderBuf(hb)
	head := appendResponseHeader((*hb)[:0], resp, clientProto, forceClose)
	*hb = head[:0] // keep any growth pooled
	total := resp.ContentLength
	if total <= 0 {
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
	m, err := copyBodyBuf(dst, src, total-written, buf)
	return written + m, err
}

// RelayResponse is Pools.RelayResponse on the default pool set.
func RelayResponse(dst io.Writer, resp *Response, src io.Reader, clientProto string, forceClose bool) (int64, error) {
	return defaultPools.RelayResponse(dst, resp, src, clientProto, forceClose)
}
