package httpx

import (
	"io"
	"strconv"
)

// This file is the package's one serializer: every message's header
// section is staged into a pooled byte slice with the append helpers below
// and handed to the kernel together with the body (or its first chunk) as
// one writev(2) on a TCPConn. strconv's Append functions write into the
// staging buffer's existing capacity, so the hot path allocates nothing.

// appendField appends one "Key: value\r\n" line.
func appendField(b []byte, key, value string) []byte {
	b = append(b, key...)
	b = append(b, ": "...)
	b = append(b, value...)
	return append(b, "\r\n"...)
}

// appendFields appends every field in insertion order, skipping the given
// canonical keys (hop-by-hop or recomputed fields).
func (h Header) appendFields(b []byte, skip1, skip2 string) []byte {
	for i := range h {
		if h[i].Key == skip1 || h[i].Key == skip2 {
			continue
		}
		b = appendField(b, h[i].Key, h[i].Value)
	}
	return b
}

// appendStatusLine appends "proto code status\r\n".
func appendStatusLine(b []byte, proto string, code int, status string) []byte {
	if status == "" {
		status = statusText(code)
	}
	b = append(b, proto...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(code), 10)
	b = append(b, ' ')
	b = append(b, status...)
	return append(b, "\r\n"...)
}

// appendTraceFields appends the in-band tracing headers from resp's
// fields.
func appendTraceFields(b []byte, resp *Response) []byte {
	if resp.TraceID != 0 {
		b = append(b, "X-Dist-Trace: "...)
		b = strconv.AppendUint(b, resp.TraceID, 16)
		b = append(b, "\r\n"...)
	}
	if resp.SpanID != 0 {
		b = append(b, "X-Dist-Span: "...)
		b = strconv.AppendUint(b, resp.SpanID, 16)
		b = append(b, "\r\n"...)
	}
	return b
}

// appendResponseHeader stages the full relayed header section: status
// line, forwarded fields (Connection and Content-Length rewritten, resp
// not mutated), trace fields, the cache verdict if any, and the
// recomputed Content-Length with the terminating blank line.
func appendResponseHeader(b []byte, resp *Response, o RelayOptions) []byte {
	b = appendStatusLine(b, o.Proto, resp.StatusCode, resp.Status)
	b = resp.Header.appendFields(b, "Connection", "Content-Length")
	if o.ForceClose {
		b = append(b, "Connection: close\r\n"...)
	} else if c := resp.Header.Get("Connection"); c != "" {
		b = appendField(b, "Connection", c)
	}
	b = appendTraceFields(b, resp)
	if o.CacheStatus != "" {
		b = appendField(b, "X-Dist-Cache", o.CacheStatus)
	}
	return appendContentLength(b, resp.ContentLength)
}

// appendContentLength appends the recomputed Content-Length field and the
// blank line that ends a response's header section.
func appendContentLength(b []byte, n int64) []byte {
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, n, 10)
	return append(b, "\r\n\r\n"...)
}

// appendRequestHead stages the request line and header section. When
// written as a proxy request (proto differs from req.Proto) the Connection
// header is dropped; when a body is present Content-Length is recomputed.
func appendRequestHead(b []byte, req *Request, proto string) []byte {
	b = append(b, req.Method...)
	b = append(b, ' ')
	b = append(b, req.Target...)
	b = append(b, ' ')
	b = append(b, proto...)
	b = append(b, "\r\n"...)
	skipConn := ""
	if proto != req.Proto {
		skipConn = "Connection"
	}
	if len(req.Body) > 0 {
		b = req.Header.appendFields(b, "Content-Length", skipConn)
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(req.Body)), 10)
		b = append(b, "\r\n"...)
	} else {
		b = req.Header.appendFields(b, skipConn, "")
	}
	if req.TraceID != 0 {
		b = append(b, "X-Dist-Trace: "...)
		b = strconv.AppendUint(b, req.TraceID, 16)
		b = append(b, "\r\n"...)
	}
	if req.Deadline > 0 {
		b = append(b, "X-Dist-Deadline: "...)
		b = AppendDeadline(b, req.Deadline)
		b = append(b, "\r\n"...)
	}
	return append(b, "\r\n"...)
}

// writeVectored writes head then body as one logical write. On a
// *TCPConn both segments go out in one raw writev(2), looped over partial
// writes. Any other writer — fault-injection wrappers, test doubles, TLS —
// takes a sequential path that retries short writes per segment, so a
// writer returning n < len(p) with a nil error (the fault injector's
// MaxWriteChunk does) can never reorder or drop bytes.
func (p *Pools) writeVectored(w io.Writer, head, body []byte) (int64, error) {
	if tc, ok := w.(*TCPConn); ok {
		return tc.writev(head, body)
	}
	var n int64
	for _, seg := range [2][]byte{head, body} {
		for len(seg) > 0 {
			nn, err := w.Write(seg)
			n += int64(nn)
			if err != nil {
				return n, err
			}
			if nn == 0 {
				return n, io.ErrShortWrite
			}
			seg = seg[nn:]
		}
	}
	return n, nil
}
