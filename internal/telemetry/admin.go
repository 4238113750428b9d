package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"webcluster/internal/httpx"
	"webcluster/internal/lifecycle"
)

// The admin server's per-connection bounds: a request, keep-alive idle
// time included, must arrive within adminReadTimeout, and its answer must
// be written — a profile's duration included — within adminWriteTimeout.
const (
	adminReadTimeout  = 10 * time.Second
	adminWriteTimeout = 30 * time.Second
)

// AdminServer is the node-local observability endpoint: GET /metrics
// (Prometheus text exposition), /debug/traces (recent spans oldest-first
// by start time, ?limit=N), /healthz, and the runtime's profiles under
// /debug/pprof/ (pprof.go). It serves read-only views — the node's
// decision journal and the merged cluster statistics are on the
// management console. Like every other listener in the tree it runs on a
// lifecycle.Group and the httpx parser and serializer, so a process
// links one HTTP stack.
type AdminServer struct {
	tel  *Telemetry
	life lifecycle.Group
}

// NewAdmin builds an admin server over t.
func NewAdmin(t *Telemetry) *AdminServer {
	return &AdminServer{tel: t}
}

// Start listens on addr and serves in the background; returns the bound
// address. Start after Close, or a second Start, fails and leaves no
// listener.
func (a *AdminServer) Start(addr string) (string, error) {
	bound, err := a.life.Listen(addr, a.serveConn)
	if err != nil {
		return "", fmt.Errorf("admin: listen: %w", err)
	}
	return bound, nil
}

// Close stops the listener, closes every connection, ends a profile in
// flight and waits for the connection goroutines. It is idempotent and
// safe before Start.
func (a *AdminServer) Close() error { return a.life.Close() }

// serveConn runs the keep-alive request loop for one connection, as the
// back end's serveConn does: one reader, one Request, one Response and
// one body buffer for every exchange on it.
func (a *AdminServer) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	req := &httpx.Request{}
	resp := &httpx.Response{}
	var body bytes.Buffer
	for {
		_ = conn.SetReadDeadline(time.Now().Add(adminReadTimeout))
		err := httpx.ReadRequestInto(br, req)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, net.ErrClosed) {
				return
			}
			_ = conn.SetWriteDeadline(time.Now().Add(adminWriteTimeout))
			if errors.Is(err, httpx.ErrHeaderTooLarge) {
				resp.Reset(httpx.Proto10, 431, []byte("request header fields too large\n"))
			} else {
				resp.Reset(httpx.Proto10, 400, []byte("bad request\n"))
			}
			_ = httpx.WriteResponse(conn, resp)
			return
		}
		_ = conn.SetWriteDeadline(time.Now().Add(adminWriteTimeout))
		body.Reset()
		code, ctype := a.route(req, &body)
		resp.Reset(req.Proto, code, body.Bytes())
		resp.Header.Set("Content-Type", ctype)
		if code == 405 {
			resp.Header.Set("Allow", "GET")
		}
		keep := req.KeepAlive()
		if !keep {
			resp.Header.Set("Connection", "close")
		}
		if httpx.WriteResponse(conn, resp) != nil || !keep {
			return
		}
	}
}

// textPlain is the content type of every plain-text answer but /metrics.
const textPlain = "text/plain; charset=utf-8"

// route writes req's answer into w and returns its status and content
// type.
func (a *AdminServer) route(req *httpx.Request, w *bytes.Buffer) (int, string) {
	if req.Method != "GET" {
		w.WriteString("method not allowed\n")
		return 405, textPlain
	}
	q, err := url.ParseQuery(req.Query)
	if err != nil {
		w.WriteString("bad query\n")
		return 400, textPlain
	}
	switch req.Path {
	case "/metrics":
		_ = a.tel.Registry().WritePrometheus(w)
		return 200, "text/plain; version=0.0.4; charset=utf-8"
	case "/debug/traces":
		return a.traces(q, w)
	case "/healthz":
		w.WriteString("ok\n")
		return 200, "text/plain"
	}
	if name, ok := strings.CutPrefix(req.Path, "/debug/pprof/"); ok {
		return a.pprof(name, q, w)
	}
	w.WriteString("404 page not found\n")
	return 404, textPlain
}

// traces answers /debug/traces?limit=N.
func (a *AdminServer) traces(q url.Values, w *bytes.Buffer) (int, string) {
	limit := 0
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			w.WriteString("bad limit\n")
			return 400, textPlain
		}
		limit = n
	}
	// The span ring returns entries in ring order, which is arbitrary
	// once the ring has wrapped; sort by start time so readers see the
	// actual request chronology.
	spans := a.tel.Spans(limit)
	sort.SliceStable(spans, func(i, j int) bool {
		return spans[i].StartUnixNano < spans[j].StartUnixNano
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(spans)
	return 200, "application/json"
}
