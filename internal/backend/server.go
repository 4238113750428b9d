package backend

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"webcluster/internal/cache"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/faults"
	"webcluster/internal/httpx"
	"webcluster/internal/lifecycle"
	"webcluster/internal/telemetry"
)

// DynamicHandler produces the response body for a dynamic request. The
// returned cpuCost (abstract work units) feeds the node's service-delay
// model and the §3.3 load metric.
type DynamicHandler func(req *httpx.Request) (body []byte, cpuCost float64, err error)

// ServedRequest describes one request the delay model prices.
type ServedRequest struct {
	Class    content.Class
	Size     int64
	CPUCost  float64
	CacheHit bool
}

// DelayFunc converts a served request into artificial service time,
// letting examples emulate heterogeneous hardware on one machine. A nil
// DelayFunc means no added delay.
type DelayFunc func(ServedRequest) time.Duration

// ServerOptions configures a back-end server.
type ServerOptions struct {
	// Spec identifies the node and sizes its page cache.
	Spec config.NodeSpec
	// Store holds the node's placed content.
	Store Store
	// PageCacheBytes bounds the memory page cache; 0 derives ~60% of
	// MemoryMB (the share of RAM an OS page cache typically claims).
	PageCacheBytes int64
	// Delay injects emulated service time; nil for none.
	Delay DelayFunc
	// Faults, when non-nil, injects connection faults at the accept path
	// (points "backend.accept/<id>" for refusal and "backend.conn/<id>"
	// for per-connection stream faults). Tests only.
	Faults *faults.Injector
	// Telemetry overrides the node's telemetry layer (admin listeners
	// share it with the broker). Nil builds a default one — per-class
	// stats and service spans are always live on a back end.
	Telemetry *telemetry.Telemetry
}

// Server is one back-end web-server node. Construct with NewServer.
type Server struct {
	spec      config.NodeSpec
	store     Store
	pageCache *cache.LRU
	delay     DelayFunc
	faults    *faults.Injector

	mu       sync.Mutex
	handlers map[string]DynamicHandler // keyed by exact path
	prefixes []prefixHandler           // checked in registration order

	tel   *telemetry.Telemetry
	stats *telemetry.Registry

	life lifecycle.Group

	// active tracks in-flight requests, the L4 routers' "connections"
	// load signal.
	active telemetry.Counter
	done   telemetry.Counter

	// Deadline enforcement (in-band X-Dist-Deadline): requests already
	// overdue on arrival are rejected before any work; requests whose
	// deadline lapses inside the emulated service time are canceled
	// mid-work. Both outcomes are 503s the distributor never retries
	// against another replica — the client has given up either way.
	deadlineRejected *telemetry.Counter
	deadlineCanceled *telemetry.Counter
}

type prefixHandler struct {
	prefix  string
	handler DynamicHandler
}

// NewServer constructs a node server.
func NewServer(opts ServerOptions) (*Server, error) {
	if opts.Store == nil {
		return nil, errors.New("backend: nil store")
	}
	if err := opts.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	cacheBytes := opts.PageCacheBytes
	if cacheBytes == 0 {
		cacheBytes = int64(opts.Spec.MemoryMB) * 1024 * 1024 * 6 / 10
	}
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.New(telemetry.Options{Node: string(opts.Spec.ID)})
	}
	stats := tel.Registry()
	s := &Server{
		spec:      opts.Spec,
		store:     opts.Store,
		pageCache: cache.NewLRU(cacheBytes),
		delay:     opts.Delay,
		faults:    opts.Faults,
		tel:       tel,
		stats:     stats,
		handlers:  make(map[string]DynamicHandler),

		deadlineRejected: stats.Counter("backend_deadline_rejected"),
		deadlineCanceled: stats.Counter("backend_deadline_canceled"),
	}
	s.life.Wrap = func(c net.Conn) net.Conn { return s.faults.Conn("backend.conn/"+string(s.spec.ID), c) }
	return s, nil
}

// Spec returns the node's hardware description.
func (s *Server) Spec() config.NodeSpec { return s.spec }

// Store exposes the node's content store (the broker operates on it).
func (s *Server) Store() Store { return s.store }

// PageCacheStats reports page-cache effectiveness.
func (s *Server) PageCacheStats() cache.Stats { return s.pageCache.Stats() }

// InvalidateCache drops a path from the page cache. Management agents
// call this after mutating the store so the node never serves stale bytes
// (the file-system change that would invalidate an OS page cache).
func (s *Server) InvalidateCache(path string) { s.pageCache.Remove(path) }

// Stats exposes per-class request statistics.
func (s *Server) Stats() *telemetry.Registry { return s.stats }

// Telemetry exposes the node's telemetry layer (the broker serves it to
// the controller's single-system-image scrapes).
func (s *Server) Telemetry() *telemetry.Telemetry { return s.tel }

// ActiveRequests returns in-flight requests minus completions — the
// instantaneous connection count load metrics use.
func (s *Server) ActiveRequests() int64 { return s.active.Value() - s.done.Value() }

// HandleFunc registers a dynamic handler for an exact path.
func (s *Server) HandleFunc(path string, h DynamicHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[path] = h
}

// HandlePrefix registers a dynamic handler for every path under prefix.
func (s *Server) HandlePrefix(prefix string, h DynamicHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prefixes = append(s.prefixes, prefixHandler{prefix: prefix, handler: h})
}

// lookupHandler finds a registered dynamic handler for path.
func (s *Server) lookupHandler(path string) (DynamicHandler, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.handlers[path]; ok {
		return h, true
	}
	for _, ph := range s.prefixes {
		if strings.HasPrefix(path, ph.prefix) {
			return ph.handler, true
		}
	}
	return nil, false
}

// Handle serves one parsed request and returns the response. This is the
// request path shared by the network front end and in-process callers
// (tests, the simulator's real-logic cross-checks).
func (s *Server) Handle(req *httpx.Request) *httpx.Response {
	s.active.Inc()
	defer s.done.Inc()
	start := time.Now()
	resp := s.serve(req)
	if req.Method == "HEAD" {
		// The header a GET would get, Content-Length included; no body.
		resp.Body = nil
	}
	class := content.Classify(req.Path).String()
	cs := s.stats.Class(class)
	cs.Requests.Inc()
	cs.Bytes.Add(int64(len(resp.Body)))
	cs.Latency.Observe(time.Since(start))
	if resp.StatusCode >= 400 {
		cs.Errors.Inc()
	}
	return resp
}

// serve produces the response for req.
func (s *Server) serve(req *httpx.Request) *httpx.Response {
	if req.Method != "GET" && req.Method != "POST" && req.Method != "HEAD" {
		return httpx.NewResponse(req.Proto, 400, []byte("unsupported method\n"))
	}
	// In-band deadline (X-Dist-Deadline): work the client has already
	// abandoned is refused before costing anything.
	deadline := req.DeadlineTime()
	if req.DeadlineExpired(time.Now()) {
		s.deadlineRejected.Inc()
		return s.deadlineExceeded(req)
	}
	class := content.Classify(req.Path)

	if h, ok := s.lookupHandler(req.Path); ok {
		body, cpuCost, err := h(req)
		if err != nil {
			return httpx.NewResponse(req.Proto, 500, []byte(err.Error()+"\n"))
		}
		if !s.sleepFor(ServedRequest{Class: class, Size: int64(len(body)), CPUCost: cpuCost}, deadline) {
			s.deadlineCanceled.Inc()
			return s.deadlineExceeded(req)
		}
		resp := httpx.NewResponse(req.Proto, 200, body)
		resp.Header.Set("Content-Type", "text/html")
		resp.Header.Set("X-Served-By", string(s.spec.ID))
		return resp
	}

	// Static path: page cache first, then the store ("disk").
	var (
		body []byte
		hit  bool
	)
	if v, ok := s.pageCache.Get(req.Path); ok {
		b, okb := v.(cache.Bytes)
		if okb {
			body, hit = []byte(b), true
		}
	}
	if !hit {
		data, err := s.store.Fetch(req.Path)
		if err != nil {
			if errors.Is(err, ErrNotStored) {
				return httpx.NewResponse(req.Proto, 404, []byte("not found: "+req.Path+"\n"))
			}
			return httpx.NewResponse(req.Proto, 500, []byte(err.Error()+"\n"))
		}
		body = data
		s.pageCache.Put(req.Path, cache.Bytes(data))
	}
	if !s.sleepFor(ServedRequest{Class: class, Size: int64(len(body)), CacheHit: hit}, deadline) {
		s.deadlineCanceled.Inc()
		return s.deadlineExceeded(req)
	}
	// Conditional requests (the distributor revalidating a cached entry,
	// or a client with a cached copy): the validator is computed only when
	// a conditional header is present, keeping the unconditional path free
	// of the content hash. The store tracks no modification times, so the
	// entity tag is the sole validator.
	var etag string
	if req.Header.Get("If-None-Match") != "" || req.Header.Get("If-Modified-Since") != "" {
		etag = httpx.StrongETag(body)
		if httpx.NotModified(req.Header, etag, time.Time{}) {
			resp := httpx.NewResponse(req.Proto, 304, nil)
			resp.Header.Set("Etag", etag)
			resp.Header.Set("X-Served-By", string(s.spec.ID))
			return resp
		}
	}
	resp := httpx.NewResponse(req.Proto, 200, body)
	resp.Header.Set("X-Served-By", string(s.spec.ID))
	resp.Header.Set("X-Cache", map[bool]string{true: "HIT", false: "MISS"}[hit])
	if etag != "" {
		resp.Header.Set("Etag", etag)
	}
	return resp
}

// SetDelay replaces the emulated service-time function at runtime.
func (s *Server) SetDelay(d DelayFunc) {
	s.mu.Lock()
	s.delay = d
	s.mu.Unlock()
}

// sleepFor applies the emulated service delay, canceling at deadline: it
// reports false when the propagated deadline lapsed before the service
// time completed — the caller abandons the request instead of finishing
// work nobody is waiting for. A zero deadline never cancels.
func (s *Server) sleepFor(r ServedRequest, deadline time.Time) bool {
	s.mu.Lock()
	delay := s.delay
	s.mu.Unlock()
	if delay == nil {
		return true
	}
	d := delay(r)
	if d <= 0 {
		return true
	}
	if !deadline.IsZero() {
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		if d >= remain {
			// Sleep only the remaining budget, then cancel: the in-flight
			// handler stops the moment the client's wait expires.
			time.Sleep(remain)
			return false
		}
	}
	time.Sleep(d)
	return true
}

// deadlineExceeded is the terminal response for overdue work.
func (s *Server) deadlineExceeded(req *httpx.Request) *httpx.Response {
	resp := httpx.NewResponse(req.Proto, 503, []byte("deadline exceeded\n"))
	resp.Header.Set("X-Served-By", string(s.spec.ID))
	return resp
}

// Start listens on addr and serves in the background, returning the bound
// address (use ":0" to pick a free port).
func (s *Server) Start(addr string) (string, error) {
	bound, err := s.life.Listen(addr, s.serveConn)
	if err != nil {
		return "", fmt.Errorf("backend %s: listen: %w", s.spec.ID, err)
	}
	return bound, nil
}

// serveConn runs the keep-alive request loop for one connection.
func (s *Server) serveConn(conn net.Conn) {
	if s.faults.Fail("backend.accept/"+string(s.spec.ID)) != nil {
		return // refused: the peer sees an immediate close
	}
	// Pooled reader and request: the keep-alive loop parses every request
	// on this connection without allocating, and response bodies are
	// aliased slices of the page cache / store (WriteResponse does not
	// copy them), so a static hit is served with zero per-request copies.
	br := httpx.AcquireReader(conn)
	defer httpx.ReleaseReader(br)
	req := httpx.AcquireRequest()
	defer httpx.ReleaseRequest(req)
	for {
		err := httpx.ReadRequestInto(br, req)
		if err != nil {
			if !errors.Is(err, io.EOF) && !isClosedConn(err) {
				resp := httpx.NewResponse(httpx.Proto10, 400, []byte("bad request\n"))
				_ = httpx.WriteResponse(conn, resp)
			}
			return
		}
		// A traced request (in-band X-Dist-Trace) gets a service span in
		// this node's ring; the response echoes the trace ID plus this
		// span's ID so the distributor can stitch the two together.
		var sp *telemetry.Span
		if req.TraceID != 0 {
			sp = s.tel.StartSpan(req.TraceID)
			sp.SetRequest(req.Method, req.Path)
		}
		resp := s.Handle(req)
		if sp != nil {
			sp.MarkBackend()
			sp.SetClass(content.Classify(req.Path).String())
			sp.SetStatus(resp.StatusCode)
			sp.SetBytes(int64(len(resp.Body)))
			sp.SetOutcome("served")
			resp.TraceID = sp.TraceID
			resp.SpanID = sp.SpanID
		}
		keep := req.KeepAlive()
		if !keep {
			resp.Header.Set("Connection", "close")
		}
		werr := httpx.WriteResponse(conn, resp)
		if sp != nil {
			sp.MarkReply()
			s.tel.FinishSpan(sp)
		}
		if werr != nil {
			return
		}
		if !keep {
			return
		}
	}
}

// Close stops accepting, closes the listener and joins the connection
// goroutines. Safe to call multiple times.
func (s *Server) Close() error { return s.life.Close() }

// isClosedConn reports whether err is the use-of-closed-connection error
// raised when the listener or a peer shuts mid-read.
func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed) ||
		strings.Contains(err.Error(), "connection reset by peer") ||
		strings.Contains(err.Error(), "broken pipe")
}
