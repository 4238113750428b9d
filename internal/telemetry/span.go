package telemetry

import (
	"sync"
	"time"
)

// Span is one request's timing breakdown through the distributor: parse →
// route → cache → backend → reply. Spans are pooled — the distributor
// obtains one from StartSpan, threads it through the relay, and returns
// it via FinishSpan, which copies it by value into the ring and recycles
// the allocation. All mutating methods are nil-receiver safe so untraced
// paths (nil telemetry) cost a single predictable branch.
//
// Phase fields accumulate (+=) rather than assign, so a retried backend
// exchange charges both attempts to BackendNs.
type Span struct {
	TraceID uint64 `json:"traceId"`
	SpanID  uint64 `json:"spanId"`
	Node    string `json:"node"`
	Method  string `json:"method,omitempty"`
	Path    string `json:"path,omitempty"`
	Class   string `json:"class,omitempty"`
	Status  int    `json:"status,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	// Cache is the cache verdict ("hit", "miss", "stale", ...), empty when
	// the response cache was not consulted.
	Cache string `json:"cache,omitempty"`
	// Backend is the node that served the request; BackendSpan is the span
	// ID the backend echoed on the X-Dist-Span response header.
	Backend     string `json:"backend,omitempty"`
	BackendSpan uint64 `json:"backendSpan,omitempty"`
	// Outcome classifies how the request ended: "relayed", "cached",
	// "no-route", "no-replica", "bad-gateway", "parse-error".
	Outcome string `json:"outcome,omitempty"`

	StartUnixNano int64 `json:"startUnixNano"`
	ParseNs       int64 `json:"parseNs,omitempty"`
	RouteNs       int64 `json:"routeNs,omitempty"`
	CacheNs       int64 `json:"cacheNs,omitempty"`
	BackendNs     int64 `json:"backendNs,omitempty"`
	ReplyNs       int64 `json:"replyNs,omitempty"`
	TotalNs       int64 `json:"totalNs"`

	clock func() time.Time
	begin time.Time
	last  time.Time
}

func (s *Span) reset() {
	*s = Span{}
}

// advance returns nanoseconds since the previous phase mark and moves the
// mark to now.
func (s *Span) advance() int64 {
	now := s.clock()
	d := now.Sub(s.last)
	s.last = now
	return int64(d)
}

// MarkParse charges time since the span started to the parse phase.
func (s *Span) MarkParse() {
	if s == nil {
		return
	}
	s.ParseNs += s.advance()
}

// MarkRoute charges elapsed time to URL-table routing + replica choice.
func (s *Span) MarkRoute() {
	if s == nil {
		return
	}
	s.RouteNs += s.advance()
}

// MarkCache charges elapsed time to the response-cache lookup.
func (s *Span) MarkCache() {
	if s == nil {
		return
	}
	s.CacheNs += s.advance()
}

// MarkBackend charges elapsed time to the backend dial/exchange.
func (s *Span) MarkBackend() {
	if s == nil {
		return
	}
	s.BackendNs += s.advance()
}

// MarkReply charges elapsed time to writing the reply to the client.
func (s *Span) MarkReply() {
	if s == nil {
		return
	}
	s.ReplyNs += s.advance()
}

// AdoptTrace replaces the span's assigned trace ID with an inbound
// in-band one (no-op when traceID is zero or the span is nil).
func (s *Span) AdoptTrace(traceID uint64) {
	if s == nil || traceID == 0 {
		return
	}
	s.TraceID = traceID
}

// SetRequest records the request line.
func (s *Span) SetRequest(method, path string) {
	if s == nil {
		return
	}
	s.Method, s.Path = method, path
}

// SetClass records the content class the request resolved to.
func (s *Span) SetClass(class string) {
	if s == nil {
		return
	}
	s.Class = class
}

// SetStatus records the response status code.
func (s *Span) SetStatus(code int) {
	if s == nil {
		return
	}
	s.Status = code
}

// SetBytes records body bytes delivered to the client.
func (s *Span) SetBytes(n int64) {
	if s == nil {
		return
	}
	s.Bytes = n
}

// SetCache records the cache verdict.
func (s *Span) SetCache(state string) {
	if s == nil {
		return
	}
	s.Cache = state
}

// SetBackend records the serving node and its echoed span ID.
func (s *Span) SetBackend(node string, spanID uint64) {
	if s == nil {
		return
	}
	s.Backend, s.BackendSpan = node, spanID
}

// SetOutcome classifies how the request ended.
func (s *Span) SetOutcome(outcome string) {
	if s == nil {
		return
	}
	s.Outcome = outcome
}

// ID returns the span's trace ID (0 on a nil span), for stamping onto the
// forwarded request.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.TraceID
}

var spanPool = sync.Pool{New: func() any { return new(Span) }}
