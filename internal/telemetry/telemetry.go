package telemetry

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a node's telemetry layer.
type Options struct {
	// Node labels every metric sample and span with the owning node.
	Node string
	// RingSize is the span ring capacity (rounded up to a power of two;
	// default 256).
	RingSize int
	// SlowThreshold triggers the slow-request log for spans at or above
	// this total duration; zero disables the log.
	SlowThreshold time.Duration
	// SlowLog receives one line per slow request. Nil disables the log
	// even with a threshold set.
	SlowLog io.Writer
	// Clock overrides time.Now (tests pin it for deterministic spans).
	Clock func() time.Time
}

// Telemetry bundles a node's live observability state: the metrics
// registry, the span ring, the slow-request log, and the span ID source.
// A nil *Telemetry is a valid "tracing off" value — StartSpan returns a
// nil span and every span method is a no-op — so the distributor's
// untraced configuration pays one branch, not an interface call.
type Telemetry struct {
	node    string
	clock   func() time.Time
	reg     *Registry
	ring    *SpanRing
	slowNs  int64
	slowMu  sync.Mutex
	slowLog io.Writer
	seed    uint64
	idc     atomic.Uint64
}

// New builds a telemetry layer from o.
func New(o Options) *Telemetry {
	clock := o.Clock
	if clock == nil {
		clock = time.Now
	}
	ringSize := o.RingSize
	if ringSize <= 0 {
		ringSize = 256
	}
	t := &Telemetry{
		node:    o.Node,
		clock:   clock,
		reg:     NewRegistryAt(o.Node, clock),
		ring:    NewSpanRing(ringSize),
		slowLog: o.SlowLog,
		seed:    uint64(clock().UnixNano()),
	}
	if o.SlowLog != nil && o.SlowThreshold > 0 {
		t.slowNs = int64(o.SlowThreshold)
	}
	return t
}

// Registry returns the node's metrics registry (nil on nil telemetry).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// nextID returns a non-zero well-distributed 64-bit ID.
func (t *Telemetry) nextID() uint64 {
	id := splitmix64(t.seed + t.idc.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// StartSpan begins a request span, drawing from the span pool. traceID
// carries an inbound X-Dist-Trace value to adopt; zero assigns a fresh
// trace ID. Returns nil (a valid no-op span) when t is nil. The caller
// must pass the span to FinishSpan exactly once.
func (t *Telemetry) StartSpan(traceID uint64) *Span {
	if t == nil {
		return nil
	}
	sp := spanPool.Get().(*Span)
	sp.reset()
	if traceID == 0 {
		traceID = t.nextID()
	}
	sp.TraceID = traceID
	sp.SpanID = t.nextID()
	sp.Node = t.node
	sp.clock = t.clock
	now := t.clock()
	sp.begin = now
	sp.last = now
	return sp
}

// FinishSpan closes the span: stamps the total duration, copies it into
// the ring, emits a slow-log line past the threshold, and recycles the
// span. sp must not be used afterwards. Nil t or sp is a no-op.
func (t *Telemetry) FinishSpan(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	sp.StartUnixNano = sp.begin.UnixNano()
	sp.TotalNs = int64(t.clock().Sub(sp.begin))
	t.ring.record(sp)
	if t.slowNs > 0 && sp.TotalNs >= t.slowNs {
		t.logSlow(sp)
	}
	sp.reset()
	spanPool.Put(sp)
}

// logSlow writes one human-readable line for a span past the slow
// threshold. Rare by construction, so the formatting allocations are
// acceptable.
func (t *Telemetry) logSlow(sp *Span) {
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	fmt.Fprintf(t.slowLog,
		"slow request trace=%016x node=%s %s %s class=%s status=%d total=%v parse=%v route=%v cache=%v backend=%v reply=%v via=%s\n",
		sp.TraceID, sp.Node, sp.Method, sp.Path, sp.Class, sp.Status,
		time.Duration(sp.TotalNs), time.Duration(sp.ParseNs), time.Duration(sp.RouteNs),
		time.Duration(sp.CacheNs), time.Duration(sp.BackendNs), time.Duration(sp.ReplyNs),
		sp.Backend)
}

// Spans returns up to limit recent spans, newest first (nil telemetry
// returns nil).
func (t *Telemetry) Spans(limit int) []Span {
	if t == nil {
		return nil
	}
	return t.ring.Snapshot(limit)
}

// Report is the unit the management plane scrapes from a node: a full
// metrics snapshot plus the slowest recent spans.
type Report struct {
	Snapshot Snapshot `json:"snapshot"`
	Spans    []Span   `json:"spans,omitempty"`
}

// Report captures a scrape-ready view: the registry snapshot and the
// maxSpans slowest spans currently in the ring.
func (t *Telemetry) Report(maxSpans int) Report {
	if t == nil {
		return Report{}
	}
	spans := t.ring.Snapshot(0)
	sortSpansBySlowest(spans)
	if maxSpans > 0 && len(spans) > maxSpans {
		spans = spans[:maxSpans]
	}
	return Report{Snapshot: t.reg.Snapshot(), Spans: spans}
}

// sortSpansBySlowest orders spans by descending total duration.
func sortSpansBySlowest(spans []Span) {
	// Insertion sort: rings are small (<=1024) and scrapes are rare.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].TotalNs > spans[j-1].TotalNs; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}

// MergeSpans interleaves per-node span lists into one slowest-first list
// capped at limit (<=0 means no cap) — the console's cluster-wide traces
// view.
func MergeSpans(limit int, lists ...[]Span) []Span {
	var all []Span
	for _, l := range lists {
		all = append(all, l...)
	}
	sortSpansBySlowest(all)
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all
}
