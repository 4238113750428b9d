package telemetry

import (
	"time"

	"webcluster/internal/ring"
)

// Options configures a node's telemetry layer.
type Options struct {
	// Node labels every metric sample and span with the owning node.
	Node string
	// Clock overrides time.Now (tests pin it for deterministic spans).
	Clock func() time.Time
}

// spanRingCap is how many finished spans a node keeps.
const spanRingCap = 256

// Telemetry bundles a node's live observability state: the metrics
// registry, the span ring, and the span ID source. A nil *Telemetry is a
// valid "tracing off" value — StartSpan returns a nil span and every span
// method is a no-op — so the distributor's untraced configuration pays
// one branch, not an interface call.
type Telemetry struct {
	node  string
	clock func() time.Time
	reg   *Registry
	ring  *ring.Ring[Span]
	ids   ring.IDs
}

// New builds a telemetry layer from o.
func New(o Options) *Telemetry {
	clock := o.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Telemetry{
		node:  o.Node,
		clock: clock,
		reg:   NewRegistryAt(o.Node, clock),
		ring:  ring.New[Span](spanRingCap),
		ids:   ring.IDs{Seed: uint64(clock().UnixNano())},
	}
}

// Registry returns the node's metrics registry (nil on nil telemetry).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
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
		traceID = t.ids.Next()
	}
	sp.TraceID = traceID
	sp.SpanID = t.ids.Next()
	sp.Node = t.node
	sp.clock = t.clock
	now := t.clock()
	sp.begin = now
	sp.last = now
	return sp
}

// FinishSpan closes the span: stamps the total duration, copies it into
// the ring, and recycles the span. sp must not be used afterwards. Nil t
// or sp is a no-op.
func (t *Telemetry) FinishSpan(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	sp.StartUnixNano = sp.begin.UnixNano()
	sp.TotalNs = int64(t.clock().Sub(sp.begin))
	t.ring.Put(t.ring.Next(), sp)
	sp.reset()
	spanPool.Put(sp)
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
	// Insertion sort: the ring holds 256 spans and scrapes are rare.
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
