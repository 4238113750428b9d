package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta, which must be non-negative.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value. The zero value is ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// ClassStats aggregates request outcomes for one content class. All
// fields are independently atomic; the request path touches no lock.
type ClassStats struct {
	Requests Counter
	Bytes    Counter
	Errors   Counter
	Latency  Histogram
}

// Registry groups a node's live metrics: per-class request statistics on
// a copy-on-write read path (class churn is rare, reads are per-request),
// plus named counters, gauges and gauge callbacks for component-specific
// series (cache verdicts, pool occupancy). It encodes itself as
// Prometheus text exposition and as a mergeable JSON snapshot. Construct
// with NewRegistry.
type Registry struct {
	node  string
	clock func() time.Time
	start time.Time

	// classes is a copy-on-write map: readers load and index, the writer
	// clones under classMu and publishes the new map.
	classes atomic.Pointer[map[string]*ClassStats]
	classMu sync.Mutex

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
}

// NewRegistry returns a registry labeled with the owning node's identity.
func NewRegistry(node string) *Registry { return NewRegistryAt(node, time.Now) }

// NewRegistryAt is NewRegistry with an injected clock (uptime and
// snapshot timestamps derive from it; tests pin it for golden output).
func NewRegistryAt(node string, clock func() time.Time) *Registry {
	if clock == nil {
		clock = time.Now
	}
	return &Registry{node: node, clock: clock, start: clock()}
}

// Uptime returns time elapsed since the registry was created.
func (r *Registry) Uptime() time.Duration { return r.clock().Sub(r.start) }

// Class returns the stats bucket for name, creating it on first use. The
// hot path is one atomic load plus a map read; creation takes the writer
// lock and republishes a cloned map (copy-on-write).
func (r *Registry) Class(name string) *ClassStats {
	if m := r.classes.Load(); m != nil {
		if cs, ok := (*m)[name]; ok {
			return cs
		}
	}
	r.classMu.Lock()
	defer r.classMu.Unlock()
	old := r.classes.Load()
	if old != nil {
		if cs, ok := (*old)[name]; ok {
			return cs
		}
	}
	next := make(map[string]*ClassStats)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	cs := &ClassStats{}
	next[name] = cs
	r.classes.Store(&next)
	return cs
}

// Classes returns the registered class names in sorted order.
func (r *Registry) Classes() []string {
	m := r.classes.Load()
	if m == nil {
		return nil
	}
	names := make([]string, 0, len(*m))
	for name := range *m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Counter returns the named counter, creating it on first use. Callers
// hold the returned pointer; registration is not a hot path.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback sampled at exposition/snapshot time —
// the zero-synchronization way to export values another component already
// maintains (cache bytes, pool occupancy).
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gaugeFns == nil {
		r.gaugeFns = make(map[string]func() float64)
	}
	r.gaugeFns[name] = fn
}

// ClassSnapshot is one class's aggregated outcomes in a Snapshot.
type ClassSnapshot struct {
	Requests int64        `json:"requests"`
	Bytes    int64        `json:"bytes"`
	Errors   int64        `json:"errors"`
	Latency  HistSnapshot `json:"latency"`
}

// Snapshot is a point-in-time, JSON-encodable copy of a registry. Every
// field merges additively across nodes (histograms by bucket, counters by
// sum), which is what the controller's single-system-image stats rely on.
type Snapshot struct {
	Node      string                   `json:"node"`
	UptimeSec float64                  `json:"uptimeSec"`
	Counters  map[string]int64         `json:"counters,omitempty"`
	Gauges    map[string]float64       `json:"gauges,omitempty"`
	Classes   map[string]ClassSnapshot `json:"classes,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Node: r.node, UptimeSec: r.Uptime().Seconds()}
	if m := r.classes.Load(); m != nil && len(*m) > 0 {
		s.Classes = make(map[string]ClassSnapshot, len(*m))
		for name, cs := range *m {
			s.Classes[name] = ClassSnapshot{
				Requests: cs.Requests.Value(),
				Bytes:    cs.Bytes.Value(),
				Errors:   cs.Errors.Value(),
				Latency:  cs.Latency.Snapshot(),
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges)+len(r.gaugeFns) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges)+len(r.gaugeFns))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
		for name, fn := range r.gaugeFns {
			s.Gauges[name] = fn()
		}
	}
	return s
}

// exposition quantiles for latency summaries.
var summaryQuantiles = []float64{0.5, 0.9, 0.99}

// WritePrometheus encodes the registry in Prometheus text exposition
// format: per-class requests/bytes/errors as counters, per-class latency
// as a summary (quantile-labeled series plus _sum and _count), and every
// named counter/gauge with the node label attached.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# HELP webcluster_uptime_seconds Seconds since this node's registry was created.\n")
	p("# TYPE webcluster_uptime_seconds gauge\n")
	p("webcluster_uptime_seconds{node=%q} %s\n", r.node, fmtFloat(r.Uptime().Seconds()))

	classes := r.Classes()
	if len(classes) > 0 {
		p("# HELP webcluster_class_requests_total Requests served, by content class.\n")
		p("# TYPE webcluster_class_requests_total counter\n")
		for _, name := range classes {
			p("webcluster_class_requests_total{node=%q,class=%q} %d\n", r.node, name, r.Class(name).Requests.Value())
		}
		p("# HELP webcluster_class_bytes_total Body bytes delivered, by content class.\n")
		p("# TYPE webcluster_class_bytes_total counter\n")
		for _, name := range classes {
			p("webcluster_class_bytes_total{node=%q,class=%q} %d\n", r.node, name, r.Class(name).Bytes.Value())
		}
		p("# HELP webcluster_class_errors_total Error responses (status >= 400), by content class.\n")
		p("# TYPE webcluster_class_errors_total counter\n")
		for _, name := range classes {
			p("webcluster_class_errors_total{node=%q,class=%q} %d\n", r.node, name, r.Class(name).Errors.Value())
		}
		p("# HELP webcluster_class_request_seconds Request service latency, by content class.\n")
		p("# TYPE webcluster_class_request_seconds summary\n")
		for _, name := range classes {
			cs := r.Class(name)
			for _, q := range summaryQuantiles {
				p("webcluster_class_request_seconds{node=%q,class=%q,quantile=%q} %s\n",
					r.node, name, fmtFloat(q), fmtFloat(cs.Latency.Quantile(q).Seconds()))
			}
			p("webcluster_class_request_seconds_sum{node=%q,class=%q} %s\n", r.node, name, fmtFloat(cs.Latency.Sum().Seconds()))
			p("webcluster_class_request_seconds_count{node=%q,class=%q} %d\n", r.node, name, cs.Latency.Count())
		}
	}

	r.mu.Lock()
	counterNames := sortedKeys(r.counters)
	gaugeNames := sortedKeys(r.gauges)
	fnNames := sortedKeys(r.gaugeFns)
	r.mu.Unlock()
	for _, name := range counterNames {
		p("# TYPE %s counter\n", name)
		p("%s{node=%q} %d\n", name, r.node, r.Counter(name).Value())
	}
	for _, name := range gaugeNames {
		p("# TYPE %s gauge\n", name)
		p("%s{node=%q} %s\n", name, r.node, fmtFloat(r.Gauge(name).Value()))
	}
	for _, name := range fnNames {
		r.mu.Lock()
		fn := r.gaugeFns[name]
		r.mu.Unlock()
		p("# TYPE %s gauge\n", name)
		p("%s{node=%q} %s\n", name, r.node, fmtFloat(fn()))
	}
	return err
}

// fmtFloat renders a float the way Prometheus expects (shortest exact
// form, no exponent for typical magnitudes).
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MergeSnapshots folds per-node snapshots into one cluster-wide snapshot:
// counters, class stats and histograms add; gauges add too (the
// meaningful cluster reading for occupancy-style gauges); uptime is the
// maximum (the cluster has been up as long as its oldest node).
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	out := Snapshot{Node: "cluster"}
	for _, s := range snaps {
		if s.UptimeSec > out.UptimeSec {
			out.UptimeSec = s.UptimeSec
		}
		for name, v := range s.Counters {
			if out.Counters == nil {
				out.Counters = make(map[string]int64)
			}
			out.Counters[name] += v
		}
		for name, v := range s.Gauges {
			if out.Gauges == nil {
				out.Gauges = make(map[string]float64)
			}
			out.Gauges[name] += v
		}
		for name, cs := range s.Classes {
			if out.Classes == nil {
				out.Classes = make(map[string]ClassSnapshot)
			}
			agg := out.Classes[name]
			agg.Requests += cs.Requests
			agg.Bytes += cs.Bytes
			agg.Errors += cs.Errors
			agg.Latency.Merge(cs.Latency)
			out.Classes[name] = agg
		}
	}
	return out
}

// ClassSummary is one class's cluster-wide aggregate in a ClusterStats.
type ClassSummary struct {
	Class      string  `json:"class"`
	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	Bytes      int64   `json:"bytes"`
	RatePerSec float64 `json:"ratePerSec"`
	MeanNs     int64   `json:"meanNs"`
	P50Ns      int64   `json:"p50Ns"`
	P90Ns      int64   `json:"p90Ns"`
	P99Ns      int64   `json:"p99Ns"`
	MaxNs      int64   `json:"maxNs"`
}

// ClusterStats is the single-system-image view the console's stats verb
// renders: per-class latency/throughput merged across every node that
// contributed a snapshot.
type ClusterStats struct {
	Sources []string       `json:"sources"`
	Classes []ClassSummary `json:"classes"`
	Merged  Snapshot       `json:"merged"`
}

// Summarize merges snapshots and derives the per-class summary table.
// Rates divide by the longest contributor uptime — the cluster-wide
// requests-per-second reading.
func Summarize(snaps ...Snapshot) ClusterStats {
	merged := MergeSnapshots(snaps...)
	stats := ClusterStats{Merged: merged}
	for _, s := range snaps {
		stats.Sources = append(stats.Sources, s.Node)
	}
	sort.Strings(stats.Sources)
	for _, name := range sortedKeys(merged.Classes) {
		cs := merged.Classes[name]
		sum := ClassSummary{
			Class:    name,
			Requests: cs.Requests,
			Errors:   cs.Errors,
			Bytes:    cs.Bytes,
			MeanNs:   int64(cs.Latency.Mean()),
			P50Ns:    int64(cs.Latency.Quantile(0.5)),
			P90Ns:    int64(cs.Latency.Quantile(0.9)),
			P99Ns:    int64(cs.Latency.Quantile(0.99)),
			MaxNs:    cs.Latency.MaxNs,
		}
		if merged.UptimeSec > 0 {
			sum.RatePerSec = float64(cs.Requests) / merged.UptimeSec
		}
		stats.Classes = append(stats.Classes, sum)
	}
	return stats
}
