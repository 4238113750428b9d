package sim

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"

	"webcluster/internal/admission"
)

// TimelinePoint is one aggregation interval of a scenario replay.
type TimelinePoint struct {
	// Index is the interval's ordinal (0-based).
	Index int
	// Start and End bound the interval in (post-TimeScale) virtual time.
	Start, End time.Duration
	// Requests and Errors count completions inside the interval.
	Requests, Errors int64
	// RPS is Requests divided by the interval width.
	RPS float64
	// P50 and P99 are response-time quantiles over the interval.
	P50, P99 time.Duration
	// LoadCV is the coefficient of variation of per-node §3.3 load
	// (down nodes excluded): 0 is perfectly even.
	LoadCV float64
	// Replicas is the total content copy count at interval close.
	Replicas int
	// CacheHitRate is the interval's page-cache hit rate across nodes.
	CacheHitRate float64
	// DownNodes is how many nodes were out of service at interval close.
	DownNodes int
	// ClassP99 holds per-SLO-class p99 latency over served requests
	// (indexed by admission.Class: critical, interactive, batch). Zero for a
	// class with no traffic in the interval.
	ClassP99 [admission.NumClasses]time.Duration
	// ClassShed counts requests refused by admission control per class.
	ClassShed [admission.NumClasses]int64
	// StaleServed counts interactive requests degraded to front-end
	// stale answers during the interval.
	StaleServed int64
}

// DecisionPoint is one planner decision taken during a replay, with the
// planner inputs that produced it — the simulated counterpart of the
// live cluster's decision journal.
type DecisionPoint struct {
	// Interval is the index of the interval whose close triggered the
	// planning round.
	Interval int
	// At is the virtual time of the round.
	At time.Duration
	// Kind is "replicate" or "offload".
	Kind string
	// Path is the document moved.
	Path string
	// Source and Target are the chosen nodes ("" where not applicable).
	Source, Target string
	// Hits is the document's interval demand reading.
	Hits int64
	// LoadCV is the cluster imbalance the planner ran against.
	LoadCV float64
	// SourceLoad and TargetLoad are the chosen nodes' load readings.
	SourceLoad, TargetLoad float64
	// Reason names the planner branch that produced the decision.
	Reason string
	// Rejected joins the alternatives passed over with ";".
	Rejected string
	// Applied reports whether the table mutation succeeded.
	Applied bool
}

// Timeline is the full per-interval series of one scenario replay.
type Timeline struct {
	// Name echoes the spec's scenario name.
	Name string
	// Interval is the aggregation granularity (post-TimeScale).
	Interval time.Duration
	// TimeScale is the compression the spec requested.
	TimeScale float64
	// VirtualDuration is the replayed virtual span (post-TimeScale).
	VirtualDuration time.Duration
	// Points are the intervals in order.
	Points []TimelinePoint
	// Decisions are the planner decisions in order (AutoBalance replays
	// only; empty otherwise). They are emitted as a separate CSV —
	// WriteDecisionsCSV — so the interval timeline format stays fixed.
	Decisions []DecisionPoint
	// TotalRequests and TotalErrors sum over all intervals.
	TotalRequests, TotalErrors int64
	// EventsExecuted is the engine's event count, a proxy for how much
	// work the replay cost.
	EventsExecuted uint64
}

// TimelineCSVHeader is the emitted column set. Each row is one interval:
// times in seconds of virtual time, latencies in milliseconds.
const TimelineCSVHeader = "interval,start_s,end_s,requests,errors,rps,p50_ms,p99_ms,load_cv,replicas,cache_hit,down_nodes," +
	"crit_p99_ms,inter_p99_ms,batch_p99_ms,crit_shed,inter_shed,batch_shed,stale_served"

// WriteCSV emits the timeline in the fixed format the benchfigs tooling
// plots. Output is byte-deterministic for a deterministic timeline.
func (t *Timeline) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, TimelineCSVHeader)
	for _, p := range t.Points {
		fmt.Fprintf(bw, "%d,%.3f,%.3f,%d,%d,%.3f,%.3f,%.3f,%.4f,%d,%.4f,%d,%.3f,%.3f,%.3f,%d,%d,%d,%d\n",
			p.Index,
			p.Start.Seconds(), p.End.Seconds(),
			p.Requests, p.Errors,
			p.RPS,
			float64(p.P50)/float64(time.Millisecond),
			float64(p.P99)/float64(time.Millisecond),
			p.LoadCV,
			p.Replicas,
			p.CacheHitRate,
			p.DownNodes,
			float64(p.ClassP99[admission.Critical])/float64(time.Millisecond),
			float64(p.ClassP99[admission.Interactive])/float64(time.Millisecond),
			float64(p.ClassP99[admission.Batch])/float64(time.Millisecond),
			p.ClassShed[admission.Critical],
			p.ClassShed[admission.Interactive],
			p.ClassShed[admission.Batch],
			p.StaleServed,
		)
	}
	return bw.Flush()
}

// DecisionsCSVHeader is the column set of the planner-decision CSV. One
// row per decision; times in seconds of virtual time.
const DecisionsCSVHeader = "interval,at_s,kind,path,source,target,hits,load_cv,source_load,target_load,reason,rejected,applied"

// WriteDecisionsCSV emits the planner-decision journal of the replay.
// Output is byte-deterministic for a deterministic timeline.
func (t *Timeline) WriteDecisionsCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, DecisionsCSVHeader)
	for _, d := range t.Decisions {
		applied := 0
		if d.Applied {
			applied = 1
		}
		fmt.Fprintf(bw, "%d,%.3f,%s,%s,%s,%s,%d,%.4f,%.4f,%.4f,%s,%s,%d\n",
			d.Interval,
			d.At.Seconds(),
			d.Kind,
			d.Path,
			d.Source, d.Target,
			d.Hits,
			d.LoadCV,
			d.SourceLoad, d.TargetLoad,
			d.Reason,
			d.Rejected,
			applied,
		)
	}
	return bw.Flush()
}

// Throughput returns overall requests/second across the whole replay.
func (t *Timeline) Throughput() float64 {
	if t.VirtualDuration <= 0 {
		return 0
	}
	return float64(t.TotalRequests) / t.VirtualDuration.Seconds()
}

// MeanRPS averages the per-interval throughput of points [from, to)
// (negative to means len(Points)). Intervals outside the range are
// ignored; an empty range returns 0.
func (t *Timeline) MeanRPS(from, to int) float64 {
	if to < 0 || to > len(t.Points) {
		to = len(t.Points)
	}
	if from < 0 {
		from = 0
	}
	if from >= to {
		return 0
	}
	var sum float64
	for _, p := range t.Points[from:to] {
		sum += p.RPS
	}
	return sum / float64(to-from)
}

// Summary formats the headline numbers for CLI output.
func (t *Timeline) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %q: %v virtual", t.Name, t.VirtualDuration)
	if t.TimeScale != 1 {
		fmt.Fprintf(&b, " (time scale %gx)", t.TimeScale)
	}
	fmt.Fprintf(&b, ", %d intervals of %v\n", len(t.Points), t.Interval)
	fmt.Fprintf(&b, "  %d requests (%.1f req/s), %d errors, %d engine events\n",
		t.TotalRequests, t.Throughput(), t.TotalErrors, t.EventsExecuted)
	if n := len(t.Points); n > 0 {
		var maxP99 time.Duration
		for _, p := range t.Points {
			if p.P99 > maxP99 {
				maxP99 = p.P99
			}
		}
		fmt.Fprintf(&b, "  first interval %.1f req/s, last %.1f req/s, worst p99 %v\n",
			t.Points[0].RPS, t.Points[n-1].RPS, maxP99.Round(100*time.Microsecond))
	}
	return b.String()
}
