// Package monitor provides node status reporting and failure detection:
// the broker-side status snapshot the status agent returns, and the
// controller-side watcher that periodically probes brokers and reports
// nodes that stop answering (§3.1: the broker "monitors the status — load
// situation, failure — of the managed node").
package monitor

import (
	"sync"
	"time"

	"webcluster/internal/faults"
	"webcluster/internal/journal"
	"webcluster/internal/lifecycle"
)

// NodeStatus is one node's health/load snapshot.
type NodeStatus struct {
	Node           string  `json:"node"`
	ActiveRequests int64   `json:"activeRequests"`
	StoreObjects   int     `json:"storeObjects"`
	StoreBytes     int64   `json:"storeBytes"`
	CacheHits      int64   `json:"cacheHits"`
	CacheMisses    int64   `json:"cacheMisses"`
	CacheHitRate   float64 `json:"cacheHitRate"`
	RequestsServed int64   `json:"requestsServed"`
	// Service-latency quantiles aggregated across every content class,
	// from the node's live telemetry histograms.
	LatencyP50Ns int64     `json:"latencyP50Ns,omitempty"`
	LatencyP99Ns int64     `json:"latencyP99Ns,omitempty"`
	CollectedAt  time.Time `json:"collectedAt"`
}

// Prober checks one node, returning its status or an error when the node
// is unreachable.
type Prober func(node string) (NodeStatus, error)

// Event is a liveness transition.
type Event struct {
	Node string
	// Up is true on recovery, false on failure.
	Up bool
	// Err is the probe failure on a down event.
	Err error
}

// Watcher periodically probes a set of nodes and emits liveness
// transitions. Construct with NewWatcher; Start launches the loop; Close
// joins it.
type Watcher struct {
	probe    Prober
	interval time.Duration
	onEvent  func(Event)
	faults   *faults.Injector
	jnl      *journal.Journal

	mu     sync.Mutex
	nodes  []string
	alive  map[string]bool
	status map[string]NodeStatus

	life lifecycle.Group
}

// NewWatcher builds a watcher probing nodes at interval (default 500ms),
// invoking onEvent on each up/down transition (may be nil).
func NewWatcher(nodes []string, probe Prober, interval time.Duration, onEvent func(Event)) *Watcher {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	alive := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		alive[n] = true // optimistic start; first failed probe flips it
	}
	return &Watcher{
		probe:    probe,
		interval: interval,
		onEvent:  onEvent,
		nodes:    append([]string(nil), nodes...),
		alive:    alive,
		status:   make(map[string]NodeStatus, len(nodes)),
	}
}

// SetFaults attaches a fault injector consulted before every probe
// (point "probe/<node>"): a firing rule black-holes the probe, making
// the watcher observe the node as unreachable. Call before Start.
func (w *Watcher) SetFaults(in *faults.Injector) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.faults = in
}

// SetJournal attaches a decision journal: each up↔down transition is
// recorded with the probe evidence (the failing probe's error on a down
// event), and down events open the node's incident trace so failovers,
// plans, and purges triggered by the outage link to it. Call before
// Start.
func (w *Watcher) SetJournal(j *journal.Journal) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.jnl = j
}

// Start launches the probe loop in the background.
func (w *Watcher) Start() { w.life.Every(w.interval, w.probeAll) }

// probeAll probes every node once and records transitions.
func (w *Watcher) probeAll() {
	w.mu.Lock()
	nodes := append([]string(nil), w.nodes...)
	in := w.faults
	jnl := w.jnl
	w.mu.Unlock()
	for _, n := range nodes {
		var (
			st  NodeStatus
			err error
		)
		if err = in.Fail("probe/" + n); err == nil {
			st, err = w.probe(n)
		}
		w.mu.Lock()
		wasAlive := w.alive[n]
		if err == nil {
			w.alive[n] = true
			w.status[n] = st
		} else {
			w.alive[n] = false
		}
		nowAlive := w.alive[n]
		cb := w.onEvent
		w.mu.Unlock()
		if wasAlive != nowAlive {
			if jnl != nil {
				if nowAlive {
					tr := jnl.EndIncident(n)
					jnl.Record(journal.Event{
						Actor: journal.ActorMonitor,
						Kind:  journal.KindNodeUp,
						Trace: tr,
						Node:  n,
					})
				} else {
					detail := err.Error()
					tr := jnl.Incident(n)
					jnl.Record(journal.Event{
						Actor:  journal.ActorMonitor,
						Kind:   journal.KindNodeDown,
						Trace:  tr,
						Node:   n,
						Detail: detail,
					})
				}
			}
			if cb != nil {
				cb(Event{Node: n, Up: nowAlive, Err: err})
			}
		}
	}
}

// ProbeNow runs one synchronous probe round (tests and the console's
// refresh button).
func (w *Watcher) ProbeNow() { w.probeAll() }

// Alive reports the last known liveness of node.
func (w *Watcher) Alive(node string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.alive[node]
}

// Status returns the last collected status for node.
func (w *Watcher) Status(node string) (NodeStatus, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, ok := w.status[node]
	return st, ok
}

// AliveNodes returns all nodes currently believed alive.
func (w *Watcher) AliveNodes() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.nodes))
	for _, n := range w.nodes {
		if w.alive[n] {
			out = append(out, n)
		}
	}
	return out
}

// Close stops the loop and joins it.
func (w *Watcher) Close() { _ = w.life.Close() }
