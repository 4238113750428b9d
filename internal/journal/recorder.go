package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"webcluster/internal/lifecycle"
)

// Source produces one named section of a flight bundle — the telemetry
// report, the URL-table placement walk, the cluster stats. Sources are
// plain closures so the recorder imports none of the packages it reports
// on; whatever they return is JSON-encoded into the bundle.
type Source func() any

// ClassStats is the per-class reading the burn-rate watcher polls:
// cumulative request/error counts and the current p99. The embedder
// wires Stats to its telemetry pipeline.
type ClassStats struct {
	Class    string
	Requests int64
	Errors   int64
	P99Ns    int64
}

// Budget is one per-class SLO the watcher enforces. A breach of either
// ceiling triggers a flight dump (subject to the cooldown).
type Budget struct {
	// Class names the service class ("critical", "interactive").
	Class string
	// MaxErrorRate is the error fraction ceiling over one watch
	// interval's delta (0 disables the error budget).
	MaxErrorRate float64
	// MinRequests is how many requests the interval delta must hold
	// before the error rate is meaningful; 0 means 10.
	MinRequests int64
	// MaxP99Ns is the p99 latency ceiling in nanoseconds (0 disables
	// the latency budget).
	MaxP99Ns int64
}

// Bundle is one flight-recorder snapshot: the journal window plus every
// registered source, JSON on disk.
type Bundle struct {
	Reason   string                     `json:"reason"`
	Node     string                     `json:"node,omitempty"`
	Time     int64                      `json:"time"`
	Recorded uint64                     `json:"recorded"`
	Dropped  uint64                     `json:"dropped"`
	Events   []Event                    `json:"events"`
	Sources  map[string]json.RawMessage `json:"sources,omitempty"`
}

// RecorderOptions configures a Recorder.
type RecorderOptions struct {
	// Journal is the event stream bundles snapshot. Required.
	Journal *Journal
	// Dir is where bundles are written. Required.
	Dir string
	// Window bounds how far back in time a bundle's journal slice
	// reaches; 0 means 30s.
	Window time.Duration
	// Budgets are the per-class SLOs the burn-rate watcher enforces;
	// empty disables the watcher.
	Budgets []Budget
	// Stats feeds the watcher its per-class readings; nil disables the
	// watcher.
	Stats func() []ClassStats
	// Interval is the watcher poll period; 0 means 1s.
	Interval time.Duration
	// Cooldown is the minimum spacing between automatic dumps so a
	// sustained burn cannot flood the disk; 0 means 30s. Manual dumps
	// ignore it.
	Cooldown time.Duration
	// Clock overrides time.Now, for tests.
	Clock func() time.Time
}

// Recorder is the flight recorder: it snapshots the last Window of
// journal plus every registered source into a bundle file when
// triggered — manually (console dump), by the SLO burn-rate watcher,
// or by a crash via RecoverAndDump.
type Recorder struct {
	jnl      *Journal
	dir      string
	window   time.Duration
	budgets  []Budget
	stats    func() []ClassStats
	interval time.Duration
	cooldown time.Duration
	clock    func() time.Time

	mu       sync.Mutex
	sources  []namedSource
	last     map[string]ClassStats
	lastAuto time.Time
	dumps    int

	life lifecycle.Group
}

type namedSource struct {
	name string
	fn   Source
}

// NewRecorder builds a recorder over o.Journal writing bundles to
// o.Dir (created if absent).
func NewRecorder(o RecorderOptions) (*Recorder, error) {
	if o.Journal == nil {
		return nil, fmt.Errorf("journal: recorder needs a journal")
	}
	if o.Dir == "" {
		return nil, fmt.Errorf("journal: recorder needs a directory")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	r := &Recorder{
		jnl:      o.Journal,
		dir:      o.Dir,
		window:   o.Window,
		budgets:  o.Budgets,
		stats:    o.Stats,
		interval: o.Interval,
		cooldown: o.Cooldown,
		clock:    o.Clock,
		last:     make(map[string]ClassStats),
	}
	if r.window <= 0 {
		r.window = 30 * time.Second
	}
	if r.interval <= 0 {
		r.interval = time.Second
	}
	if r.cooldown <= 0 {
		r.cooldown = 30 * time.Second
	}
	if r.clock == nil {
		r.clock = time.Now
	}
	return r, nil
}

// AddSource registers a named bundle section. Sources are snapshotted
// in registration order at dump time.
func (r *Recorder) AddSource(name string, fn Source) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.sources = append(r.sources, namedSource{name: name, fn: fn})
	r.mu.Unlock()
}

// Dump writes a bundle now and returns its path. The reason is stored
// in the bundle and sanitized into the file name. Nil-safe (returns
// an error).
func (r *Recorder) Dump(reason string) (string, error) {
	if r == nil {
		return "", fmt.Errorf("journal: no recorder configured")
	}
	now := r.clock()
	events := r.jnl.Snapshot(0)
	cutoff := now.Add(-r.window).UnixNano()
	for len(events) > 0 && events[0].Time < cutoff {
		events = events[1:]
	}
	b := Bundle{
		Reason:   reason,
		Node:     r.jnl.Node(),
		Time:     now.UnixNano(),
		Recorded: r.jnl.Recorded(),
		Dropped:  r.jnl.Dropped(),
		Events:   events,
	}
	r.mu.Lock()
	sources := make([]namedSource, len(r.sources))
	copy(sources, r.sources)
	r.dumps++
	n := r.dumps
	r.mu.Unlock()
	if len(sources) > 0 {
		b.Sources = make(map[string]json.RawMessage, len(sources))
		for _, s := range sources {
			raw, err := json.Marshal(s.fn())
			if err != nil {
				raw, _ = json.Marshal(fmt.Sprintf("source error: %v", err))
			}
			b.Sources[s.name] = raw
		}
	}
	name := fmt.Sprintf("flight-%03d-%s.json", n, sanitize(reason))
	path := filepath.Join(r.dir, name)
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	detail := reason
	r.jnl.Record(Event{Actor: ActorRecorder, Kind: KindSnapshot, Detail: detail, A: int64(len(events))})
	return path, nil
}

// RecoverAndDump is the crash trigger: deferred at the top of a
// daemon's main goroutine, it turns a panic into a flight bundle
// before re-panicking so the crash still surfaces.
func (r *Recorder) RecoverAndDump() {
	p := recover()
	if p == nil {
		return
	}
	if r != nil {
		_, _ = r.Dump(fmt.Sprintf("crash %v", p))
	}
	panic(p)
}

// Start launches the SLO burn-rate watcher when budgets and a stats
// feed are configured; otherwise it is a no-op. Close joins the
// watcher.
func (r *Recorder) Start() {
	if r == nil || r.stats == nil || len(r.budgets) == 0 {
		return
	}
	r.life.Every(r.interval, r.check)
}

// check samples the stats feed and dumps on the first budget breach.
func (r *Recorder) check() {
	cur := make(map[string]ClassStats)
	for _, cs := range r.stats() {
		cur[cs.Class] = cs
	}
	r.mu.Lock()
	prev := r.last
	r.last = cur
	cooling := r.clock().Sub(r.lastAuto) < r.cooldown && !r.lastAuto.IsZero()
	r.mu.Unlock()
	if cooling {
		return
	}
	for _, b := range r.budgets {
		cs, ok := cur[b.Class]
		if !ok {
			continue
		}
		reason := ""
		if b.MaxP99Ns > 0 && cs.P99Ns > b.MaxP99Ns {
			reason = fmt.Sprintf("slo-burn %s p99 %s > %s", b.Class,
				time.Duration(cs.P99Ns), time.Duration(b.MaxP99Ns))
		}
		if reason == "" && b.MaxErrorRate > 0 {
			minReq := b.MinRequests
			if minReq <= 0 {
				minReq = 10
			}
			p := prev[b.Class]
			dReq, dErr := cs.Requests-p.Requests, cs.Errors-p.Errors
			if dReq >= minReq && float64(dErr)/float64(dReq) > b.MaxErrorRate {
				reason = fmt.Sprintf("slo-burn %s errors %d/%d", b.Class, dErr, dReq)
			}
		}
		if reason != "" {
			r.mu.Lock()
			r.lastAuto = r.clock()
			r.mu.Unlock()
			_, _ = r.Dump(reason)
			return
		}
	}
}

// Close stops the watcher (if running) and waits for it.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	_ = r.life.Close()
}

// ReadBundle loads a bundle file, for tests and tooling.
func ReadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// sanitize maps a dump reason onto a safe file-name fragment.
func sanitize(s string) string {
	if s == "" {
		return "manual"
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s) && len(out) < 40; i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		default:
			if len(out) > 0 && out[len(out)-1] != '-' {
				out = append(out, '-')
			}
		}
	}
	for len(out) > 0 && out[len(out)-1] == '-' {
		out = out[:len(out)-1]
	}
	if len(out) == 0 {
		return "manual"
	}
	return string(out)
}
