// Package faults is a deterministic fault-injection layer for the live
// cluster components. An Injector holds named fault points ("backend.conn/n3",
// "repl.feed", "probe/mid-1", ...); product code consults the injector at
// those points through nil-safe hooks, so a nil *Injector — the production
// default — costs one pointer comparison and injects nothing.
//
// All randomness comes from the injector's seeded RNG (no wall-clock
// entropy): the same seed and the same schedule of Set/Clear calls produce
// the same fault decisions, which is what makes chaos scenarios replayable
// from a printed seed (see harness.go and DESIGN.md §8).
//
// Connection-level faults (Rule) cover the partial failures the paper's
// fault-tolerance mechanisms exist to survive: added latency, slow-loris
// stalls, partial writes, drop-after-N-bytes truncation, byte corruption,
// and outright refusal. Process-level faults (backend crash/restart,
// prober blackholes) are driven by schedule steps that call Close/Start on
// the components themselves or set Refuse rules on non-connection points.
package faults

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"webcluster/internal/journal"
)

// ErrInjected marks every failure manufactured by an Injector, so tests
// and error-classification code can tell injected faults from real ones.
var ErrInjected = errors.New("faults: injected failure")

// Rule describes the faults active at one point. The zero value injects
// nothing. A Rule applies to every operation at the point while set;
// changing the rule (Set/Clear) takes effect on live connections too —
// wrappers re-read the active rule on every operation.
type Rule struct {
	// Refuse fails the operation outright: dials and process-level
	// points return ErrInjected, accepted connections are closed
	// immediately, reads/writes on live connections fail.
	Refuse bool
	// Latency is added before every read and write (a degraded link).
	Latency time.Duration
	// ReadStall blocks every read for the given duration before
	// proceeding (slow-loris peer). The stall is interruptible by
	// closing the connection and is bounded by any read deadline set on
	// it, so hardened callers time out instead of hanging.
	ReadStall time.Duration
	// DropAfterBytes closes the connection after it has carried this
	// many further bytes (reads + writes) under this rule — a mid-stream
	// truncation. 0 means no limit.
	DropAfterBytes int64
	// MaxWriteChunk truncates each write to at most this many bytes
	// (partial writes; callers relying on one-shot writes break). 0
	// means unlimited.
	MaxWriteChunk int
	// CorruptEveryN flips the low bit of every Nth written byte
	// (stream corruption). 0 disables.
	CorruptEveryN int
	// Probability gates the rule per connection: each new connection
	// (or live connection re-reading a changed rule) is subject to the
	// rule with this probability, decided by the injector's seeded RNG.
	// 0 means always (the common case); values in (0,1) make mixed
	// healthy/faulty populations.
	Probability float64
}

// active reports whether the rule injects anything at all.
func (r Rule) active() bool {
	return r.Refuse || r.Latency > 0 || r.ReadStall > 0 ||
		r.DropAfterBytes > 0 || r.MaxWriteChunk > 0 || r.CorruptEveryN > 0
}

// ruleEntry is a rule plus the generation it was installed at, so live
// connection wrappers can detect rule changes and reset byte budgets.
type ruleEntry struct {
	rule Rule
	gen  uint64
}

// Injector is the seeded registry of fault points. The zero value and the
// nil pointer are valid and inject nothing; construct with New to inject.
type Injector struct {
	mu    sync.Mutex
	seed  int64
	rng   *rand.Rand
	gen   uint64
	rules map[string]ruleEntry
	fired map[string]int64
	// jnl, when set, receives one KindFault event the first time each
	// (point, rule generation) fires — the injected fault becomes part of
	// the incident's causal record without flooding the journal on every
	// faulted byte. noted holds the last journaled generation per point.
	jnl   *journal.Journal
	noted map[string]uint64
}

// New returns an injector whose probabilistic decisions derive from seed.
func New(seed int64) *Injector {
	return &Injector{
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[string]ruleEntry),
		fired: make(map[string]int64),
	}
}

// Seed returns the seed the injector was built with (printed by the chaos
// harness so failing schedules can be rerun).
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Set installs (or replaces) the rule at point. Points are hierarchical:
// lookup tries the exact point first, then the prefix before the first
// "/", so Set("backend.conn", r) covers every node while
// Set("backend.conn/n3", r) targets one.
func (in *Injector) Set(point string, r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.gen++
	in.rules[point] = ruleEntry{rule: r, gen: in.gen}
}

// Clear removes the rule at point.
func (in *Injector) Clear(point string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.gen++
	delete(in.rules, point)
}

// lookup resolves the active rule for point (exact, then family prefix).
func (in *Injector) lookup(point string) (ruleEntry, bool) {
	if e, ok := in.rules[point]; ok {
		return e, true
	}
	if i := strings.IndexByte(point, '/'); i > 0 {
		if e, ok := in.rules[point[:i]]; ok {
			return e, true
		}
	}
	return ruleEntry{}, false
}

// entry returns the current rule entry for point, applying the
// probability gate with the seeded RNG (the roll is recorded per
// generation by callers, not here).
func (in *Injector) entry(point string) (ruleEntry, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.lookup(point)
}

// roll draws the probability gate for a rule.
func (in *Injector) roll(r Rule) bool {
	if r.Probability <= 0 || r.Probability >= 1 {
		return true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64() < r.Probability
}

// SetJournal attaches a decision journal to the injector. The journal's
// locks are leaves (per-slot and journal-internal only), so recording
// from under in.mu cannot deadlock. Safe on a nil receiver.
func (in *Injector) SetJournal(j *journal.Journal) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.jnl = j
	if in.noted == nil {
		in.noted = make(map[string]uint64)
	}
}

// note counts one fired fault at point (test observability: schedules
// assert their faults actually hit something) and journals the first
// firing of each rule generation, opening the target node's incident
// trace so downstream failovers and purges link back to the fault.
func (in *Injector) note(point string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.fired[point]++
	if in.jnl == nil {
		return
	}
	e, ok := in.lookup(point)
	if !ok || in.noted[point] == e.gen {
		return
	}
	in.noted[point] = e.gen
	var node string
	if i := strings.IndexByte(point, '/'); i >= 0 {
		node = point[i+1:]
	}
	var tr uint64
	if node != "" {
		tr = in.jnl.Incident(node)
	}
	in.jnl.Record(journal.Event{
		Actor:  journal.ActorFaults,
		Kind:   journal.KindFault,
		Trace:  tr,
		Node:   node,
		Detail: point,
		A:      int64(e.gen),
	})
}

// Fired returns how many faults have fired at point.
func (in *Injector) Fired(point string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[point]
}

// Fail is the process-level hook: it returns ErrInjected when a Refuse
// rule is active at point (subject to its probability), nil otherwise.
// Safe on a nil receiver.
func (in *Injector) Fail(point string) error {
	if in == nil {
		return nil
	}
	e, ok := in.entry(point)
	if !ok || !e.rule.Refuse || !in.roll(e.rule) {
		return nil
	}
	in.note(point)
	return ErrInjected
}

// Conn wraps c with the faults governed by point. The wrapper re-reads the
// rule on every operation, so schedule steps affect live connections. Safe
// on a nil receiver (returns c unchanged).
func (in *Injector) Conn(point string, c net.Conn) net.Conn {
	if in == nil || c == nil {
		return c
	}
	return &faultConn{Conn: c, in: in, point: point, done: make(chan struct{})}
}

// Listener wraps l so every accepted connection passes through Conn, and
// an active Refuse rule at point closes connections as they arrive
// (connection refusal as the client observes it). Safe on a nil receiver.
func (in *Injector) Listener(point string, l net.Listener) net.Listener {
	if in == nil || l == nil {
		return l
	}
	return &faultListener{Listener: l, in: in, point: point}
}

// faultListener injects at the accept path.
type faultListener struct {
	net.Listener
	in    *Injector
	point string
}

// Accept implements net.Listener.
func (fl *faultListener) Accept() (net.Conn, error) {
	for {
		c, err := fl.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if ferr := fl.in.Fail(fl.point); ferr != nil {
			_ = c.Close()
			continue // the peer sees an immediate close: refusal
		}
		return fl.in.Conn(fl.point, c), nil
	}
}

// faultConn applies the active rule to every read and write. It tracks
// the rule generation so a schedule change mid-connection resets the
// drop-after budget and re-rolls the probability gate.
type faultConn struct {
	net.Conn
	in    *Injector
	point string

	mu       sync.Mutex
	gen      uint64    // generation of the cached roll/budget
	subject  bool      // probability roll outcome for this generation
	carried  int64     // bytes carried under this generation
	written  int64     // bytes written lifetime (corruption phase)
	dropped  bool      // DropAfterBytes tripped; connection is dead
	deadline time.Time // read deadline, mirrored for stall bounding

	closeOnce sync.Once
	done      chan struct{}
}

// rule returns the rule this connection is currently subject to (zero
// Rule when none, the gate rolled false, or the connection was dropped).
func (fc *faultConn) rule() Rule {
	e, ok := fc.in.entry(fc.point)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if !ok {
		fc.gen, fc.subject = 0, false
		return Rule{}
	}
	if e.gen != fc.gen {
		fc.gen = e.gen
		fc.carried = 0
		fc.subject = fc.in.roll(e.rule)
	}
	if !fc.subject || !e.rule.active() {
		return Rule{}
	}
	return e.rule
}

// wait sleeps for d, but returns early when the connection closes or the
// mirrored read deadline passes; it reports whether the deadline cut the
// sleep short.
func (fc *faultConn) wait(d time.Duration) (timedOut bool) {
	fc.mu.Lock()
	dl := fc.deadline
	fc.mu.Unlock()
	if !dl.IsZero() {
		if until := time.Until(dl); until < d {
			d, timedOut = until, true
		}
	}
	if d <= 0 {
		return timedOut
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return timedOut
	case <-fc.done:
		return false
	}
}

// account charges n carried bytes against the drop budget, closing the
// connection when it trips. It reports whether the connection is dead.
func (fc *faultConn) account(r Rule, n int) bool {
	if r.DropAfterBytes <= 0 {
		return false
	}
	fc.mu.Lock()
	fc.carried += int64(n)
	trip := !fc.dropped && fc.carried >= r.DropAfterBytes
	if trip {
		fc.dropped = true
	}
	dead := fc.dropped
	fc.mu.Unlock()
	if trip {
		fc.in.note(fc.point)
		_ = fc.Close()
	}
	return dead
}

// Read implements net.Conn.
func (fc *faultConn) Read(p []byte) (int, error) {
	r := fc.rule()
	if r.Refuse {
		fc.in.note(fc.point)
		_ = fc.Close()
		return 0, ErrInjected
	}
	if r.ReadStall > 0 {
		fc.in.note(fc.point)
		if fc.wait(r.ReadStall) {
			// Fail here rather than in the underlying read: this timer can
			// fire a moment before the poller's own deadline timer, and a
			// read in that gap would deliver the bytes the stall withholds.
			return 0, os.ErrDeadlineExceeded
		}
	}
	if r.Latency > 0 {
		fc.wait(r.Latency)
	}
	n, err := fc.Conn.Read(p)
	if fc.account(r, n) && err == nil {
		return n, net.ErrClosed
	}
	return n, err
}

// Write implements net.Conn.
func (fc *faultConn) Write(p []byte) (int, error) {
	r := fc.rule()
	if r.Refuse {
		fc.in.note(fc.point)
		_ = fc.Close()
		return 0, ErrInjected
	}
	if r.Latency > 0 {
		fc.wait(r.Latency)
	}
	chunk := p
	if r.MaxWriteChunk > 0 && len(chunk) > r.MaxWriteChunk {
		fc.in.note(fc.point)
		chunk = chunk[:r.MaxWriteChunk]
	}
	if r.CorruptEveryN > 0 && len(chunk) > 0 {
		fc.in.note(fc.point)
		mutated := make([]byte, len(chunk))
		copy(mutated, chunk)
		fc.mu.Lock()
		base := fc.written
		fc.mu.Unlock()
		for i := range mutated {
			if (base+int64(i)+1)%int64(r.CorruptEveryN) == 0 {
				mutated[i] ^= 0x01
			}
		}
		chunk = mutated
	}
	n, err := fc.Conn.Write(chunk)
	fc.mu.Lock()
	fc.written += int64(n)
	fc.mu.Unlock()
	if fc.account(r, n) && err == nil {
		return n, net.ErrClosed
	}
	return n, err
}

// SetDeadline implements net.Conn, mirroring the read half for stalls.
func (fc *faultConn) SetDeadline(t time.Time) error {
	fc.mu.Lock()
	fc.deadline = t
	fc.mu.Unlock()
	return fc.Conn.SetDeadline(t)
}

// SetReadDeadline implements net.Conn, mirroring it for stall bounding.
func (fc *faultConn) SetReadDeadline(t time.Time) error {
	fc.mu.Lock()
	fc.deadline = t
	fc.mu.Unlock()
	return fc.Conn.SetReadDeadline(t)
}

// Close implements net.Conn, releasing any in-progress stalls.
func (fc *faultConn) Close() error {
	fc.closeOnce.Do(func() { close(fc.done) })
	return fc.Conn.Close()
}
