// Package admission implements SLO-class overload control for the
// distributor front end. Every request is classified into one of three
// service-level classes — critical, interactive, batch — from an
// X-Dist-Class header or a URL-prefix rule table, then passed through a
// per-class weighted admission gate: each class owns a bounded share of
// the front end's concurrency budget, arrivals beyond the share wait in
// a bounded FIFO queue with a per-class timeout, and a CoDel-style
// controller sheds without queueing while the minimum queue sojourn over
// an observation window stays above target (a standing queue, not a
// burst). Shedding is progressive: batch is rejected first (its share is
// smallest and its waits shortest), interactive degrades to a
// stale-from-cache answer (ShedStale — the distributor reuses the
// respcache stale-on-error path), and only when even the critical
// class's queue overflows or times out does a request see a bare 503
// with Retry-After (ShedReject).
//
// The fast path — class under its limit, no queue — is two atomic adds
// and a compare: zero allocations, gated by BenchmarkAdmissionDecision.
// All counters reconcile exactly: offered == admitted + shed + stale per
// class, which the -race property test asserts under concurrency.
package admission

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webcluster/internal/telemetry"
)

// Class is a request's service-level objective class.
type Class uint8

// The three SLO classes, in shedding-priority order: batch is degraded
// first, critical last.
const (
	Critical Class = iota
	Interactive
	Batch
)

// NumClasses is the number of SLO classes.
const NumClasses = 3

// String returns the wire/config name of the class.
func (c Class) String() string {
	switch c {
	case Critical:
		return "critical"
	case Batch:
		return "batch"
	default:
		return "interactive"
	}
}

// ParseClass maps a wire or spec name to a Class. Only the three
// canonical lowercase names are recognized (the header values are
// interned by the parser, so the comparisons never allocate).
func ParseClass(s string) (Class, bool) {
	switch s {
	case "critical":
		return Critical, true
	case "interactive":
		return Interactive, true
	case "batch":
		return Batch, true
	}
	return Interactive, false
}

// Verdict is the outcome of an admission decision.
type Verdict uint8

const (
	// Admitted grants a concurrency slot; the caller must Release the
	// same class exactly once when the request completes.
	Admitted Verdict = iota
	// ShedStale degrades the request: serve an expired-but-present cache
	// copy if one exists, else reject. The interactive rung of the
	// ladder.
	ShedStale
	// ShedReject rejects the request with 503 + Retry-After.
	ShedReject
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case ShedStale:
		return "shed-stale"
	default:
		return "shed-reject"
	}
}

// Rule maps a URL path prefix to a class; longest matching prefix wins.
type Rule struct {
	Prefix string
	Class  Class
}

// Options configures a Controller. The zero value yields working
// defaults sized for one front end.
type Options struct {
	// MaxConcurrent is the total concurrency budget split across the
	// classes by Shares; default 256.
	MaxConcurrent int
	// Shares weight the per-class split of MaxConcurrent in class order
	// (critical, interactive, batch); default 3:2:1. Each class's slots
	// are its own — batch saturating its share can never starve
	// critical.
	Shares [NumClasses]int
	// MaxQueue bounds each class's waiter queue; default 2x the class
	// limit. A full queue sheds immediately.
	MaxQueue [NumClasses]int
	// MaxWait bounds a queued request's wait for a slot; defaults
	// 100ms / 50ms / 10ms (critical / interactive / batch) — the batch
	// rung of the ladder gives up first.
	MaxWait [NumClasses]time.Duration
	// QueueTarget is the CoDel sojourn target (default 5ms): while the
	// minimum queue delay observed over a QueueInterval stays above it,
	// the class is in drop state and arrivals that miss the fast path
	// are shed without queueing.
	QueueTarget time.Duration
	// QueueInterval is the CoDel observation window (default 100ms).
	QueueInterval time.Duration
	// DeadlineBudget is the per-class downstream deadline stamped on
	// admitted requests (X-Dist-Deadline); defaults 2s / 5s / 10s. Zero
	// entries take the default; a negative entry disables stamping for
	// that class.
	DeadlineBudget [NumClasses]time.Duration
	// Rules is the URL-prefix classification table consulted when no
	// X-Dist-Class header is present; replaceable at runtime with
	// SetRules.
	Rules []Rule
	// RetryAfterSeconds is the Retry-After hint on rejects; default 1.
	RetryAfterSeconds int
	// Registry receives the per-class admission counters and gauges
	// (offered/admitted/shed/stale, in-flight, queue-delay quantiles).
	// Nil creates a private registry.
	Registry *telemetry.Registry
	// Clock injects time for tests; default time.Now. Never called on
	// the fast path.
	Clock func() time.Time
}

// waiter is one queued request.
type waiter struct {
	ch  chan struct{} // closed when a slot is handed over
	enq time.Time
}

// classState is one class's gate: an atomic in-flight count checked
// lock-free on the fast path, a mutex-guarded bounded FIFO for the slow
// path, and the CoDel drop-state machine fed by observed queue sojourns.
type classState struct {
	limit    int64
	inflight atomic.Int64
	// queued mirrors len(queue) so the fast path can yield to waiters
	// (FIFO fairness) without touching the queue lock.
	queued   atomic.Int64
	maxQueue int
	maxWait  time.Duration
	verdict  Verdict // the ladder rung this class sheds to

	mu    sync.Mutex
	queue []*waiter

	// CoDel state: the minimum sojourn observed in the current window
	// (-1 = none), the window's start instant, and the drop flag the
	// last closed window produced.
	target      int64 // ns
	window      int64 // ns
	minSojourn  atomic.Int64
	windowStart atomic.Int64
	dropping    atomic.Bool

	// Ledger (registry-owned): offered == admitted + shed + stale,
	// always.
	offered  *telemetry.Counter
	admitted *telemetry.Counter
	shed     *telemetry.Counter // ShedReject verdicts
	stale    *telemetry.Counter // ShedStale verdicts
	timeouts *telemetry.Counter // subset of sheds: queue-wait expiries

	queueDelay telemetry.Histogram
}

// Controller is the admission gate. Construct with New; safe for
// concurrent use.
type Controller struct {
	classes [NumClasses]classState
	budgets [NumClasses]time.Duration
	rules   atomic.Pointer[[]Rule]
	clock   func() time.Time

	retryAfter string

	// pressure, when set, reports external (back-end) load as
	// (in-flight, capacity); batch arrivals that miss the fast path are
	// shed without queueing while in-flight >= capacity. The distributor
	// wires its per-backend in-flight gauges here.
	pressure atomic.Pointer[func() (int64, int64)]
}

// defaultShares is the 3:2:1 critical/interactive/batch split.
var defaultShares = [NumClasses]int{3, 2, 1}

// defaultMaxWait gives batch the shortest patience.
var defaultMaxWait = [NumClasses]time.Duration{100 * time.Millisecond, 50 * time.Millisecond, 10 * time.Millisecond}

// defaultBudgets are the per-class downstream deadlines.
var defaultBudgets = [NumClasses]time.Duration{2 * time.Second, 5 * time.Second, 10 * time.Second}

// Limits splits a concurrency budget of total slots across the classes in
// proportion to shares, by integer division: a non-positive total means
// 256, all-zero shares mean 3:2:1, a non-positive share counts as 1, and
// no class gets fewer than one slot. New sizes the live gates with it and
// the simulator's front-end model (internal/sim) sizes its own, so a
// scenario and the deployed controller agree on every class limit.
func Limits(total int, shares [NumClasses]int) [NumClasses]int64 {
	if total <= 0 {
		total = 256
	}
	if shares == ([NumClasses]int{}) {
		shares = defaultShares
	}
	sum := 0
	for i, s := range shares {
		if s <= 0 {
			shares[i] = 1
		}
		sum += shares[i]
	}
	var limits [NumClasses]int64
	for i := range limits {
		limits[i] = int64(total * shares[i] / sum)
		if limits[i] < 1 {
			limits[i] = 1
		}
	}
	return limits
}

// New builds a Controller.
func New(opts Options) *Controller {
	limits := Limits(opts.MaxConcurrent, opts.Shares)
	target := opts.QueueTarget
	if target <= 0 {
		target = 5 * time.Millisecond
	}
	window := opts.QueueInterval
	if window <= 0 {
		window = 100 * time.Millisecond
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry("admission")
	}
	retryAfter := opts.RetryAfterSeconds
	if retryAfter <= 0 {
		retryAfter = 1
	}

	c := &Controller{clock: clock, retryAfter: strconv.Itoa(retryAfter)}
	rules := append([]Rule(nil), opts.Rules...)
	sortRules(rules)
	c.rules.Store(&rules)
	for i := range c.classes {
		cs := &c.classes[i]
		class := Class(i)
		cs.limit = limits[i]
		cs.maxQueue = opts.MaxQueue[i]
		if cs.maxQueue <= 0 {
			cs.maxQueue = int(2 * cs.limit)
		}
		cs.maxWait = opts.MaxWait[i]
		if cs.maxWait <= 0 {
			cs.maxWait = defaultMaxWait[i]
		}
		cs.verdict = ShedReject
		if class == Interactive {
			cs.verdict = ShedStale
		}
		cs.target = int64(target)
		cs.window = int64(window)
		cs.minSojourn.Store(-1)

		c.budgets[i] = opts.DeadlineBudget[i]
		if c.budgets[i] == 0 {
			c.budgets[i] = defaultBudgets[i]
		}

		name := class.String()
		cs.offered = reg.Counter("admission_" + name + "_offered")
		cs.admitted = reg.Counter("admission_" + name + "_admitted")
		cs.shed = reg.Counter("admission_" + name + "_shed")
		cs.stale = reg.Counter("admission_" + name + "_stale")
		cs.timeouts = reg.Counter("admission_" + name + "_wait_timeouts")
		reg.GaugeFunc("admission_"+name+"_inflight", func() float64 {
			return float64(cs.inflight.Load())
		})
		reg.GaugeFunc("admission_"+name+"_queued", func() float64 {
			return float64(cs.queued.Load())
		})
		reg.GaugeFunc("admission_"+name+"_queue_p99_ms", func() float64 {
			return float64(cs.queueDelay.Quantile(0.99)) / float64(time.Millisecond)
		})
	}
	return c
}

// sortRules orders rules longest-prefix-first so the first match in
// Classify's linear scan is the most specific.
func sortRules(rules []Rule) {
	for i := 1; i < len(rules); i++ {
		for j := i; j > 0 && len(rules[j].Prefix) > len(rules[j-1].Prefix); j-- {
			rules[j], rules[j-1] = rules[j-1], rules[j]
		}
	}
}

// SetRules replaces the URL-prefix classification table (copy-on-write;
// in-flight Classify calls keep the table they loaded).
func (c *Controller) SetRules(rules []Rule) {
	cp := append([]Rule(nil), rules...)
	sortRules(cp)
	c.rules.Store(&cp)
}

// SetPressure wires an external load reading: fn reports (in-flight,
// capacity) across the back ends. While in-flight >= capacity, batch
// arrivals that miss the fast path are shed without queueing — the
// bottom rung of the ladder engages from back-end pressure, not just
// front-end queue delay.
func (c *Controller) SetPressure(fn func() (inflight, capacity int64)) {
	c.pressure.Store(&fn)
}

// RetryAfter returns the Retry-After header value for rejects (whole
// seconds, precomputed so sheds do not format integers).
func (c *Controller) RetryAfter() string { return c.retryAfter }

// Limit returns the class's concurrency share.
func (c *Controller) Limit(class Class) int64 { return c.classes[class].limit }

// InFlight returns the class's current admitted count.
func (c *Controller) InFlight(class Class) int64 { return c.classes[class].inflight.Load() }

// DeadlineBudget returns the downstream deadline budget for class, 0
// when stamping is disabled for it.
func (c *Controller) DeadlineBudget(class Class) time.Duration {
	if b := c.budgets[class]; b > 0 {
		return b
	}
	return 0
}

// Classify resolves a request's class: an explicit X-Dist-Class header
// value wins, then the longest matching URL-prefix rule, then
// Interactive. Allocation-free.
func (c *Controller) Classify(header, path string) Class {
	if header != "" {
		if cl, ok := ParseClass(header); ok {
			return cl
		}
	}
	rules := *c.rules.Load()
	for i := range rules {
		r := &rules[i]
		if len(path) >= len(r.Prefix) && path[:len(r.Prefix)] == r.Prefix {
			return r.Class
		}
	}
	return Interactive
}

// Admit runs the admission decision for one request of the given class.
// Admitted grants a slot the caller must Release exactly once; the shed
// verdicts grant nothing. The uncontended path (class under limit, no
// queue) performs no allocation and never reads the clock.
func (c *Controller) Admit(class Class) Verdict {
	cs := &c.classes[class]
	cs.offered.Inc()
	if cs.queued.Load() == 0 {
		if cs.inflight.Add(1) <= cs.limit {
			cs.admitted.Inc()
			return Admitted
		}
		cs.inflight.Add(-1)
	}
	return c.admitSlow(cs, class)
}

// Release returns a slot for class and hands it to the head of the
// class's queue when one is waiting.
func (c *Controller) Release(class Class) {
	cs := &c.classes[class]
	cs.inflight.Add(-1)
	if cs.queued.Load() == 0 {
		return
	}
	cs.wake()
}

// wake hands free slots to queued waiters in FIFO order. The slot is
// claimed (inflight incremented) on the waiter's behalf before its
// channel is closed, so the transfer is settled by the time the waiter
// observes it — the timed-out-but-handed-over race resolves by queue
// membership under the lock, never by a second channel wait.
func (cs *classState) wake() {
	cs.mu.Lock()
	for len(cs.queue) > 0 {
		if cs.inflight.Add(1) > cs.limit {
			cs.inflight.Add(-1)
			break
		}
		w := cs.queue[0]
		n := copy(cs.queue, cs.queue[1:])
		cs.queue[n] = nil
		cs.queue = cs.queue[:n]
		cs.queued.Add(-1)
		close(w.ch)
	}
	cs.mu.Unlock()
}

// admitSlow is the contended path: consult the CoDel drop state and
// back-end pressure, then queue with a bounded wait.
func (c *Controller) admitSlow(cs *classState, class Class) Verdict {
	now := c.clock()
	cs.codelTick(now.UnixNano())
	if cs.dropping.Load() {
		return cs.shedVerdict()
	}
	if class == Batch && c.backendsSaturated() {
		return cs.shedVerdict()
	}

	w := &waiter{ch: make(chan struct{}), enq: now}
	cs.mu.Lock()
	// Recheck under the lock: a Release may have drained the queue and
	// freed slots between the fast path and here.
	if len(cs.queue) == 0 {
		if cs.inflight.Add(1) <= cs.limit {
			cs.mu.Unlock()
			cs.admitted.Inc()
			return Admitted
		}
		cs.inflight.Add(-1)
	}
	if len(cs.queue) >= cs.maxQueue {
		cs.mu.Unlock()
		return cs.shedVerdict()
	}
	cs.queue = append(cs.queue, w)
	cs.queued.Add(1)
	cs.mu.Unlock()

	t := time.NewTimer(cs.maxWait)
	select {
	case <-w.ch:
		t.Stop()
		cs.observeSojourn(c.clock().Sub(w.enq))
		cs.admitted.Inc()
		return Admitted
	case <-t.C:
		cs.mu.Lock()
		removed := cs.remove(w)
		cs.mu.Unlock()
		if !removed {
			// wake popped us before the timer fired: the slot is already
			// ours (claimed under the lock), so this is an admission —
			// just a slow one; its full sojourn feeds the CoDel signal.
			cs.observeSojourn(c.clock().Sub(w.enq))
			cs.admitted.Inc()
			return Admitted
		}
		// A timed-out wait is a sojourn above any reasonable target.
		cs.observeSojourn(cs.maxWait)
		cs.timeouts.Inc()
		return cs.shedVerdict()
	}
}

// remove deletes w from the queue, reporting whether it was still
// queued. Caller holds cs.mu.
func (cs *classState) remove(w *waiter) bool {
	for i, q := range cs.queue {
		if q == w {
			n := copy(cs.queue[i:], cs.queue[i+1:])
			cs.queue[i+n] = nil
			cs.queue = cs.queue[:i+n]
			cs.queued.Add(-1)
			return true
		}
	}
	return false
}

// shedVerdict records the class's ladder rung in the ledger and returns
// it.
func (cs *classState) shedVerdict() Verdict {
	if cs.verdict == ShedStale {
		cs.stale.Inc()
	} else {
		cs.shed.Inc()
	}
	return cs.verdict
}

// backendsSaturated reads the wired pressure signal.
func (c *Controller) backendsSaturated() bool {
	fn := c.pressure.Load()
	if fn == nil {
		return false
	}
	inflight, capacity := (*fn)()
	return capacity > 0 && inflight >= capacity
}

// observeSojourn feeds one queue delay into the histogram and the
// current CoDel window's minimum.
func (cs *classState) observeSojourn(d time.Duration) {
	if d < 0 {
		d = 0
	}
	cs.queueDelay.Observe(d)
	for {
		cur := cs.minSojourn.Load()
		if cur >= 0 && int64(d) >= cur {
			return
		}
		if cs.minSojourn.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// codelTick closes the observation window when it has elapsed: the drop
// flag for the next window is whether even the *minimum* sojourn stayed
// above target — a standing queue (CoDel's signal), as opposed to a
// burst some request got through quickly.
func (cs *classState) codelTick(nowNs int64) {
	ws := cs.windowStart.Load()
	if ws == 0 {
		cs.windowStart.CompareAndSwap(0, nowNs)
		return
	}
	if nowNs-ws < cs.window {
		return
	}
	if !cs.windowStart.CompareAndSwap(ws, nowNs) {
		return // another goroutine closed this window
	}
	min := cs.minSojourn.Swap(-1)
	cs.dropping.Store(min >= 0 && min > cs.target)
}

// Dropping reports whether the class is currently in CoDel drop state.
func (c *Controller) Dropping(class Class) bool {
	return c.classes[class].dropping.Load()
}

// ClassCounters returns the class's ledger. offered == admitted + shed
// + stale at any quiescent point.
func (c *Controller) ClassCounters(class Class) (offered, admitted, shed, stale int64) {
	cs := &c.classes[class]
	return cs.offered.Value(), cs.admitted.Value(), cs.shed.Value(), cs.stale.Value()
}
