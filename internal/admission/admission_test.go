package admission

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseClassAndString(t *testing.T) {
	cases := []struct {
		in   string
		want Class
		ok   bool
	}{
		{"critical", Critical, true},
		{"interactive", Interactive, true},
		{"batch", Batch, true},
		{"", Interactive, false},
		{"Critical", Interactive, false}, // exact lowercase only
		{"bulk", Interactive, false},
	}
	for _, c := range cases {
		got, ok := ParseClass(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseClass(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
	for _, c := range []Class{Critical, Interactive, Batch} {
		back, ok := ParseClass(c.String())
		if !ok || back != c {
			t.Errorf("round trip %v via %q failed", c, c.String())
		}
	}
}

func TestClassify(t *testing.T) {
	c := New(Options{Rules: []Rule{
		{Prefix: "/api/", Class: Critical},
		{Prefix: "/api/export/", Class: Batch},
		{Prefix: "/feeds/", Class: Batch},
	}})
	cases := []struct {
		header, path string
		want         Class
	}{
		{"batch", "/api/checkout", Batch}, // header wins over rules
		{"critical", "/feeds/all", Critical},
		{"", "/api/checkout", Critical},          // prefix rule
		{"", "/api/export/dump", Batch},          // longest prefix wins
		{"", "/feeds/all", Batch},                //
		{"", "/index.html", Interactive},         // default
		{"nonsense", "/index.html", Interactive}, // bad header falls through to rules/default
		{"nonsense", "/feeds/all", Batch},
	}
	for _, tc := range cases {
		if got := c.Classify(tc.header, tc.path); got != tc.want {
			t.Errorf("Classify(%q, %q) = %v, want %v", tc.header, tc.path, got, tc.want)
		}
	}
}

func TestSetRulesReplacesTable(t *testing.T) {
	c := New(Options{Rules: []Rule{{Prefix: "/a/", Class: Batch}}})
	if got := c.Classify("", "/a/x"); got != Batch {
		t.Fatalf("before SetRules: %v", got)
	}
	c.SetRules([]Rule{{Prefix: "/a/", Class: Critical}})
	if got := c.Classify("", "/a/x"); got != Critical {
		t.Fatalf("after SetRules: %v", got)
	}
}

func TestSharesSplitLimits(t *testing.T) {
	c := New(Options{MaxConcurrent: 60}) // default 3:2:1
	if c.classes[Critical].limit != 30 || c.classes[Interactive].limit != 20 || c.classes[Batch].limit != 10 {
		t.Fatalf("limits = %d/%d/%d, want 30/20/10",
			c.classes[Critical].limit, c.classes[Interactive].limit, c.classes[Batch].limit)
	}
	// Tiny budgets still give every class at least one slot.
	c = New(Options{MaxConcurrent: 1})
	for _, cl := range []Class{Critical, Interactive, Batch} {
		if c.classes[cl].limit < 1 {
			t.Fatalf("class %v got zero slots", cl)
		}
	}
	// The split itself: defaults for a zero budget, a non-positive share
	// counted as one.
	if got := limits(0, [NumClasses]int{}); got != [NumClasses]int64{128, 85, 42} {
		t.Fatalf("limits(0, default) = %v", got)
	}
	if got := limits(12, [NumClasses]int{0, -1, 2}); got != [NumClasses]int64{3, 3, 6} {
		t.Fatalf("limits(12, {0,-1,2}) = %v", got)
	}
}

func TestAdmitFastPathUpToLimit(t *testing.T) {
	c := New(Options{MaxConcurrent: 6, Shares: [NumClasses]int{1, 1, 1}})
	for i := 0; i < 2; i++ {
		if v := c.Admit(Critical); v != Admitted {
			t.Fatalf("admit %d: %v", i, v)
		}
	}
	if got := c.InFlight(Critical); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	c.Release(Critical)
	c.Release(Critical)
	if got := c.InFlight(Critical); got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
	off, adm, shed, stale := c.ClassCounters(Critical)
	if off != 2 || adm != 2 || shed != 0 || stale != 0 {
		t.Fatalf("ledger = %d/%d/%d/%d", off, adm, shed, stale)
	}
}

// TestShedLadder: with slots full and queues full, each class sheds to
// its own rung — batch and critical reject, interactive degrades to
// stale.
func TestShedLadder(t *testing.T) {
	c := New(Options{
		MaxConcurrent: 3,
		Shares:        [NumClasses]int{1, 1, 1},
		MaxQueue:      [NumClasses]int{1, 1, 1},
		MaxWait:       [NumClasses]time.Duration{time.Second, time.Second, time.Second},
	})
	for _, tc := range []struct {
		class Class
		want  Verdict
	}{
		{Batch, ShedReject},
		{Interactive, ShedStale},
		{Critical, ShedReject},
	} {
		if v := c.Admit(tc.class); v != Admitted {
			t.Fatalf("%v: first admit got %v", tc.class, v)
		}
		// Fill the 1-deep queue with a parked waiter so the next arrival
		// sees queue-full and sheds synchronously to the class's rung.
		parked := make(chan Verdict, 1)
		go func(cl Class) { parked <- c.Admit(cl) }(tc.class)
		waitFor(t, func() bool { return c.classes[tc.class].queued.Load() == 1 })
		if v := c.Admit(tc.class); v != tc.want {
			t.Fatalf("%v: overflow verdict = %v, want %v", tc.class, v, tc.want)
		}
		// Free the slot: the parked waiter gets the handoff.
		c.Release(tc.class)
		if v := <-parked; v != Admitted {
			t.Fatalf("%v: parked waiter = %v, want Admitted", tc.class, v)
		}
		c.Release(tc.class)
		off, adm, shed, stale := c.ClassCounters(tc.class)
		if off != adm+shed+stale {
			t.Fatalf("%v ledger broken: %d != %d+%d+%d", tc.class, off, adm, shed, stale)
		}
	}
}

// TestQueueHandoff: a queued waiter is admitted when a slot frees, and
// the handoff settles before the waiter's channel closes.
func TestQueueHandoff(t *testing.T) {
	c := New(Options{
		MaxConcurrent: 3,
		Shares:        [NumClasses]int{1, 1, 1},
		MaxWait:       [NumClasses]time.Duration{time.Second, time.Second, time.Second},
	})
	if v := c.Admit(Critical); v != Admitted {
		t.Fatalf("seed admit: %v", v)
	}
	got := make(chan Verdict, 1)
	go func() { got <- c.Admit(Critical) }()
	waitFor(t, func() bool { return c.classes[Critical].queued.Load() == 1 })
	c.Release(Critical)
	if v := <-got; v != Admitted {
		t.Fatalf("waiter verdict = %v, want Admitted", v)
	}
	if n := c.InFlight(Critical); n != 1 {
		t.Fatalf("inflight after handoff = %d, want 1", n)
	}
	c.Release(Critical)
}

// TestOfferWakeAndExpire drives the non-blocking API the simulator steps
// in virtual time: a queued offer's wake runs inside Release with its
// slot already claimed and counted, and Expire settles a waiter by queue
// membership alone.
func TestOfferWakeAndExpire(t *testing.T) {
	c := New(Options{MaxConcurrent: 3, Shares: [NumClasses]int{1, 1, 1}})
	if v, w := c.Offer(Batch, nil); v != Admitted || w != nil {
		t.Fatalf("seed offer: %v, waiter %v", v, w)
	}
	woken := false
	_, first := c.Offer(Batch, func() {
		woken = true
		if _, admitted, _, _ := c.ClassCounters(Batch); admitted != 2 || c.InFlight(Batch) != 1 {
			t.Errorf("woken with admitted %d, inflight %d: the slot is not settled", admitted, c.InFlight(Batch))
		}
	})
	_, second := c.Offer(Batch, func() { t.Error("second waiter woken without a slot") })
	if first == nil || second == nil {
		t.Fatal("offers against a full class should queue")
	}
	c.Release(Batch)
	if !woken {
		t.Fatal("Release did not hand the freed slot to the head waiter")
	}
	if v := c.Expire(first); v != Admitted {
		t.Fatalf("expiring a waiter the handoff reached: %v, want Admitted", v)
	}
	if v := c.Expire(second); v != ShedReject {
		t.Fatalf("expiring a waiter still queued: %v, want ShedReject", v)
	}
	c.Release(Batch)
	if off, adm, shed, stale := c.ClassCounters(Batch); off != 3 || adm != 2 || shed != 1 || stale != 0 {
		t.Fatalf("ledger %d/%d/%d/%d, want 3 offered = 2 admitted + 1 shed", off, adm, shed, stale)
	}
	if cs := &c.classes[Batch]; cs.timeouts.Value() != 1 || cs.queued.Load() != 0 || cs.inflight.Load() != 0 {
		t.Fatalf("timeouts %d, queued %d, inflight %d", cs.timeouts.Value(), cs.queued.Load(), cs.inflight.Load())
	}
}

func TestWaitTimeoutSheds(t *testing.T) {
	c := New(Options{
		MaxConcurrent: 3,
		Shares:        [NumClasses]int{1, 1, 1},
		MaxWait:       [NumClasses]time.Duration{time.Millisecond, time.Millisecond, time.Millisecond},
	})
	if v := c.Admit(Batch); v != Admitted {
		t.Fatalf("seed admit: %v", v)
	}
	if v := c.Admit(Batch); v != ShedReject {
		t.Fatalf("queued wait should time out to ShedReject, got %v", v)
	}
	cs := &c.classes[Batch]
	if cs.timeouts.Value() != 1 {
		t.Fatalf("timeouts = %d, want 1", cs.timeouts.Value())
	}
	if cs.queued.Load() != 0 {
		t.Fatalf("queued = %d after timeout, want 0", cs.queued.Load())
	}
	c.Release(Batch)
}

// TestCoDelDropState drives the controller through a standing-queue
// window with an injected clock and checks that (a) the next window
// sheds without queueing and (b) an idle window clears the state.
func TestCoDelDropState(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	c := New(Options{
		MaxConcurrent: 3,
		Shares:        [NumClasses]int{1, 1, 1},
		MaxWait:       [NumClasses]time.Duration{time.Millisecond, time.Millisecond, time.Millisecond},
		QueueTarget:   500 * time.Microsecond,
		QueueInterval: 10 * time.Millisecond,
		Clock:         clock,
	})
	if v := c.Admit(Batch); v != Admitted {
		t.Fatalf("seed admit: %v", v)
	}
	// Standing queue: the wait times out, recording a sojourn of maxWait
	// (1ms) — above the 500us target — and opening the window at t0.
	if v := c.Admit(Batch); v != ShedReject {
		t.Fatalf("timed-out wait: %v", v)
	}
	// Next arrival after the window closes flips to drop state and is
	// shed instantly (no queueing: queued stays 0).
	advance(20 * time.Millisecond)
	if v := c.Admit(Batch); v != ShedReject {
		t.Fatalf("drop-state arrival: %v", v)
	}
	if !c.classes[Batch].dropping.Load() {
		t.Fatal("expected drop state after standing-queue window")
	}
	if q := c.classes[Batch].queued.Load(); q != 0 {
		t.Fatalf("drop-state shed queued a waiter: %d", q)
	}
	// A quiet window (no sojourns observed) clears the drop flag. The
	// slot is still full, so the arrival sheds — but from queue-full /
	// timeout, with drop state off.
	advance(20 * time.Millisecond)
	c.Admit(Batch)
	if c.classes[Batch].dropping.Load() {
		t.Fatal("drop state should clear after an idle window")
	}
	c.Release(Batch)
}

func TestBackendPressureShedsBatchOnly(t *testing.T) {
	c := New(Options{
		MaxConcurrent: 3,
		Shares:        [NumClasses]int{1, 1, 1},
		MaxWait:       [NumClasses]time.Duration{5 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond},
	})
	var saturated atomic.Bool
	c.SetPressure(func() (int64, int64) {
		if saturated.Load() {
			return 10, 10
		}
		return 0, 10
	})
	saturated.Store(true)
	// Fill every class's single slot.
	for _, cl := range []Class{Critical, Interactive, Batch} {
		if v := c.Admit(cl); v != Admitted {
			t.Fatalf("%v seed: %v", cl, v)
		}
	}
	// Batch sheds pre-queue under back-end pressure; critical and
	// interactive still get to wait (and here time out — but they were
	// not rejected by the pressure signal, which is what queued>0 during
	// the wait would show; just assert batch sheds instantly).
	start := time.Now()
	if v := c.Admit(Batch); v != ShedReject {
		t.Fatalf("batch under pressure: %v", v)
	}
	if d := time.Since(start); d > 2*time.Millisecond {
		t.Fatalf("batch shed should not wait, took %v", d)
	}
	for _, cl := range []Class{Critical, Interactive, Batch} {
		c.Release(cl)
	}
	// Pressure off: batch queues and gets the freed slot.
	saturated.Store(false)
	if v := c.Admit(Batch); v != Admitted {
		t.Fatalf("batch after pressure clears: %v", v)
	}
	c.Release(Batch)
}

func TestDeadlineBudgets(t *testing.T) {
	c := New(Options{DeadlineBudget: [NumClasses]time.Duration{time.Second, 0, -1}})
	if got := c.DeadlineBudget(Critical); got != time.Second {
		t.Fatalf("critical budget = %v", got)
	}
	if got := c.DeadlineBudget(Interactive); got != 5*time.Second {
		t.Fatalf("interactive budget should default to 5s, got %v", got)
	}
	if got := c.DeadlineBudget(Batch); got != 0 {
		t.Fatalf("negative budget should disable stamping, got %v", got)
	}
	if c.RetryAfter() != "1" {
		t.Fatalf("RetryAfter = %q", c.RetryAfter())
	}
}

// TestAdmitDecisionAllocFree pins the fast path at zero allocations —
// the same invariant BenchmarkAdmissionDecision gates in CI.
func TestAdmitDecisionAllocFree(t *testing.T) {
	c := New(Options{MaxConcurrent: 64})
	allocs := testing.AllocsPerRun(200, func() {
		if c.Admit(Critical) == Admitted {
			c.Release(Critical)
		}
	})
	if allocs != 0 {
		t.Errorf("admission fast path allocated %.1f per op, want 0", allocs)
	}
}

// TestAdmissionCountersReconcile is the -race property test: under
// concurrent mixed-class load with releases, timeouts, handoffs and
// sheds racing, the per-class ledger must balance exactly —
// offered == admitted + shed + stale.
func TestAdmissionCountersReconcile(t *testing.T) {
	c := New(Options{
		MaxConcurrent: 12,
		MaxQueue:      [NumClasses]int{4, 4, 4},
		MaxWait: [NumClasses]time.Duration{
			2 * time.Millisecond, time.Millisecond, 500 * time.Microsecond,
		},
		QueueTarget:   200 * time.Microsecond,
		QueueInterval: 2 * time.Millisecond,
	})
	const (
		workers = 16
		perG    = 400
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				class := Class(rng.Intn(NumClasses))
				if c.Admit(class) == Admitted {
					if rng.Intn(4) == 0 {
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
					c.Release(class)
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	var totalOffered int64
	for _, cl := range []Class{Critical, Interactive, Batch} {
		off, adm, shed, stale := c.ClassCounters(cl)
		if off != adm+shed+stale {
			t.Errorf("%v: offered %d != admitted %d + shed %d + stale %d",
				cl, off, adm, shed, stale)
		}
		if got := c.InFlight(cl); got != 0 {
			t.Errorf("%v: inflight %d after drain, want 0", cl, got)
		}
		if q := c.classes[cl].queued.Load(); q != 0 {
			t.Errorf("%v: queued %d after drain, want 0", cl, q)
		}
		totalOffered += off
	}
	if want := int64(workers * perG); totalOffered != want {
		t.Errorf("total offered %d, want %d", totalOffered, want)
	}
}

// waitFor polls cond until true or the deadline lapses.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
