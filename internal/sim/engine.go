// Package sim is the discrete-event cluster simulator behind the
// evaluation harness. The paper's figures depend on three hardware effects
// a single development machine cannot exhibit — per-node memory-cache
// working sets, CPU-speed heterogeneity for dynamic requests, and
// head-of-line blocking between long and short requests — so the
// benchmarks run the placement schemes and front ends against simulated
// nodes parameterized with the §5.1 testbed's hardware. Routing and
// admission reuse the real urltable, loadbal and admission code, keeping
// the simulated control path identical to the live one.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // FIFO tiebreak for simultaneous events
	run func()
}

// eventHeap is a min-heap on (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) {
	ev, ok := x.(*event)
	if !ok {
		panic(fmt.Sprintf("sim: pushing %T onto event heap", x))
	}
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is a deterministic discrete-event executor. The zero value is
// ready to use. Not safe for concurrent use: the simulation is
// single-threaded by design so runs are exactly reproducible.
type Engine struct {
	heap eventHeap
	now  time.Duration
	seq  uint64

	executed uint64
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Executed returns how many events have run.
func (e *Engine) Executed() uint64 { return e.executed }

// Schedule runs fn after delay of virtual time (clamped to now for
// negative delays).
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time at (clamped to now).
func (e *Engine) ScheduleAt(at time.Duration, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.heap, &event{at: at, seq: e.seq, run: fn})
}

// Run executes events in order until the queue empties or virtual time
// would exceed until; it returns the virtual time reached.
func (e *Engine) Run(until time.Duration) time.Duration {
	for e.HasPendingEvents() {
		next, _ := e.PeekNextEventTime()
		if next > until {
			e.now = until
			return e.now
		}
		e.ProcessNextEvent()
	}
	if e.now < until {
		e.now = until
	}
	return e.now
}

// HasPendingEvents reports whether any event is queued. Together with
// PeekNextEventTime and ProcessNextEvent it lets an outer loop (a scenario
// runner, a multi-engine shared clock, or a test) drive the clock one
// event at a time instead of committing to a whole Run horizon.
func (e *Engine) HasPendingEvents() bool { return len(e.heap) > 0 }

// PeekNextEventTime returns the virtual time of the earliest queued event
// without running it. ok is false when the queue is empty.
func (e *Engine) PeekNextEventTime() (at time.Duration, ok bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// ProcessNextEvent pops the earliest queued event, advances the clock to
// its timestamp and runs it. It returns false (leaving the clock
// untouched) when the queue is empty.
func (e *Engine) ProcessNextEvent() bool {
	if len(e.heap) == 0 {
		return false
	}
	popped, ok := heap.Pop(&e.heap).(*event)
	if !ok {
		panic("sim: event heap corrupted")
	}
	e.now = popped.at
	e.executed++
	popped.run()
	return true
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) }
