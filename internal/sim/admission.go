package sim

import (
	"webcluster/internal/admission"
	"webcluster/internal/content"
)

// Discrete-event model of the front end's SLO-class admission control.
// The real subsystem (internal/admission) gates a concurrent request
// path with atomics and bounded queues; under the single-threaded event
// engine the same policy reduces to plain per-class in-flight counters
// checked at routing time. The shedding ladder matches the real
// controller: batch beyond its share is rejected outright, interactive
// beyond its share degrades to a front-end "stale" answer (the NIC
// relays a cached body, no back-end work), and critical borrows up to a
// headroom multiple of its share before anything is refused. The class
// vocabulary and the per-class split of the budget are the live
// controller's own (admission.Class, admission.Limits).

// RouteOutcome is the terminal disposition of one simulated request.
type RouteOutcome uint8

// Outcomes.
const (
	// RouteOK: routed, served by a back end, relayed.
	RouteOK RouteOutcome = iota
	// RouteError: no route / no live replica.
	RouteError
	// RouteShed: refused by admission control (the 503 + Retry-After
	// rung).
	RouteShed
	// RouteStale: degraded to a front-end cached answer; the client got
	// bytes, no back end was touched.
	RouteStale
)

// AdmissionParams configures the simulated admission gate.
type AdmissionParams struct {
	// MaxConcurrent is the front end's concurrency budget; default 256.
	MaxConcurrent int
	// Shares split the budget per class (critical, interactive, batch);
	// default 3:2:1.
	Shares [admission.NumClasses]int
	// CriticalHeadroom lets the critical class borrow beyond its share
	// up to headroom x share before shedding; default 2.
	CriticalHeadroom float64
}

// frontAdmission is the per-class gate state (engine-driven, so plain
// ints — no concurrency inside a simulation run).
type frontAdmission struct {
	limit    [admission.NumClasses]int64
	critMax  int64
	inflight [admission.NumClasses]int64
}

// EnableAdmission arms SLO-class admission control on the front end.
// Call before traffic starts.
func (f *Frontend) EnableAdmission(p AdmissionParams) {
	headroom := p.CriticalHeadroom
	if headroom < 1 {
		headroom = 2
	}
	adm := &frontAdmission{limit: admission.Limits(p.MaxConcurrent, p.Shares)}
	adm.critMax = int64(float64(adm.limit[admission.Critical]) * headroom)
	f.adm = adm
}

// admit runs the admission ladder for one arrival; called from the CPU
// resource's completion (the front end has paid the parse/route cost
// either way). Returns the verdict; an admitted request holds a class
// slot until its back-end service completes.
func (a *frontAdmission) admit(c admission.Class) RouteOutcome {
	switch c {
	case admission.Batch:
		if a.inflight[c] >= a.limit[c] {
			return RouteShed
		}
	case admission.Interactive:
		if a.inflight[c] >= a.limit[c] {
			return RouteStale
		}
	default: // Critical borrows up to its headroom before refusing.
		if a.inflight[c] >= a.critMax {
			return RouteShed
		}
	}
	a.inflight[c]++
	return RouteOK
}

// RouteSLO sends one classified request through the front end: admission
// first (when enabled), then the same route/serve/relay path as Route.
// done receives the terminal outcome after the last relayed byte (for
// served and stale answers) or at the shed decision (nothing is relayed
// for a reject). With admission disabled every request takes the exact
// pre-admission path and only RouteOK/RouteError occur.
func (f *Frontend) RouteSLO(obj content.Object, slo admission.Class, done func(RouteOutcome)) {
	var decisionCost = f.hw.L4ForwardCPU
	if f.kind == FrontContentAware {
		decisionCost = f.hw.RouteLookupCPU
	}
	f.CPU.Enqueue(decisionCost, func() {
		if f.adm != nil {
			switch f.adm.admit(slo) {
			case RouteShed:
				// Refused before any routing work: the 503 costs only the
				// decision CPU already paid.
				done(RouteShed)
				return
			case RouteStale:
				// Degraded: the front end answers from its own cache — the
				// response bytes still cross the NIC, no back end is
				// touched.
				relay := bytesTime(obj.Size, f.hw.FrontendRelayBytesPerSec)
				chunk := bytesTime(64<<10, f.hw.FrontendRelayBytesPerSec)
				f.NIC.EnqueueChunked(relay, chunk, func() { done(RouteStale) })
				return
			}
		}
		node, err := f.pick(obj)
		if err != nil {
			f.releaseSLO(slo)
			done(RouteError)
			return
		}
		started := f.eng.Now()
		node.Serve(obj, func(ok bool) {
			// The admission slot covers the back-end service; the relay
			// back through the front end runs on the NIC after release.
			f.releaseSLO(slo)
			if f.observer != nil {
				f.observer(node.Spec.ID, obj.Class, f.eng.Now()-started)
			}
			// Relay the response bytes back through the front end,
			// chunked for fair link sharing.
			relay := bytesTime(obj.Size, f.hw.FrontendRelayBytesPerSec)
			chunk := bytesTime(64<<10, f.hw.FrontendRelayBytesPerSec)
			f.NIC.EnqueueChunked(relay, chunk, func() {
				if ok {
					done(RouteOK)
				} else {
					done(RouteError)
				}
			})
		})
	})
}

// releaseSLO returns an admitted request's class slot.
func (f *Frontend) releaseSLO(c admission.Class) {
	if f.adm != nil {
		f.adm.inflight[c]--
	}
}
