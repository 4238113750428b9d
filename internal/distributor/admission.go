package distributor

// SLO-class admission control at the front end. When Options.Admission
// is set, every parsed request is classified (X-Dist-Class header, then
// URL-prefix rules) and passed through the per-class admission gate
// before any routing work happens. Admitted requests are stamped with a
// per-class downstream deadline (X-Dist-Deadline) so back ends can
// cancel work the client has given up on; shed requests take the
// progressive ladder — batch gets an immediate 503 + Retry-After,
// interactive degrades to the response cache's stale-on-error path when
// an expired copy is available, and only a fully saturated critical
// class sees a bare 503. With Options.Admission nil none of this code
// runs and the request path is byte-identical to an admission-free
// build.

import (
	"webcluster/internal/admission"
	"webcluster/internal/journal"
)

// Admission returns the distributor's admission controller, nil when
// overload control is disabled.
func (d *Distributor) Admission() *admission.Controller { return d.adm }

// journalAdmission records admission-ladder *shifts*: the first shed
// verdict for a class after a quiet period (the ladder engaged) and the
// first admit after shedding (the class recovered). Steady-state
// requests — admitted while quiet, shed while already shedding — cost
// one atomic load and record nothing.
func (d *Distributor) journalAdmission(class admission.Class, verdict admission.Verdict) {
	if d.jnl == nil {
		return
	}
	if verdict == admission.Admitted {
		if d.shedding[class].Load() && d.shedding[class].CompareAndSwap(true, false) {
			name := class.String()
			d.jnl.Record(journal.Event{
				Actor:  journal.ActorDistributor,
				Kind:   journal.KindAdmissionRecover,
				Detail: name,
			})
		}
		return
	}
	if !d.shedding[class].Load() && d.shedding[class].CompareAndSwap(false, true) {
		name := class.String() + " " + verdict.String()
		d.jnl.Record(journal.Event{
			Actor:  journal.ActorDistributor,
			Kind:   journal.KindAdmissionShed,
			Detail: name,
		})
	}
}
