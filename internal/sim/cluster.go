package sim

import (
	"fmt"
	"time"

	"webcluster/internal/admission"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/loadbal"
	"webcluster/internal/urltable"
)

// FrontendKind selects the request-routing mechanism under test.
type FrontendKind int

// Front ends.
const (
	// FrontL4WLC is the baseline layer-4 TCP connection router with
	// Weighted Least Connection (configurations 1 and 2).
	FrontL4WLC FrontendKind = iota + 1
	// FrontContentAware is the paper's content-aware distributor
	// (configuration 3).
	FrontContentAware
)

// String names the front end.
func (k FrontendKind) String() string {
	switch k {
	case FrontL4WLC:
		return "l4-wlc"
	case FrontContentAware:
		return "content-aware"
	default:
		return fmt.Sprintf("FrontendKind(%d)", int(k))
	}
}

// Frontend models the cluster's front-end box: a CPU resource doing
// routing decisions and packet relay. Both mechanisms relay every byte
// through this machine, so its relay bandwidth caps cluster throughput
// exactly as the testbed's 100 Mbit distributor NIC does.
type Frontend struct {
	eng  *Engine
	hw   HardwareParams
	kind FrontendKind

	CPU *Resource
	NIC *Resource

	nodes  []*Node
	byID   map[config.NodeID]*Node
	table  *urltable.Table
	picker loadbal.Picker

	// observer, when set, sees each completed request with its node and
	// processing time — the simulation's stand-in for the distributor's
	// §3.3 load tracking.
	observer RequestObserver

	// adm, when non-nil, is the distributor's own admission controller
	// (EnableAdmission), stepped in virtual time; nil routes every
	// request.
	adm *admission.Controller
}

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

// RequestObserver receives each completed request's routing outcome.
type RequestObserver func(node config.NodeID, class content.Class, procTime time.Duration)

// NewFrontend builds the front end over nodes. table is required for
// FrontContentAware; picker defaults to WeightedLeastConn.
func NewFrontend(eng *Engine, hw HardwareParams, kind FrontendKind, nodes []*Node, table *urltable.Table, picker loadbal.Picker) (*Frontend, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("sim: frontend needs nodes")
	}
	if kind == FrontContentAware && table == nil {
		return nil, fmt.Errorf("sim: content-aware frontend needs a URL table")
	}
	if picker == nil {
		picker = loadbal.WeightedLeastConn{}
	}
	byID := make(map[config.NodeID]*Node, len(nodes))
	for _, n := range nodes {
		byID[n.Spec.ID] = n
	}
	return &Frontend{
		eng:    eng,
		hw:     hw,
		kind:   kind,
		CPU:    NewResource(eng),
		NIC:    NewResource(eng),
		nodes:  nodes,
		byID:   byID,
		table:  table,
		picker: picker,
	}, nil
}

// SetObserver registers the per-request completion callback. Call before
// traffic starts.
func (f *Frontend) SetObserver(fn RequestObserver) { f.observer = fn }

// Route sends one request through the front end to a back end and calls
// done(ok) after the response has been relayed back through the front
// end. Requests routed this way are interactive-class; a stale-degraded
// answer still counts as ok (the client got bytes).
func (f *Frontend) Route(obj content.Object, done func(ok bool)) {
	f.RouteSLO(obj, admission.Interactive, func(o RouteOutcome) {
		done(o == RouteOK || o == RouteStale)
	})
}

// EnableAdmission gates arrivals through an admission.Controller built
// from opts, the one the distributor runs, with its clock reading the
// engine's virtual time. Call before traffic starts.
func (f *Frontend) EnableAdmission(opts admission.Options) {
	opts.Clock = func() time.Time { return time.Unix(0, 0).Add(f.eng.Now()) }
	f.adm = admission.New(opts)
}

// RouteSLO sends one classified request through the front end: the
// admission decision first (when enabled), then route, serve and relay.
// A queued arrival is served the instant a Release hands it a slot, or
// takes its class's shed rung when MaxWait runs out first. done receives
// the terminal outcome after the last relayed byte (for served and stale
// answers) or at the shed decision (nothing is relayed for a reject).
// With admission disabled only RouteOK and RouteError occur.
func (f *Frontend) RouteSLO(obj content.Object, slo admission.Class, done func(RouteOutcome)) {
	var decisionCost = f.hw.L4ForwardCPU
	if f.kind == FrontContentAware {
		decisionCost = f.hw.RouteLookupCPU
	}
	f.CPU.Enqueue(decisionCost, func() {
		if f.adm == nil {
			f.serve(obj, slo, done)
			return
		}
		v, w := f.adm.Offer(slo, func() { f.serve(obj, slo, done) })
		if w != nil {
			f.eng.Schedule(f.adm.MaxWait(slo), func() {
				if v := f.adm.Expire(w); v != admission.Admitted {
					f.shed(obj, v, done)
				}
			})
			return
		}
		if v != admission.Admitted {
			f.shed(obj, v, done)
			return
		}
		f.serve(obj, slo, done)
	})
}

// shed answers a request admission turned away. A reject costs only the
// decision CPU already paid; a stale answer comes from the front end's
// own cache, so its bytes still cross the NIC but no back end is touched.
func (f *Frontend) shed(obj content.Object, v admission.Verdict, done func(RouteOutcome)) {
	if v != admission.ShedStale {
		done(RouteShed)
		return
	}
	f.relay(obj, func() { done(RouteStale) })
}

// serve routes an admitted request to a back end and relays the response
// back through the front end. The admission slot covers the back-end
// service; the relay runs on the NIC after release.
func (f *Frontend) serve(obj content.Object, slo admission.Class, done func(RouteOutcome)) {
	node, err := f.pick(obj)
	if err != nil {
		f.release(slo)
		done(RouteError)
		return
	}
	started := f.eng.Now()
	node.Serve(obj, func(ok bool) {
		f.release(slo)
		if f.observer != nil {
			f.observer(node.Spec.ID, obj.Class, f.eng.Now()-started)
		}
		f.relay(obj, func() {
			if ok {
				done(RouteOK)
			} else {
				done(RouteError)
			}
		})
	})
}

// relay sends obj's bytes through the front end's NIC, chunked for fair
// link sharing, and calls done after the last one.
func (f *Frontend) relay(obj content.Object, done func()) {
	d := bytesTime(obj.Size, f.hw.FrontendRelayBytesPerSec)
	chunk := bytesTime(64<<10, f.hw.FrontendRelayBytesPerSec)
	f.NIC.EnqueueChunked(d, chunk, done)
}

// release returns an admitted request's class slot.
func (f *Frontend) release(c admission.Class) {
	if f.adm != nil {
		f.adm.Release(c)
	}
}

// pick selects the back end per the front end's mechanism.
func (f *Frontend) pick(obj content.Object) (*Node, error) {
	var candidates []loadbal.NodeState
	if f.kind == FrontContentAware {
		rec, err := f.table.Route(obj.Path)
		if err != nil {
			return nil, err
		}
		candidates = make([]loadbal.NodeState, 0, len(rec.Locations))
		for _, id := range rec.Locations {
			n, ok := f.byID[id]
			if !ok || n.down {
				continue
			}
			candidates = append(candidates, loadbal.NodeState{
				ID:     id,
				Weight: n.Spec.EffectiveWeight(),
				Active: n.Active,
			})
		}
	} else {
		candidates = make([]loadbal.NodeState, 0, len(f.nodes))
		for _, n := range f.nodes {
			if n.down {
				continue
			}
			candidates = append(candidates, loadbal.NodeState{
				ID:     n.Spec.ID,
				Weight: n.Spec.EffectiveWeight(),
				Active: n.Active,
			})
		}
	}
	id, err := f.picker.Pick(candidates)
	if err != nil {
		return nil, err
	}
	n, ok := f.byID[id]
	if !ok {
		return nil, fmt.Errorf("sim: picker chose unknown node %s", id)
	}
	return n, nil
}

// Cluster bundles a simulated deployment: engine, nodes, optional NFS
// server, front end.
type Cluster struct {
	Engine   *Engine
	Nodes    []*Node
	NFS      *NFSNode
	Frontend *Frontend
	Table    *urltable.Table
}

// NodeByID returns the node with the given ID.
func (c *Cluster) NodeByID(id config.NodeID) (*Node, bool) {
	for _, n := range c.Nodes {
		if n.Spec.ID == id {
			return n, true
		}
	}
	return nil, false
}

// Apply carries out one §3.3 decision on the deployment, the table first
// and then the target's local set: the simulator's applier for
// loadbal.Round.Run. Copies are instantaneous at the interval scale (a
// ~10 KB object).
func (c *Cluster) Apply(d loadbal.Decision) error {
	n, ok := c.NodeByID(d.Target)
	if !ok {
		return fmt.Errorf("sim: no node %s", d.Target)
	}
	if d.Kind == loadbal.ActionOffload {
		if err := c.Table.RemoveLocation(d.Path, d.Target); err != nil {
			return err
		}
		n.Unplace(d.Path)
		return nil
	}
	if err := c.Table.AddLocation(d.Path, d.Target); err != nil {
		return err
	}
	n.Place(d.Path)
	return nil
}
