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

	// adm, when non-nil, gates arrivals through the simulated SLO-class
	// admission ladder (EnableAdmission); nil routes every request.
	adm *frontAdmission
}

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
