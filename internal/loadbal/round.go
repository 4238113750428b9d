package loadbal

import (
	"webcluster/internal/config"
	"webcluster/internal/urltable"
)

// Round is the §3.3 balancing interval, the one both the live
// auto-balancer and the simulator run. Each run closes the tracker's
// interval over the nodes that are up, plans with PlanDecisions, hands
// each decision in order to the caller's applier and resets the table's
// interval hit counters.
//
// Live is the one rule for which nodes a round plans over: a node it
// reports down gets no load reading, so the planner never targets it and
// counts its copies as no holder (PlanDecisions has the details).
type Round struct {
	Tracker *Tracker
	// Nodes is every node of the deployment; Live filters it per round.
	Nodes []config.NodeSpec
	// Live reports whether a node is up; nil counts every node up.
	Live    func(config.NodeID) bool
	Table   *urltable.Table
	Planner PlannerOptions
	// Publish, when set, receives each closed interval's loads before
	// anything is planned (the distributor's load-aware picker).
	Publish func(map[config.NodeID]float64)
}

// Loads closes the tracker's interval and returns L_j for each node that
// is up.
func (r Round) Loads() map[config.NodeID]float64 {
	up := make([]config.NodeSpec, 0, len(r.Nodes))
	for _, n := range r.Nodes {
		if r.Live == nil || r.Live(n.ID) {
			up = append(up, n)
		}
	}
	loads := r.Tracker.IntervalLoads(up)
	if r.Publish != nil {
		r.Publish(loads)
	}
	return loads
}

// Run is one whole round. apply carries out one decision and returns nil
// once it is applied; its answer becomes the decision's Err. A decision
// that fails is skipped: a missed rebalance is recoverable next interval.
// Run returns the loads the round planned against and its decisions.
func (r Round) Run(apply func(Decision) error) (map[config.NodeID]float64, []Decision) {
	loads := r.Loads()
	decs := PlanDecisions(loads, r.Table, r.Planner)
	for i := range decs {
		decs[i].Err = apply(decs[i])
	}
	r.Table.ResetHits()
	return loads, decs
}
