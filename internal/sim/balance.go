package sim

import (
	"fmt"
	"strings"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/loadbal"
	"webcluster/internal/urltable"
	"webcluster/internal/workload"
)

// This file reproduces the §3.3 claim the paper states but does not plot:
// "the load balancing and auto-replication mechanism could further ensure
// an even load distribution and self-configure with respect to the change
// of content access pattern". The experiment starts from a deliberately
// skewed placement (all content crammed onto a few nodes), runs the real
// loadbal planner on real tracker output at fixed virtual intervals, and
// records per-interval throughput and load imbalance as replicas spread.

// BalancePoint is one auto-balancing interval's measurements.
type BalancePoint struct {
	// At is the virtual end time of the interval.
	At time.Duration
	// Throughput is requests/second completed during the interval.
	Throughput float64
	// LoadCV is the coefficient of variation of per-node load (stddev /
	// mean): 0 is perfectly even, higher is more imbalanced.
	LoadCV float64
	// Actions is how many placement changes the planner issued.
	Actions int
	// Replicas is the total number of content copies in the table.
	Replicas int
}

// BalanceData is the auto-replication experiment's series.
type BalanceData struct {
	Points []BalancePoint
}

// Render formats the series as a table.
func (d BalanceData) Render() string {
	var b strings.Builder
	b.WriteString("§3.3 auto-replication: skewed placement converging under load\n")
	fmt.Fprintf(&b, "%-10s%12s%10s%10s%10s\n", "t(virt)", "req/s", "load-CV", "actions", "copies")
	for _, p := range d.Points {
		fmt.Fprintf(&b, "%-10v%12.1f%10.2f%10d%10d\n",
			p.At, p.Throughput, p.LoadCV, p.Actions, p.Replicas)
	}
	return b.String()
}

// BalanceParams configures the auto-replication experiment.
type BalanceParams struct {
	Spec     config.ClusterSpec
	Hardware HardwareParams
	// Objects sizes the (static) site.
	Objects int
	// HotNodes is how many nodes initially hold everything.
	HotNodes int
	// Clients is the closed-loop population.
	Clients int
	// Interval is the balancing period in virtual time.
	Interval time.Duration
	// Rounds is how many intervals to run.
	Rounds int
	// Planner tunes the §3.3 planner.
	Planner loadbal.PlannerOptions
	Seed    int64
}

// DefaultBalanceParams returns the standard setup: the paper testbed with
// every object initially on 2 nodes of 9.
func DefaultBalanceParams() BalanceParams {
	return BalanceParams{
		Spec:     config.PaperTestbed(),
		Hardware: DefaultHardware(),
		Objects:  4000,
		HotNodes: 2,
		Clients:  64,
		Interval: 4 * time.Second,
		Rounds:   8,
		Planner: loadbal.PlannerOptions{
			Threshold:         0.25,
			MaxActionsPerNode: 8,
			MinHits:           20,
		},
		Seed: 1,
	}
}

// AutoBalanceExperiment runs the convergence experiment and returns the
// per-interval series. Placement changes take effect instantaneously (the
// copy cost of a ~10 KB object is negligible at the interval scale).
func AutoBalanceExperiment(p BalanceParams) (BalanceData, error) {
	if p.HotNodes < 1 || p.HotNodes > len(p.Spec.Nodes) {
		return BalanceData{}, fmt.Errorf("sim: invalid HotNodes %d", p.HotNodes)
	}
	site, err := workload.BuildSite(workload.KindA, p.Objects, p.Seed)
	if err != nil {
		return BalanceData{}, err
	}

	// Skewed initial placement: everything on the first HotNodes nodes,
	// round-robin single copy.
	table := urltable.New(urltable.Options{})
	for rank := 0; rank < site.Len(); rank++ {
		obj := site.ByRank(rank)
		node := p.Spec.Nodes[rank%p.HotNodes].ID
		if err := table.Insert(obj, node); err != nil {
			return BalanceData{}, err
		}
	}

	eng := &Engine{}
	cluster, err := BuildCustom(eng, p.Hardware, p.Spec, table, nil)
	if err != nil {
		return BalanceData{}, err
	}

	// Per-request load tracking with virtual processing times.
	tracker := loadbal.NewTracker(loadbal.PaperWeights())
	cluster.Frontend.SetObserver(func(node config.NodeID, class content.Class, procTime time.Duration) {
		tracker.Record(node, class, procTime)
	})

	// Closed-loop clients.
	var completed int64
	for i := 0; i < p.Clients; i++ {
		gen, err := workload.NewGenerator(site, workload.DefaultZipfS, p.Seed+int64(i)*7919)
		if err != nil {
			return BalanceData{}, err
		}
		var issue func()
		issue = func() {
			obj := gen.Next()
			cluster.Frontend.Route(obj, func(bool) {
				completed++
				issue()
			})
		}
		start := time.Duration(i) * time.Second / time.Duration(p.Clients)
		eng.Schedule(start, issue)
	}

	var data BalanceData
	var prevCompleted int64
	for round := 0; round < p.Rounds; round++ {
		end := time.Duration(round+1) * p.Interval
		eng.Run(end)

		loads := tracker.IntervalLoads(p.Spec.Nodes)
		actions := loadbal.Plan(loads, table, p.Planner)
		applied := 0
		for _, a := range actions {
			switch a.Kind {
			case loadbal.ActionReplicate:
				if err := table.AddLocation(a.Path, a.Target); err == nil {
					if n, ok := cluster.NodeByID(a.Target); ok {
						n.Place(a.Path)
					}
					applied++
				}
			case loadbal.ActionOffload:
				if err := table.RemoveLocation(a.Path, a.Target); err == nil {
					if n, ok := cluster.NodeByID(a.Target); ok {
						n.Unplace(a.Path)
					}
					applied++
				}
			}
		}
		table.ResetHits()

		replicas := 0
		table.Walk(func(r urltable.Record) { replicas += len(r.Locations) })
		intervalReqs := completed - prevCompleted
		prevCompleted = completed
		data.Points = append(data.Points, BalancePoint{
			At:         end,
			Throughput: float64(intervalReqs) / p.Interval.Seconds(),
			LoadCV:     loadbal.LoadCV(loads),
			Actions:    applied,
			Replicas:   replicas,
		})
	}
	return data, nil
}
