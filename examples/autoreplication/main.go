// Autoreplication: the §3.3 load-balancing facility. All popular content
// starts on one node (a hot spot); the distributor's load tracker
// accumulates l_i = (loadCPU+loadDisk)×processing_time per node; the
// balancer classifies nodes against the cluster average and the controller
// replicates hot objects to the underutilized nodes — after which the
// distributor's replica picker spreads the traffic.
package main

import (
	"fmt"
	"log"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/core"
	"webcluster/internal/loadbal"
	"webcluster/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Slow the slow node down artificially so load differences are
	// visible in wall-clock processing times.
	delayFor := func(spec config.NodeSpec) backend.DelayFunc {
		scale := 350.0 / float64(spec.CPUMHz)
		return func(r backend.ServedRequest) time.Duration {
			base := 3 * time.Millisecond
			if r.CacheHit {
				base = 1500 * time.Microsecond
			}
			return time.Duration(float64(base) * scale)
		}
	}
	cluster, err := core.Launch(core.Options{
		DelayFor: delayFor,
		BalanceOptions: loadbal.PlannerOptions{
			Threshold:         0.25,
			MaxActionsPerNode: 4,
			MinHits:           5,
		},
	})
	if err != nil {
		return err
	}
	defer func() { _ = cluster.Close() }()

	// Hot spot: every page on slow-1 only.
	site, err := content.GenerateSite(content.GenParams{
		Objects:         60,
		Seed:            7,
		MeanStaticBytes: 2048,
	})
	if err != nil {
		return err
	}
	for _, obj := range site.Objects() {
		if err := cluster.Controller.Insert(obj,
			backend.SynthesizeBody(obj.Path, obj.Size), "slow-1"); err != nil {
			return err
		}
	}
	fmt.Println("initial placement: all 60 objects on slow-1 only")

	// Drive Zipf traffic through the front end.
	report, err := workload.RunClientPool(workload.ClientPoolOptions{
		Addr:      cluster.FrontAddr,
		Clients:   8,
		Duration:  800 * time.Millisecond,
		Site:      site,
		Seed:      1,
		KeepAlive: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("phase 1 (hot spot): %s\n", report)

	// Close the load interval and apply the planner's actions.
	decs := cluster.Balancer.RunOnce()
	fmt.Printf("balancer planned %d actions:\n", len(decs))
	for _, d := range decs {
		fmt.Printf("   %v: %s\n", d.Action, d.Outcome())
	}

	// Show the new placement of the hottest objects.
	fmt.Println("hot objects after rebalancing:")
	for rank := 0; rank < 4; rank++ {
		rec, err := cluster.Table.Lookup(site.ByRank(rank).Path)
		if err != nil {
			return err
		}
		fmt.Printf("  %-34s @ %v\n", rec.Path, rec.Locations)
	}

	// Run the same traffic again: replicas now absorb it.
	report2, err := workload.RunClientPool(workload.ClientPoolOptions{
		Addr:      cluster.FrontAddr,
		Clients:   8,
		Duration:  800 * time.Millisecond,
		Site:      site,
		Seed:      2,
		KeepAlive: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("phase 2 (rebalanced): %s\n", report2)
	fmt.Printf("throughput change: %.1f → %.1f req/s\n",
		report.Throughput(), report2.Throughput())

	// Per-node serve counts show the spread.
	for _, id := range cluster.Controller.Nodes() {
		st, err := cluster.Controller.Status(id)
		if err != nil {
			return err
		}
		fmt.Printf("node %-8s served %5d requests (cache hit %.1f%%)\n",
			id, st.RequestsServed, 100*st.CacheHitRate)
	}
	return nil
}
