package loadbal_test

import (
	"fmt"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/loadbal"
	"webcluster/internal/urltable"
)

// Example walks the full §3.3 loop: the distributor records per-request
// loads, the interval closes into L_j values, nodes are classified against
// the cluster average, and one round plans and applies placement changes.
func Example() {
	specs := []config.NodeSpec{
		{ID: "hot", CPUMHz: 350, MemoryMB: 128},
		{ID: "idle", CPUMHz: 350, MemoryMB: 128},
	}
	table := urltable.New(urltable.Options{})
	obj := content.Object{Path: "/popular.html", Size: 4096, Class: content.ClassHTML}
	_ = table.Insert(obj, "hot")

	tracker := loadbal.NewTracker(loadbal.PaperWeights())
	record := func() {
		for i := 0; i < 100; i++ {
			// Every request lands on "hot" (it has the only copy) and is
			// counted in the URL table and the tracker.
			_, _ = table.Route("/popular.html")
			tracker.Record("hot", content.ClassHTML, 10*time.Millisecond)
		}
	}

	record()
	loads := tracker.IntervalLoads(specs)
	fmt.Printf("L(hot)=%.1f L(idle)=%.1f\n", loads["hot"], loads["idle"])
	levels := loadbal.Classify(loads, 0.25)
	fmt.Printf("hot=%s idle=%s\n", levels["hot"], levels["idle"])

	// A round closes the next interval itself; its applier here edits the
	// table alone (the live controller copies files, the simulator marks
	// its nodes).
	record()
	round := loadbal.Round{
		Tracker: tracker,
		Nodes:   specs,
		Table:   table,
		Planner: loadbal.PlannerOptions{Threshold: 0.25, MaxActionsPerNode: 1, MinHits: 10},
	}
	_, decs := round.Run(func(d loadbal.Decision) error {
		return table.AddLocation(d.Path, d.Target)
	})
	for _, d := range decs {
		fmt.Println(d.Action, d.Reason, d.Err)
	}
	rec, _ := table.Lookup("/popular.html")
	fmt.Println(rec.Locations, rec.Hits)

	// Output:
	// L(hot)=10.0 L(idle)=0.0
	// hot=overloaded idle=underutilized
	// replicate /popular.html hot→idle replicate-hot-to-cold <nil>
	// [hot idle] 0
}
