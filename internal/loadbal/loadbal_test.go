package loadbal

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/urltable"
)

func states(actives ...int64) []NodeState {
	out := make([]NodeState, len(actives))
	for i, a := range actives {
		out[i] = NodeState{ID: config.NodeID(rune('a' + i)), Weight: 1, Active: a}
	}
	return out
}

func TestWLCPicksLeastLoaded(t *testing.T) {
	var p WeightedLeastConn
	id, err := p.Pick(states(5, 2, 9))
	if err != nil || id != "b" {
		t.Fatalf("pick = %v, %v", id, err)
	}
}

func TestWLCRespectsWeights(t *testing.T) {
	var p WeightedLeastConn
	cands := []NodeState{
		{ID: "slow", Weight: 0.5, Active: 2}, // score 4
		{ID: "fast", Weight: 2.0, Active: 6}, // score 3
	}
	id, err := p.Pick(cands)
	if err != nil || id != "fast" {
		t.Fatalf("pick = %v, %v", id, err)
	}
}

func TestWLCZeroWeightTreatedAsOne(t *testing.T) {
	var p WeightedLeastConn
	cands := []NodeState{
		{ID: "w0", Weight: 0, Active: 1},
		{ID: "w1", Weight: 1, Active: 2},
	}
	id, err := p.Pick(cands)
	if err != nil || id != "w0" {
		t.Fatalf("pick = %v, %v", id, err)
	}
}

func TestPickersRejectEmpty(t *testing.T) {
	pickers := []Picker{WeightedLeastConn{}, LeastConn{}, NewRoundRobin(), NewRandom(1)}
	for _, p := range pickers {
		if _, err := p.Pick(nil); !errors.Is(err, ErrNoCandidates) {
			t.Errorf("%s: err = %v", p.Name(), err)
		}
	}
}

func TestLeastConnIgnoresWeights(t *testing.T) {
	var p LeastConn
	cands := []NodeState{
		{ID: "a", Weight: 100, Active: 3},
		{ID: "b", Weight: 0.1, Active: 2},
	}
	id, _ := p.Pick(cands)
	if id != "b" {
		t.Fatalf("pick = %v", id)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	p := NewRoundRobin()
	cands := states(0, 0, 0)
	var got []config.NodeID
	for i := 0; i < 6; i++ {
		id, err := p.Pick(cands)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, id)
	}
	want := []config.NodeID{"a", "b", "c", "a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v", got)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a := NewRandom(42)
	b := NewRandom(42)
	cands := states(0, 0, 0, 0)
	for i := 0; i < 20; i++ {
		ia, _ := a.Pick(cands)
		ib, _ := b.Pick(cands)
		if ia != ib {
			t.Fatal("same seed diverged")
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"wlc", "lc", "rr", "random"} {
		p, err := ByName(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("unknown picker accepted")
	}
}

// TestPropertyPickReturnsCandidate: every picker always returns one of
// the candidates.
func TestPropertyPickReturnsCandidate(t *testing.T) {
	pickers := []Picker{WeightedLeastConn{}, LeastConn{}, NewRoundRobin(), NewRandom(3)}
	f := func(actives []uint8) bool {
		if len(actives) == 0 {
			return true
		}
		cands := make([]NodeState, len(actives))
		valid := make(map[config.NodeID]bool, len(actives))
		for i, a := range actives {
			id := config.NodeID(string(rune('a' + i%26)))
			cands[i] = NodeState{ID: id, Weight: float64(i%3) + 0.5, Active: int64(a)}
			valid[id] = true
		}
		for _, p := range pickers {
			id, err := p.Pick(cands)
			if err != nil || !valid[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestLoadConstants(t *testing.T) {
	w := PaperWeights()
	// Static: (1+9)×t, dynamic: (10+5)×t (§3.3).
	tProc := 100 * time.Millisecond
	if got := w.RequestLoad(content.ClassHTML, tProc); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("static load = %g, want 1.0", got)
	}
	if got := w.RequestLoad(content.ClassCGI, tProc); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("dynamic load = %g, want 1.5", got)
	}
	if got := w.RequestLoad(content.ClassASP, tProc); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("ASP load = %g, want 1.5", got)
	}
	if got := w.RequestLoad(content.ClassVideo, tProc); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("video treated as static, got %g", got)
	}
}

func TestTrackerIntervalLoads(t *testing.T) {
	tr := NewTracker(PaperWeights())
	specs := []config.NodeSpec{
		{ID: "heavy", CPUMHz: 350, MemoryMB: 128}, // weight 1
		{ID: "light", CPUMHz: 175, MemoryMB: 128}, // weight 0.5
		{ID: "idle", CPUMHz: 350, MemoryMB: 128},
	}
	tr.Record("heavy", content.ClassHTML, 100*time.Millisecond) // l=1.0
	tr.Record("heavy", content.ClassCGI, 100*time.Millisecond)  // l=1.5
	tr.Record("light", content.ClassHTML, 100*time.Millisecond) // l=1.0 /0.5
	loads := tr.IntervalLoads(specs)
	if math.Abs(loads["heavy"]-2.5) > 1e-9 {
		t.Fatalf("heavy = %g", loads["heavy"])
	}
	if math.Abs(loads["light"]-2.0) > 1e-9 {
		t.Fatalf("light = %g (weight division)", loads["light"])
	}
	if loads["idle"] != 0 {
		t.Fatalf("idle = %g", loads["idle"])
	}
	// Interval reset: second call sees zero.
	loads2 := tr.IntervalLoads(specs)
	for id, l := range loads2 {
		if l != 0 {
			t.Fatalf("%s load after reset = %g", id, l)
		}
	}
}

func TestTrackerRequests(t *testing.T) {
	tr := NewTracker(PaperWeights())
	tr.Record("a", content.ClassHTML, time.Millisecond)
	tr.Record("a", content.ClassHTML, time.Millisecond)
	reqs := tr.Requests()
	if reqs["a"] != 2 {
		t.Fatalf("requests = %v", reqs)
	}
}

func TestClassify(t *testing.T) {
	loads := map[config.NodeID]float64{"a": 10, "b": 5, "c": 0.5}
	// avg ≈ 5.17; threshold 0.25 → over >6.46, under <3.88.
	levels := Classify(loads, 0.25)
	if levels["a"] != LevelOverloaded {
		t.Fatalf("a = %v", levels["a"])
	}
	if levels["b"] != LevelBalanced {
		t.Fatalf("b = %v", levels["b"])
	}
	if levels["c"] != LevelUnderutilized {
		t.Fatalf("c = %v", levels["c"])
	}
}

func TestClassifyIdleCluster(t *testing.T) {
	levels := Classify(map[config.NodeID]float64{"a": 0, "b": 0}, 0.25)
	for id, l := range levels {
		if l != LevelBalanced {
			t.Fatalf("%s = %v on idle cluster", id, l)
		}
	}
}

func TestSortedNodes(t *testing.T) {
	loads := map[config.NodeID]float64{"x": 3, "y": 1, "z": 2, "a": 1}
	order := SortedNodes(loads)
	want := []config.NodeID{"a", "y", "z", "x"} // ties by ID
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func newTableWith(t *testing.T, entries map[string][]config.NodeID, hits map[string]int64) *urltable.Table {
	t.Helper()
	tbl := urltable.New(urltable.Options{})
	for path, locs := range entries {
		obj := content.Object{Path: path, Size: 100, Class: content.Classify(path)}
		if err := tbl.Insert(obj, locs...); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < hits[path]; i++ {
			if _, err := tbl.Route(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tbl
}

func TestPlanReplicatesToUnderutilized(t *testing.T) {
	tbl := newTableWith(t,
		map[string][]config.NodeID{
			"/hot.html":  {"busy"},
			"/warm.html": {"busy"},
			"/cold.html": {"busy"},
		},
		map[string]int64{"/hot.html": 100, "/warm.html": 50, "/cold.html": 1},
	)
	loads := map[config.NodeID]float64{"busy": 10, "idle": 0}
	actions := PlanDecisions(loads, tbl, PlannerOptions{Threshold: 0.25, MaxActionsPerNode: 2, MinHits: 10})
	if len(actions) == 0 {
		t.Fatal("no actions planned")
	}
	var hotToIdle bool
	for _, a := range actions {
		if a.Kind == ActionReplicate && a.Target == "idle" {
			if a.Path == "/cold.html" {
				t.Fatal("cold content replicated despite MinHits")
			}
			if a.Path == "/hot.html" {
				hotToIdle = true
			}
			if a.Source != "busy" {
				t.Fatalf("source = %s", a.Source)
			}
		}
	}
	if !hotToIdle {
		t.Fatalf("hottest object not replicated: %v", actions)
	}
}

func TestPlanOffloadsMultiCopyContent(t *testing.T) {
	tbl := newTableWith(t,
		map[string][]config.NodeID{
			"/hot.html": {"over", "other"},
		},
		map[string]int64{"/hot.html": 100},
	)
	loads := map[config.NodeID]float64{"over": 10, "other": 4, "third": 4}
	actions := PlanDecisions(loads, tbl, PlannerOptions{Threshold: 0.25, MaxActionsPerNode: 2, MinHits: 10})
	found := false
	for _, a := range actions {
		if a.Kind == ActionOffload && a.Path == "/hot.html" && a.Target == "over" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no offload planned: %v", actions)
	}
}

func TestPlanStagesSoleCopyReplication(t *testing.T) {
	tbl := newTableWith(t,
		map[string][]config.NodeID{"/hot.html": {"over"}},
		map[string]int64{"/hot.html": 100},
	)
	loads := map[config.NodeID]float64{"over": 10, "cold": 3.99} // cold is balanced-ish
	actions := PlanDecisions(loads, tbl, PlannerOptions{Threshold: 0.5, MaxActionsPerNode: 2, MinHits: 10})
	// "over" is overloaded (10 > 7×1.5=10.49? avg=6.995, over>10.49 — no).
	// Use a clearer spread:
	loads = map[config.NodeID]float64{"over": 20, "cold": 1}
	actions = PlanDecisions(loads, tbl, PlannerOptions{Threshold: 0.5, MaxActionsPerNode: 2, MinHits: 10})
	var staged bool
	for _, a := range actions {
		if a.Kind == ActionReplicate && a.Path == "/hot.html" && a.Source == "over" {
			staged = true
		}
	}
	if !staged {
		t.Fatalf("sole-copy hot content not staged for offload: %v", actions)
	}
}

func TestPlanIdleClusterNoActions(t *testing.T) {
	tbl := newTableWith(t, map[string][]config.NodeID{"/a.html": {"n1"}}, nil)
	loads := map[config.NodeID]float64{"n1": 0, "n2": 0}
	if actions := PlanDecisions(loads, tbl, DefaultPlannerOptions()); len(actions) != 0 {
		t.Fatalf("idle cluster planned %v", actions)
	}
}

func TestPlanRespectsMaxActions(t *testing.T) {
	entries := map[string][]config.NodeID{}
	hits := map[string]int64{}
	for i := 0; i < 20; i++ {
		p := "/p" + string(rune('a'+i)) + ".html"
		entries[p] = []config.NodeID{"busy"}
		hits[p] = 100
	}
	tbl := newTableWith(t, entries, hits)
	loads := map[config.NodeID]float64{"busy": 10, "idle": 0}
	actions := PlanDecisions(loads, tbl, PlannerOptions{Threshold: 0.25, MaxActionsPerNode: 3, MinHits: 10})
	replicas := 0
	for _, a := range actions {
		if a.Kind == ActionReplicate && a.Target == "idle" {
			replicas++
		}
	}
	if replicas > 3 {
		t.Fatalf("planned %d replicas to one node, cap is 3", replicas)
	}
}

func TestActionString(t *testing.T) {
	a := Action{Kind: ActionReplicate, Path: "/p", Source: "s", Target: "t"}
	if a.String() != "replicate /p s→t" {
		t.Fatalf("String = %q", a.String())
	}
	b := Action{Kind: ActionOffload, Path: "/p", Target: "t"}
	if b.String() != "offload /p from t" {
		t.Fatalf("String = %q", b.String())
	}
}

func TestLevelString(t *testing.T) {
	if LevelBalanced.String() != "balanced" ||
		LevelOverloaded.String() != "overloaded" ||
		LevelUnderutilized.String() != "underutilized" {
		t.Fatal("level names wrong")
	}
}

func TestLeastLoadPicksLowestLoad(t *testing.T) {
	var p LeastLoad
	cands := []NodeState{
		{ID: "busy", Weight: 1, Active: 1, Load: 9.5},
		{ID: "calm", Weight: 1, Active: 8, Load: 1.5},
	}
	id, err := p.Pick(cands)
	if err != nil || id != "calm" {
		t.Fatalf("pick = %v, %v", id, err)
	}
}

func TestLeastLoadTieBreaksByActive(t *testing.T) {
	var p LeastLoad
	cands := []NodeState{
		{ID: "a", Weight: 1, Active: 5, Load: 2},
		{ID: "b", Weight: 1, Active: 1, Load: 2},
	}
	id, err := p.Pick(cands)
	if err != nil || id != "b" {
		t.Fatalf("pick = %v, %v", id, err)
	}
}

func TestLeastLoadEmpty(t *testing.T) {
	var p LeastLoad
	if _, err := p.Pick(nil); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v", err)
	}
}

func TestByNameLeastLoad(t *testing.T) {
	p, err := ByName("leastload", 1)
	if err != nil || p.Name() != "leastload" {
		t.Fatalf("ByName = %v, %v", p, err)
	}
}

func TestPlanSkipsPinnedContent(t *testing.T) {
	tbl := urltable.New(urltable.Options{})
	obj := content.Object{Path: "/mutable.html", Size: 100, Class: content.ClassHTML}
	if err := tbl.Insert(obj, "busy"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetPinned("/mutable.html", true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_, _ = tbl.Route("/mutable.html")
	}
	loads := map[config.NodeID]float64{"busy": 10, "idle": 0}
	actions := PlanDecisions(loads, tbl, PlannerOptions{Threshold: 0.25, MaxActionsPerNode: 3, MinHits: 10})
	for _, a := range actions {
		if a.Path == "/mutable.html" {
			t.Fatalf("planner moved pinned content: %v", a)
		}
	}
}

func TestPlanPriorityFloorReplicates(t *testing.T) {
	tbl := urltable.New(urltable.Options{})
	crit := content.Object{Path: "/shop/cart.html", Size: 100, Class: content.ClassHTML, Priority: 2}
	if err := tbl.Insert(crit, "n1"); err != nil {
		t.Fatal(err)
	}
	// No load at all: the availability floor still applies.
	loads := map[config.NodeID]float64{"n1": 0, "n2": 0, "n3": 0}
	actions := PlanDecisions(loads, tbl, PlannerOptions{
		Threshold: 0.25, MaxActionsPerNode: 3, MinHits: 10, PriorityMinCopies: 3,
	})
	targets := map[config.NodeID]bool{}
	for _, a := range actions {
		if a.Kind != ActionReplicate || a.Path != "/shop/cart.html" {
			t.Fatalf("unexpected action %v", a)
		}
		targets[a.Target] = true
	}
	if len(targets) != 2 || !targets["n2"] || !targets["n3"] {
		t.Fatalf("priority floor targets = %v, want n2+n3", targets)
	}
}

func TestPlanPriorityFloorSkipsPinned(t *testing.T) {
	tbl := urltable.New(urltable.Options{})
	crit := content.Object{Path: "/shop/cart.html", Size: 100, Class: content.ClassHTML, Priority: 2}
	_ = tbl.Insert(crit, "n1")
	_ = tbl.SetPinned("/shop/cart.html", true)
	loads := map[config.NodeID]float64{"n1": 0, "n2": 0}
	actions := PlanDecisions(loads, tbl, PlannerOptions{
		Threshold: 0.25, MaxActionsPerNode: 3, MinHits: 10, PriorityMinCopies: 2,
	})
	if len(actions) != 0 {
		t.Fatalf("pinned priority content moved: %v", actions)
	}
}

func TestPlanPriorityFloorSatisfiedNoop(t *testing.T) {
	tbl := urltable.New(urltable.Options{})
	crit := content.Object{Path: "/shop/cart.html", Size: 100, Class: content.ClassHTML, Priority: 1}
	_ = tbl.Insert(crit, "n1", "n2")
	loads := map[config.NodeID]float64{"n1": 0, "n2": 0, "n3": 0}
	actions := PlanDecisions(loads, tbl, DefaultPlannerOptions())
	if len(actions) != 0 {
		t.Fatalf("satisfied floor still planned %v", actions)
	}
}

// Two overloaded nodes share a two-copy path: only one may shed its copy,
// or the second offload would remove the last one and fail.
func TestPlanOffloadKeepsALiveCopy(t *testing.T) {
	tbl := newTableWith(t,
		map[string][]config.NodeID{"/x.html": {"a", "b"}},
		map[string]int64{"/x.html": 100},
	)
	loads := map[config.NodeID]float64{"a": 10, "b": 10, "c": 0, "d": 0}
	decs := PlanDecisions(loads, tbl, PlannerOptions{Threshold: 0.25, MaxActionsPerNode: 3, MinHits: 10})
	offloads := 0
	for _, d := range decs {
		if d.Kind == ActionOffload {
			offloads++
		}
	}
	if offloads != 1 {
		t.Fatalf("%d offloads of a two-copy path, want 1: %v", offloads, decs)
	}
	for _, d := range decs {
		var err error
		if d.Kind == ActionOffload {
			err = tbl.RemoveLocation(d.Path, d.Target)
		} else {
			err = tbl.AddLocation(d.Path, d.Target)
		}
		if err != nil {
			t.Fatalf("applying %v: %v", d.Action, err)
		}
	}
}

// A node without a load reading is down: its copies hold nothing for the
// planner, yet the availability floor still counts them.
func TestPlanIgnoresCopiesOutsideLiveSet(t *testing.T) {
	tbl := newTableWith(t,
		map[string][]config.NodeID{
			"/a.html": {"n1", "n2"},
			"/b.html": {"n1"},
		},
		map[string]int64{"/a.html": 50, "/b.html": 40},
	)
	for path, locs := range map[string][]config.NodeID{"/crit.html": {"n1", "n2"}, "/crit2.html": {"n2"}} {
		obj := content.Object{Path: path, Size: 100, Class: content.ClassHTML, Priority: 1}
		if err := tbl.Insert(obj, locs...); err != nil {
			t.Fatal(err)
		}
	}
	loads := map[config.NodeID]float64{"n1": 10, "n3": 0} // n2 is down
	decs := PlanDecisions(loads, tbl, PlannerOptions{
		Threshold: 0.25, MaxActionsPerNode: 3, MinHits: 10, PriorityMinCopies: 2,
	})
	if len(decs) == 0 {
		t.Fatal("no decisions for a hot spot beside a cold node")
	}
	for _, d := range decs {
		if d.Target == "n2" || d.Source == "n2" {
			t.Fatalf("decision involves the down node: %v", d.Action)
		}
		for _, r := range d.Rejected {
			if strings.HasPrefix(r, "n2") {
				t.Fatalf("down node listed as a source alternative: %v %v", d.Action, d.Rejected)
			}
		}
		if d.Kind == ActionOffload && d.Path == "/a.html" {
			t.Fatalf("offload leaves the down node as /a.html's only other holder: %v", d.Action)
		}
		if d.Path == "/crit.html" || d.Path == "/crit2.html" {
			t.Fatalf("availability floor moved %s although the table records two copies or no live one: %v", d.Path, d.Action)
		}
	}
}

// A round plans over the nodes Live reports up, applies every decision in
// order, keeps each applier answer and resets the interval's hits.
func TestRoundPlansOverLiveNodes(t *testing.T) {
	tbl := newTableWith(t,
		map[string][]config.NodeID{"/hot.html": {"busy"}, "/warm.html": {"busy"}},
		map[string]int64{"/hot.html": 100, "/warm.html": 50},
	)
	tr := NewTracker(PaperWeights())
	tr.Record("busy", content.ClassHTML, time.Second)
	refused := errors.New("refused")
	var applied []string
	round := Round{
		Tracker: tr,
		Nodes:   []config.NodeSpec{{ID: "busy"}, {ID: "down"}, {ID: "idle"}},
		Live:    func(id config.NodeID) bool { return id != "down" },
		Table:   tbl,
		Planner: PlannerOptions{Threshold: 0.25, MaxActionsPerNode: 3, MinHits: 10},
	}
	loads, decs := round.Run(func(d Decision) error {
		applied = append(applied, d.Path)
		if d.Path == "/warm.html" {
			return refused
		}
		return nil
	})
	if _, ok := loads["down"]; ok || len(loads) != 2 {
		t.Fatalf("loads = %v, want busy and idle only", loads)
	}
	if len(decs) != 2 || len(applied) != 2 {
		t.Fatalf("decisions %v, applied %v; want both paths replicated to idle", decs, applied)
	}
	for i, d := range decs {
		if d.Target != "idle" || d.Path != applied[i] {
			t.Fatalf("decision %d = %v, applied %s", i, d.Action, applied[i])
		}
		if want := d.Path == "/warm.html"; (d.Err != nil) != want {
			t.Fatalf("%s: Err = %v", d.Path, d.Err)
		}
	}
	tbl.Walk(func(r urltable.Record) {
		if r.Hits != 0 {
			t.Fatalf("%s keeps %d hits after the round", r.Path, r.Hits)
		}
	})
}
