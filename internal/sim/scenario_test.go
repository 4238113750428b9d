package sim

import (
	"strings"
	"testing"
	"time"

	"webcluster/internal/admission"
	"webcluster/internal/workload"
)

func TestEngineStepPrimitives(t *testing.T) {
	var eng Engine
	if eng.HasPendingEvents() {
		t.Fatal("fresh engine claims pending events")
	}
	if _, ok := eng.PeekNextEventTime(); ok {
		t.Fatal("fresh engine peeked an event")
	}
	if eng.ProcessNextEvent() {
		t.Fatal("fresh engine processed an event")
	}

	var fired []time.Duration
	for _, at := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		at := at
		eng.ScheduleAt(at, func() { fired = append(fired, at) })
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := 0; eng.HasPendingEvents(); i++ {
		at, ok := eng.PeekNextEventTime()
		if !ok || at != want[i] {
			t.Fatalf("peek %d = %v,%v, want %v", i, at, ok, want[i])
		}
		// Peek must not advance the clock or consume the event.
		if eng.Now() > want[i] {
			t.Fatalf("peek advanced the clock to %v", eng.Now())
		}
		if !eng.ProcessNextEvent() {
			t.Fatalf("process %d returned false with events pending", i)
		}
		if eng.Now() != want[i] {
			t.Fatalf("clock after process %d = %v, want %v", i, eng.Now(), want[i])
		}
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if eng.Executed() != 3 {
		t.Fatalf("executed = %d, want 3", eng.Executed())
	}
}

// Run and the step primitives must drive the same heap identically — the
// scenario loop is just Run with a peek-ahead cutoff.
func TestEngineStepMatchesRun(t *testing.T) {
	build := func(eng *Engine, got *[]int) {
		for i := 0; i < 5; i++ {
			i := i
			eng.Schedule(time.Duration(5-i)*time.Millisecond, func() {
				*got = append(*got, i)
				if i == 4 { // nested event at the same instant
					eng.Schedule(0, func() { *got = append(*got, 100) })
				}
			})
		}
	}
	var ran, stepped []int
	var a, b Engine
	build(&a, &ran)
	a.Run(time.Second)
	build(&b, &stepped)
	for b.HasPendingEvents() {
		b.ProcessNextEvent()
	}
	if len(ran) != len(stepped) {
		t.Fatalf("run executed %d, step executed %d", len(ran), len(stepped))
	}
	for i := range ran {
		if ran[i] != stepped[i] {
			t.Fatalf("order diverges at %d: run %v, step %v", i, ran, stepped)
		}
	}
}

// Simultaneous events keep their scheduling order regardless of how they
// were scheduled (relative Schedule vs absolute ScheduleAt) — the
// property the scenario layer leans on to close intervals before
// same-instant completions.
func TestEngineFIFOTieBreakMixedScheduling(t *testing.T) {
	var eng Engine
	var got []int
	at := 50 * time.Millisecond
	for i := 0; i < 12; i++ {
		i := i
		if i%2 == 0 {
			eng.ScheduleAt(at, func() { got = append(got, i) })
		} else {
			eng.Schedule(at, func() { got = append(got, i) })
		}
	}
	eng.Run(time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("mixed simultaneous events out of FIFO order: %v", got)
		}
	}
}

// The CSV format is a published interface (plotting tooling and the CI
// smoke parse it); pin the exact bytes.
func TestTimelineCSVGolden(t *testing.T) {
	tl := &Timeline{
		Name:            "golden",
		Interval:        2 * time.Minute,
		VirtualDuration: 4 * time.Minute,
		Points: []TimelinePoint{
			{Index: 0, Start: 0, End: 2 * time.Minute, Requests: 1200, Errors: 0,
				RPS: 10, P50: 1500 * time.Microsecond, P99: 20 * time.Millisecond,
				LoadCV: 0.25, Replicas: 2200, CacheHitRate: 0.9633},
			{Index: 1, Start: 2 * time.Minute, End: 4 * time.Minute, Requests: 1180, Errors: 3,
				RPS: 9.8333, P50: 2 * time.Millisecond, P99: 35*time.Millisecond + 400*time.Microsecond,
				LoadCV: 1.5, Replicas: 2301, CacheHitRate: 0.9997, DownNodes: 1,
				ClassP99: [admission.NumClasses]time.Duration{
					12 * time.Millisecond, 35 * time.Millisecond, 80 * time.Millisecond,
				},
				ClassShed:   [admission.NumClasses]int64{0, 2, 41},
				StaleServed: 17},
		},
	}
	var b strings.Builder
	if err := tl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "interval,start_s,end_s,requests,errors,rps,p50_ms,p99_ms,load_cv,replicas,cache_hit,down_nodes," +
		"crit_p99_ms,inter_p99_ms,batch_p99_ms,crit_shed,inter_shed,batch_shed,stale_served\n" +
		"0,0.000,120.000,1200,0,10.000,1.500,20.000,0.2500,2200,0.9633,0,0.000,0.000,0.000,0,0,0,0\n" +
		"1,120.000,240.000,1180,3,9.833,2.000,35.400,1.5000,2301,0.9997,1,12.000,35.000,80.000,0,2,41,17\n"
	if b.String() != want {
		t.Fatalf("CSV drifted from golden format:\ngot:\n%swant:\n%s", b.String(), want)
	}
}

// The decision CSV is likewise a published interface; pin its bytes.
func TestDecisionsCSVGolden(t *testing.T) {
	tl := &Timeline{
		Decisions: []DecisionPoint{
			{Interval: 3, At: 8 * time.Minute, Kind: "replicate", Path: "/d/hot.html",
				Source: "n1", Target: "n4", Hits: 420, LoadCV: 0.6123,
				SourceLoad: 0.22, TargetLoad: 0.05,
				Reason: "replicate-hot-to-cold", Rejected: "n2(0.800);n3(0.750)", Applied: true},
			{Interval: 4, At: 10 * time.Minute, Kind: "offload", Path: "/d/warm.html",
				Target: "n2", Hits: 77, LoadCV: 0.31,
				TargetLoad: 0.91, Reason: "offload-hot"},
		},
	}
	var b strings.Builder
	if err := tl.WriteDecisionsCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "interval,at_s,kind,path,source,target,hits,load_cv,source_load,target_load,reason,rejected,applied\n" +
		"3,480.000,replicate,/d/hot.html,n1,n4,420,0.6123,0.2200,0.0500,replicate-hot-to-cold,n2(0.800);n3(0.750),1\n" +
		"4,600.000,offload,/d/warm.html,,n2,77,0.3100,0.0000,0.9100,offload-hot,,0\n"
	if b.String() != want {
		t.Fatalf("decision CSV drifted from golden format:\ngot:\n%swant:\n%s", b.String(), want)
	}
}

// An auto-balance replay that moves content must leave its working in
// the decision journal: every applied placement change traceable to a
// planner branch with its load inputs.
func TestScenarioRecordsDecisions(t *testing.T) {
	tl, err := RunScenario(smallSpec(), DefaultScenarioOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Decisions) == 0 {
		t.Fatal("auto-balance replay recorded no planner decisions")
	}
	applied := 0
	for _, d := range tl.Decisions {
		if d.Kind == "" || d.Reason == "" || d.Path == "" {
			t.Fatalf("decision missing fields: %+v", d)
		}
		if d.Applied {
			applied++
		}
	}
	if applied == 0 {
		t.Fatal("no decision was applied in a replay that auto-balances")
	}
}

func TestTimelineMeanRPS(t *testing.T) {
	tl := &Timeline{Points: []TimelinePoint{{RPS: 10}, {RPS: 20}, {RPS: 30}, {RPS: 40}}}
	if got := tl.MeanRPS(0, 2); got != 15 {
		t.Fatalf("MeanRPS(0,2) = %g, want 15", got)
	}
	if got := tl.MeanRPS(2, -1); got != 35 {
		t.Fatalf("MeanRPS(2,-1) = %g, want 35", got)
	}
	if got := tl.MeanRPS(3, 3); got != 0 {
		t.Fatalf("empty range = %g, want 0", got)
	}
}

// smallSpec is a quick scenario for structural checks: 4 minutes of
// modest Poisson traffic with every event kind represented.
func smallSpec() *workload.Spec {
	return &workload.Spec{
		Name:     "small",
		Seed:     3,
		Workload: "A",
		Objects:  300,
		Duration: workload.Duration(4 * time.Minute),
		Interval: workload.Duration(time.Minute),
		Classes: []workload.ClassSpec{
			{ID: "c", Arrival: workload.ArrivalSpec{Process: workload.ProcessPoisson, RatePerSec: 60}, ZipfS: 0.9},
		},
		Events: []workload.EventSpec{
			{At: workload.Duration(60 * time.Second), Kind: workload.EventFlashCrowd, HotObjects: 4, X: 2, Duration: workload.Duration(30 * time.Second)},
			{At: workload.Duration(140 * time.Second), Kind: workload.EventChurn, Fraction: 0.5},
			{At: workload.Duration(150 * time.Second), Kind: workload.EventNodeDown, Node: "n1-150"},
			{At: workload.Duration(200 * time.Second), Kind: workload.EventNodeUp, Node: "n1-150"},
		},
	}
}

func TestRunScenarioStructure(t *testing.T) {
	tl, err := RunScenario(smallSpec(), DefaultScenarioOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Points) != 4 {
		t.Fatalf("4m at 1m intervals should yield 4 points, got %d", len(tl.Points))
	}
	var sum int64
	for i, p := range tl.Points {
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
		if p.Start != time.Duration(i)*time.Minute || p.End != time.Duration(i+1)*time.Minute {
			t.Fatalf("point %d spans [%v, %v], want exact minute boundaries", i, p.Start, p.End)
		}
		if p.Requests == 0 {
			t.Fatalf("point %d served no requests", i)
		}
		sum += p.Requests
	}
	if sum != tl.TotalRequests {
		t.Fatalf("interval requests sum to %d, total says %d", sum, tl.TotalRequests)
	}
	// ~60 req/s for 4 minutes, doubled for 30s: roughly 15.6k arrivals.
	if tl.TotalRequests < 12000 || tl.TotalRequests > 20000 {
		t.Fatalf("total requests %d outside the expected envelope", tl.TotalRequests)
	}
	// The node-down window covers the close of interval 2 (at 180s);
	// interval 3 closes after the node is back.
	if tl.Points[2].DownNodes != 1 {
		t.Fatalf("interval 2 should see 1 down node, got %d", tl.Points[2].DownNodes)
	}
	if tl.Points[3].DownNodes != 0 {
		t.Fatalf("interval 3 should see the node restored, got %d", tl.Points[3].DownNodes)
	}
	// Under the partition scheme, single-copy content hosted on the down
	// node is unreachable for the window — errors are expected there and
	// ONLY there (intervals 2 and 3 overlap the 150s–200s outage).
	if tl.Points[0].Errors != 0 || tl.Points[1].Errors != 0 {
		t.Fatalf("errors before the outage: %+v", tl.Points[:2])
	}
	if tl.TotalErrors == 0 {
		t.Fatal("partition scheme with a node down should lose its single-copy content")
	}
	if tl.TotalErrors*20 > tl.TotalRequests {
		t.Fatalf("outage errors %d exceed 5%% of %d requests", tl.TotalErrors, tl.TotalRequests)
	}
}

func TestRunScenarioTimeScale(t *testing.T) {
	spec := smallSpec()
	spec.Events = nil
	spec.TimeScale = 4
	tl, err := RunScenario(spec, DefaultScenarioOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tl.VirtualDuration != time.Minute {
		t.Fatalf("4m at 4x compression should replay 1m, got %v", tl.VirtualDuration)
	}
	if len(tl.Points) != 4 {
		t.Fatalf("interval count must survive compression, got %d points", len(tl.Points))
	}
	// Rates are NOT scaled: a quarter of the exposure, so roughly a
	// quarter of the requests.
	if tl.TotalRequests < 2500 || tl.TotalRequests > 5000 {
		t.Fatalf("compressed run served %d requests, want ~3.6k", tl.TotalRequests)
	}
}

func TestRunScenarioRejectsUnknownNode(t *testing.T) {
	spec := smallSpec()
	spec.Events = []workload.EventSpec{
		{At: workload.Duration(time.Second), Kind: workload.EventNodeDown, Node: "n99-000"},
	}
	if _, err := RunScenario(spec, DefaultScenarioOptions()); err == nil || !strings.Contains(err.Error(), "n99-000") {
		t.Fatalf("unknown node accepted: %v", err)
	}
}

func TestRunScenarioClosedLoop(t *testing.T) {
	spec := &workload.Spec{
		Name:     "closed",
		Seed:     9,
		Workload: "A",
		Objects:  200,
		Duration: workload.Duration(2 * time.Minute),
		Interval: workload.Duration(time.Minute),
		Classes: []workload.ClassSpec{
			{ID: "kiosk", Arrival: workload.ArrivalSpec{Process: workload.ProcessClosed, Clients: 10, Think: workload.Duration(100 * time.Millisecond)}},
		},
	}
	tl, err := RunScenario(spec, DefaultScenarioOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 10 clients with 100ms think and ~ms service: just under 100 req/s.
	if tl.TotalRequests < 6000 || tl.TotalRequests > 12500 {
		t.Fatalf("closed loop served %d requests, want ~11k", tl.TotalRequests)
	}
}

func TestRunScenarioValidation(t *testing.T) {
	if _, err := RunScenario(nil, DefaultScenarioOptions()); err == nil {
		t.Fatal("nil spec accepted")
	}
	bad := smallSpec()
	bad.Classes = nil
	if _, err := RunScenario(bad, DefaultScenarioOptions()); err == nil {
		t.Fatal("invalid spec accepted")
	}
	collapse := smallSpec()
	collapse.TimeScale = 1e12
	if _, err := RunScenario(collapse, DefaultScenarioOptions()); err == nil {
		t.Fatal("interval collapsing to zero accepted")
	}
}

// Down nodes take no new requests but finish what they hold; with full
// replication every object has another home, so the outage must be
// completely absorbed.
func TestNodeDownDrains(t *testing.T) {
	spec := smallSpec()
	spec.Events = []workload.EventSpec{
		{At: workload.Duration(30 * time.Second), Kind: workload.EventNodeDown, Node: "n1-150"},
	}
	opts := DefaultScenarioOptions()
	opts.Scheme = SchemeFullReplication
	tl, err := RunScenario(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tl.TotalErrors != 0 {
		t.Fatalf("%d errors with a replica-backed node down; routing should fall back", tl.TotalErrors)
	}
	for _, p := range tl.Points[1:] {
		if p.DownNodes != 1 {
			t.Fatalf("interval %d lost track of the down node: %d", p.Index, p.DownNodes)
		}
	}
}
