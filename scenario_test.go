package webcluster

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"webcluster/internal/admission"
	"webcluster/internal/sim"
	"webcluster/internal/workload"
)

// renderCSV replays spec and returns the timeline plus its exact CSV
// bytes.
func renderCSV(t *testing.T, spec *workload.Spec) (*sim.Timeline, []byte) {
	t.Helper()
	tl, err := sim.RunScenario(spec, sim.DefaultScenarioOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return tl, buf.Bytes()
}

// Determinism regression: the scenario layer promises that one (spec,
// seed) pair replays to a byte-identical timeline CSV — the property the
// whole golden-file methodology and CHAOS_SEED-style replay debugging
// rest on. Run under -race in CI to also prove the replay is data-race
// free.
func TestScenarioDeterministicReplay(t *testing.T) {
	spec := workload.FlashCrowdScenario()
	spec.TimeScale = 16 // 2.5 min virtual: quick enough to replay three times under -race

	_, first := renderCSV(t, spec)
	_, second := renderCSV(t, spec)
	if !bytes.Equal(first, second) {
		t.Fatalf("same spec and seed produced different timelines:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first, second)
	}

	reseeded := workload.FlashCrowdScenario()
	reseeded.TimeScale = 16
	reseeded.Seed = spec.Seed + 1
	_, third := renderCSV(t, reseeded)
	if bytes.Equal(first, third) {
		t.Fatal("different seeds produced byte-identical timelines — the seed is not reaching the random streams")
	}
}

// The CI smoke behind `make sim`: a compressed flash crowd saturates the
// cluster, and the §3.3 auto-replication planner must spread the new hot
// set so throughput recovers to the pre-spike level.
func TestScenarioFlashCrowdRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("flash-crowd recovery runs via `make sim` and plain `make test`; -short keeps it out of the race sweep")
	}
	spec := workload.FlashCrowdScenario()
	spec.TimeScale = 2 // rates (and therefore saturation) are preserved; only exposure shrinks

	tl, csv := renderCSV(t, spec)
	if len(tl.Points) != 20 {
		t.Fatalf("40m at 2m intervals should yield 20 points, got %d", len(tl.Points))
	}
	if !strings.HasPrefix(string(csv), sim.TimelineCSVHeader+"\n") {
		t.Fatalf("CSV missing the published header:\n%s", csv[:120])
	}

	// The surge occupies intervals 7–9 (14m–20m of the 40m span).
	pre := tl.MeanRPS(0, 7)
	surge := tl.MeanRPS(7, 10)
	post := tl.MeanRPS(10, -1)
	if pre < 400 || pre > 600 {
		t.Fatalf("pre-spike throughput %.1f req/s, want ~500", pre)
	}
	if surge < 4*pre {
		t.Fatalf("surge throughput %.1f req/s vs pre %.1f — the ×9 flash crowd is not arriving", surge, pre)
	}
	// Saturation evidence: queueing during the surge pushes p99 far past
	// the steady-state tail.
	var preP99, surgeP99 time.Duration
	for _, p := range tl.Points[:7] {
		if p.P99 > preP99 {
			preP99 = p.P99
		}
	}
	for _, p := range tl.Points[7:10] {
		if p.P99 > surgeP99 {
			surgeP99 = p.P99
		}
	}
	if surgeP99 < 5*preP99 {
		t.Fatalf("surge p99 %v vs pre-spike %v — the spike never stressed the cluster", surgeP99, preP99)
	}
	// The planner reacted: the promoted hot set gained replicas.
	if last, first := tl.Points[len(tl.Points)-1].Replicas, tl.Points[0].Replicas; last <= first {
		t.Fatalf("replica count %d → %d: auto-replication never acted", first, last)
	}
	// And the headline assertion: post-spike throughput within 20% of
	// pre-spike.
	if diff := (post - pre) / pre; diff < -0.2 || diff > 0.2 {
		t.Fatalf("post-spike throughput %.1f req/s is %+.0f%% of pre-spike %.1f — did not recover", post, diff*100, pre)
	}
	if tl.TotalErrors != 0 {
		t.Fatalf("%d requests errored during the flash crowd", tl.TotalErrors)
	}
}

// The acceptance bar from the issue: a 24 h diurnal scenario with over a
// million simulated requests — flash crowd and maintenance window
// included — must complete in well under a minute of wall time and emit
// a full timeline.
func TestScenarioDayLong(t *testing.T) {
	if testing.Short() {
		t.Skip("day-long scenario skipped in -short mode")
	}
	start := time.Now()
	tl, csv := renderCSV(t, workload.DayScenario())
	wall := time.Since(start)

	if wall > 60*time.Second {
		t.Fatalf("24h scenario took %v of wall time, must stay under 60s", wall)
	}
	if tl.TotalRequests < 1_000_000 {
		t.Fatalf("day scenario served %d requests, acceptance needs ≥ 1M", tl.TotalRequests)
	}
	if tl.VirtualDuration != 24*time.Hour {
		t.Fatalf("virtual span %v, want 24h", tl.VirtualDuration)
	}
	if len(tl.Points) != 288 {
		t.Fatalf("24h at 5m intervals should yield 288 points, got %d", len(tl.Points))
	}
	if lines := bytes.Count(csv, []byte("\n")); lines != 289 {
		t.Fatalf("CSV has %d lines, want header + 288 rows", lines)
	}

	// The maintenance window (n6-350 down 2h–2h45m) must be visible in
	// the down_nodes column and nowhere else.
	for _, p := range tl.Points {
		inWindow := p.End > 2*time.Hour && p.End <= 2*time.Hour+45*time.Minute
		if inWindow && p.DownNodes != 1 {
			t.Fatalf("interval ending %v is inside the maintenance window but reports %d down nodes", p.End, p.DownNodes)
		}
		if !inWindow && p.DownNodes != 0 {
			t.Fatalf("interval ending %v reports %d down nodes outside the window", p.End, p.DownNodes)
		}
	}

	// The 13h flash crowd (×3 on top of the afternoon curve) must show
	// up as a throughput step against the hour before it.
	calm := tl.MeanRPS(144, 156)  // 12h–13h
	spike := tl.MeanRPS(156, 164) // 13h–13h40m
	if spike < 2*calm {
		t.Fatalf("flash-crowd hour runs at %.1f req/s vs %.1f before it — the surge is missing", spike, calm)
	}

	// Diurnal shape: the overnight trough must be far below the evening
	// peak (curve knots 0.25 vs 1.8).
	night := tl.MeanRPS(36, 48)     // 3h–4h
	evening := tl.MeanRPS(216, 228) // 18h–19h
	if night >= evening/2 {
		t.Fatalf("diurnal curve flat: night %.1f req/s vs evening %.1f", night, evening)
	}
}

// The overload-control acceptance bar: a ×10 flash crowd hits the
// surge scenario's three SLO classes while admission control is on.
// Graceful degradation means the batch class absorbs the damage
// (shed with 503s), interactive browsers degrade to stale front-end
// answers, and the critical checkout class keeps its p99 within 2x of
// the pre-surge tail without a single critical request refused.
// Runs under -race via `make chaos`.
func TestChaosSurgeGracefulDegradation(t *testing.T) {
	spec := workload.SurgeScenario()
	spec.TimeScale = 2 // rates — and therefore overload — are preserved; only exposure shrinks

	opts := sim.DefaultScenarioOptions()
	opts.Admission = &sim.AdmissionParams{MaxConcurrent: 10, CriticalHeadroom: 4}
	tl, err := sim.RunScenario(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Points) != 15 {
		t.Fatalf("30m at 2m intervals should yield 15 points, got %d", len(tl.Points))
	}

	// The ×10 surge occupies intervals 6–9 (12m–20m of the 30m span).
	const surgeFrom, surgeTo = 6, 10
	pre := tl.MeanRPS(0, surgeFrom)
	surge := tl.MeanRPS(surgeFrom, surgeTo)
	if surge < 4*pre {
		t.Fatalf("surge throughput %.1f req/s vs pre %.1f — the ×10 flash crowd is not arriving", surge, pre)
	}

	var preCritP99, surgeCritP99 time.Duration
	var surgeBatchShed, surgeStale int64
	for _, p := range tl.Points {
		// Never, anywhere: critical requests must not be refused.
		if p.ClassShed[admission.Critical] != 0 {
			t.Fatalf("interval %d shed %d critical requests; critical must never be refused",
				p.Index, p.ClassShed[admission.Critical])
		}
		switch {
		case p.Index < surgeFrom:
			if p.ClassP99[admission.Critical] > preCritP99 {
				preCritP99 = p.ClassP99[admission.Critical]
			}
		case p.Index < surgeTo:
			if p.ClassP99[admission.Critical] > surgeCritP99 {
				surgeCritP99 = p.ClassP99[admission.Critical]
			}
			if p.ClassShed[admission.Batch] == 0 {
				t.Errorf("surge interval %d shed no batch traffic — admission control is not engaging", p.Index)
			}
			surgeBatchShed += p.ClassShed[admission.Batch]
			surgeStale += p.StaleServed
		}
	}

	// Headline: the critical class rides out a ×10 overload with its
	// tail within 2x of steady state.
	if surgeCritP99 > 2*preCritP99 {
		t.Fatalf("critical p99 %v during the surge vs %v before it — want within 2x", surgeCritP99, preCritP99)
	}
	if surgeBatchShed == 0 {
		t.Fatal("no batch requests shed during the surge — the shedding ladder never engaged")
	}
	// Interactive degradation is visible: stale front-end answers stand
	// in for refused full service.
	if surgeStale == 0 {
		t.Fatal("no interactive requests degraded to stale during the surge")
	}
	t.Logf("pre-surge critical p99 %v, surge critical p99 %v (%.2fx), batch shed %d, stale served %d",
		preCritP99, surgeCritP99, float64(surgeCritP99)/float64(preCritP99), surgeBatchShed, surgeStale)
}

// The example spec files in examples/scenarios/ are documentation that
// must never drift from the built-ins they mirror.
func TestExampleScenarioFilesMatchBuiltins(t *testing.T) {
	cases := []struct {
		path string
		want *workload.Spec
	}{
		{"examples/scenarios/day.json", workload.DayScenario()},
		{"examples/scenarios/flashcrowd.json", workload.FlashCrowdScenario()},
		{"examples/scenarios/surge.json", workload.SurgeScenario()},
	}
	for _, tc := range cases {
		got, err := workload.LoadSpec(tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s drifted from its built-in:\nfile:    %+v\nbuiltin: %+v", tc.path, got, tc.want)
		}
	}
}
