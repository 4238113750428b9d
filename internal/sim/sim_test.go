package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"webcluster/internal/admission"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/loadbal"
	"webcluster/internal/urltable"
	"webcluster/internal/workload"
)

func TestEngineOrdering(t *testing.T) {
	var eng Engine
	var got []int
	eng.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	eng.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	eng.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	eng.Run(time.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if eng.Now() != time.Second {
		t.Fatalf("now = %v", eng.Now())
	}
	if eng.Executed() != 3 {
		t.Fatalf("executed = %d", eng.Executed())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	var eng Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	eng.Run(time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", got)
		}
	}
}

func TestEngineRunUntilBoundary(t *testing.T) {
	var eng Engine
	fired := false
	eng.Schedule(100*time.Millisecond, func() { fired = true })
	eng.Run(50 * time.Millisecond)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if eng.Pending() != 1 {
		t.Fatalf("pending = %d", eng.Pending())
	}
	eng.Run(200 * time.Millisecond)
	if !fired {
		t.Fatal("event not fired on resumed run")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var eng Engine
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			eng.Schedule(time.Millisecond, recurse)
		}
	}
	eng.Schedule(0, recurse)
	eng.Run(time.Second)
	if depth != 5 {
		t.Fatalf("depth = %d", depth)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	var eng Engine
	fired := false
	eng.Schedule(10*time.Millisecond, func() {
		eng.Schedule(-5*time.Millisecond, func() { fired = true })
	})
	eng.Run(time.Second)
	if !fired {
		t.Fatal("clamped event lost")
	}
}

// TestPropertyEngineMonotonicTime: whatever the schedule order, events run
// in non-decreasing virtual time.
func TestPropertyEngineMonotonicTime(t *testing.T) {
	f := func(delays []uint16) bool {
		var eng Engine
		var times []time.Duration
		for _, d := range delays {
			eng.Schedule(time.Duration(d)*time.Microsecond, func() {
				times = append(times, eng.Now())
			})
		}
		eng.Run(time.Hour)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceFIFO(t *testing.T) {
	var eng Engine
	r := NewResource(&eng)
	var done []int
	r.Enqueue(10*time.Millisecond, func() { done = append(done, 1) })
	r.Enqueue(5*time.Millisecond, func() { done = append(done, 2) })
	eng.Run(time.Second)
	// FIFO: job 1 finishes at 10ms, job 2 at 15ms despite being shorter.
	if len(done) != 2 || done[0] != 1 || done[1] != 2 {
		t.Fatalf("completion order = %v", done)
	}
	if r.Jobs() != 2 {
		t.Fatalf("jobs = %d", r.Jobs())
	}
}

func TestResourceQueueDelay(t *testing.T) {
	var eng Engine
	r := NewResource(&eng)
	r.Enqueue(100*time.Millisecond, func() {})
	if d := r.QueueDelay(); d != 100*time.Millisecond {
		t.Fatalf("queue delay = %v", d)
	}
	eng.Run(time.Second)
	if d := r.QueueDelay(); d != 0 {
		t.Fatalf("post-drain delay = %v", d)
	}
}

func TestResourceUtilization(t *testing.T) {
	var eng Engine
	r := NewResource(&eng)
	r.Enqueue(500*time.Millisecond, func() {})
	eng.Run(time.Second)
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %g", u)
	}
}

func TestChunkedSharesResource(t *testing.T) {
	var eng Engine
	r := NewResource(&eng)
	var longDone, shortDone time.Duration
	// A 100ms transfer in 10ms chunks, with a 10ms job arriving at 5ms:
	// the short job slots in after the first chunk instead of waiting
	// the full 100ms.
	r.EnqueueChunked(100*time.Millisecond, 10*time.Millisecond, func() { longDone = eng.Now() })
	eng.Schedule(5*time.Millisecond, func() {
		r.Enqueue(10*time.Millisecond, func() { shortDone = eng.Now() })
	})
	eng.Run(time.Second)
	if shortDone >= longDone {
		t.Fatalf("short job starved: short %v, long %v", shortDone, longDone)
	}
	if shortDone > 40*time.Millisecond {
		t.Fatalf("short job delayed too long: %v", shortDone)
	}
	if longDone < 100*time.Millisecond {
		t.Fatalf("long transfer finished early: %v", longDone)
	}
}

func TestChunkedSmallJobDirect(t *testing.T) {
	var eng Engine
	r := NewResource(&eng)
	fired := false
	r.EnqueueChunked(time.Millisecond, 10*time.Millisecond, func() { fired = true })
	eng.Run(time.Second)
	if !fired {
		t.Fatal("small chunked job lost")
	}
}

func testNodeSpec(id string, mhz, mem int, disk config.DiskKind) config.NodeSpec {
	return config.NodeSpec{
		ID: config.NodeID(id), CPUMHz: mhz, MemoryMB: mem,
		DiskGB: 4, Disk: disk, Platform: config.LinuxApache,
	}
}

func TestNodeStaticCacheHitPath(t *testing.T) {
	var eng Engine
	hw := DefaultHardware()
	n := NewNode(&eng, hw, testNodeSpec("n1", 350, 128, config.DiskSCSI))
	n.Place("/a.html")
	obj := content.Object{Path: "/a.html", Size: 4096, Class: content.ClassHTML}

	var first, second time.Duration
	start := eng.Now()
	n.Serve(obj, func(ok bool) {
		if !ok {
			t.Error("serve failed")
		}
		first = eng.Now() - start
		mid := eng.Now()
		n.Serve(obj, func(ok bool) {
			second = eng.Now() - mid
		})
	})
	eng.Run(time.Minute)
	// The second (cached) serve must be much faster: no disk seek.
	if second >= first {
		t.Fatalf("cache hit %v not faster than miss %v", second, first)
	}
	if first < hw.SCSISeek {
		t.Fatalf("miss %v did not include a seek", first)
	}
	st := n.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

func TestNodeDynamicScalesWithCPU(t *testing.T) {
	hw := DefaultHardware()
	obj := content.Object{Path: "/cgi-bin/a.cgi", Size: 2048, Class: content.ClassCGI, CPUCost: 1}
	serveTime := func(mhz, mem int) time.Duration {
		var eng Engine
		n := NewNode(&eng, hw, testNodeSpec("n", mhz, mem, config.DiskSCSI))
		n.Place(obj.Path)
		var took time.Duration
		n.Serve(obj, func(bool) { took = eng.Now() })
		eng.Run(time.Minute)
		return took
	}
	fast := serveTime(350, 128)
	slow := serveTime(150, 128)
	thrash := serveTime(150, 64)
	if slow <= fast {
		t.Fatalf("150MHz (%v) not slower than 350MHz (%v)", slow, fast)
	}
	ratio := float64(slow) / float64(fast)
	if ratio < 2.0 || ratio > 2.6 {
		t.Fatalf("CPU scaling ratio = %.2f, want ≈2.33", ratio)
	}
	if float64(thrash)/float64(slow) < hw.DynThrashFactor*0.9 {
		t.Fatalf("thrash penalty missing: %v vs %v", thrash, slow)
	}
}

func TestNodeNotFound(t *testing.T) {
	var eng Engine
	n := NewNode(&eng, DefaultHardware(), testNodeSpec("n", 350, 128, config.DiskSCSI))
	okResult := true
	n.Serve(content.Object{Path: "/ghost.html", Size: 100, Class: content.ClassHTML},
		func(ok bool) { okResult = ok })
	eng.Run(time.Minute)
	if okResult {
		t.Fatal("serving unplaced content succeeded")
	}
	if n.NotFound() != 1 {
		t.Fatalf("notFound = %d", n.NotFound())
	}
}

func TestNodeUnplaceEvictsCache(t *testing.T) {
	var eng Engine
	n := NewNode(&eng, DefaultHardware(), testNodeSpec("n", 350, 128, config.DiskSCSI))
	n.Place("/a.html")
	obj := content.Object{Path: "/a.html", Size: 1024, Class: content.ClassHTML}
	n.Serve(obj, func(bool) {})
	eng.Run(time.Minute)
	n.Unplace("/a.html")
	var served bool
	n.Serve(obj, func(ok bool) { served = ok })
	eng.Run(2 * time.Minute)
	if served {
		t.Fatal("unplaced content still served (stale cache)")
	}
}

func TestNFSNodeServesMisses(t *testing.T) {
	var eng Engine
	hw := DefaultHardware()
	nfs := NewNFSNode(&eng, hw, testNodeSpec("nfs", 350, 128, config.DiskSCSI))
	web := NewNode(&eng, hw, testNodeSpec("web", 350, 128, config.DiskSCSI))
	web.UseNFS(nfs)
	obj := content.Object{Path: "/remote.html", Size: 4096, Class: content.ClassHTML}
	var ok1 bool
	var local, remote time.Duration
	start := eng.Now()
	web.Serve(obj, func(ok bool) {
		ok1 = ok
		remote = eng.Now() - start
	})
	eng.Run(time.Minute)
	if !ok1 {
		t.Fatal("NFS-backed serve failed")
	}
	if nfs.Ops() != 1 {
		t.Fatalf("NFS ops = %d", nfs.Ops())
	}
	// Local-disk service of the same object is faster than remote.
	var eng2 Engine
	web2 := NewNode(&eng2, hw, testNodeSpec("web2", 350, 128, config.DiskSCSI))
	web2.Place(obj.Path)
	start2 := eng2.Now()
	web2.Serve(obj, func(bool) { local = eng2.Now() - start2 })
	eng2.Run(time.Minute)
	if remote <= local {
		t.Fatalf("remote %v not slower than local %v", remote, local)
	}
}

func smallSite(t *testing.T, kind workload.Kind, objects int) *content.Site {
	t.Helper()
	site, err := workload.BuildSite(kind, objects, 1)
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func TestBuildDeploymentSchemes(t *testing.T) {
	site := smallSite(t, workload.KindA, 300)
	spec := config.PaperTestbed()
	for _, scheme := range []Scheme{SchemeFullReplication, SchemeNFS, SchemePartition} {
		eng := &Engine{}
		cluster, err := BuildDeployment(eng, DefaultHardware(), spec, site, scheme, loadbal.DefaultPlacementOptions())
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(cluster.Nodes) != 9 {
			t.Fatalf("%v: nodes = %d", scheme, len(cluster.Nodes))
		}
		switch scheme {
		case SchemeNFS:
			if cluster.NFS == nil {
				t.Fatal("NFS scheme lacks the shared server")
			}
		case SchemePartition:
			if cluster.Table == nil {
				t.Fatal("partition scheme lacks a URL table")
			}
		}
	}
	if _, err := BuildDeployment(&Engine{}, DefaultHardware(), spec, site, Scheme(9), loadbal.DefaultPlacementOptions()); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// runSmall runs a tiny simulated experiment.
func runSmall(t *testing.T, kind workload.Kind, scheme Scheme, clients int) Result {
	t.Helper()
	site := smallSite(t, kind, 800)
	eng := &Engine{}
	cluster, err := BuildDeployment(eng, DefaultHardware(), config.PaperTestbed(), site, scheme, loadbal.DefaultPlacementOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cluster, site, scheme, RunParams{
		Clients: clients,
		Warmup:  time.Second,
		Measure: 3 * time.Second,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunProducesThroughput(t *testing.T) {
	res := runSmall(t, workload.KindA, SchemePartition, 16)
	if res.Requests == 0 || res.Throughput() <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d (misrouting?)", res.Errors)
	}
	if res.CacheHitRate <= 0 || res.CacheHitRate > 1 {
		t.Fatalf("cache hit rate = %g", res.CacheHitRate)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := runSmall(t, workload.KindA, SchemeFullReplication, 8)
	b := runSmall(t, workload.KindA, SchemeFullReplication, 8)
	if a.Requests != b.Requests || a.Errors != b.Errors {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Requests, a.Errors, b.Requests, b.Errors)
	}
}

func TestRunNFSBottleneck(t *testing.T) {
	repl := runSmall(t, workload.KindA, SchemeFullReplication, 32)
	nfs := runSmall(t, workload.KindA, SchemeNFS, 32)
	if nfs.NFSOps == 0 {
		t.Fatal("NFS scheme did no remote ops")
	}
	if nfs.Throughput() >= repl.Throughput() {
		t.Fatalf("NFS (%0.f r/s) not slower than replication (%0.f r/s)",
			nfs.Throughput(), repl.Throughput())
	}
}

func TestRunMoreClientsMoreThroughputUntilSaturation(t *testing.T) {
	low := runSmall(t, workload.KindA, SchemePartition, 2)
	high := runSmall(t, workload.KindA, SchemePartition, 24)
	if high.Throughput() <= low.Throughput() {
		t.Fatalf("throughput did not scale: %0.f vs %0.f", low.Throughput(), high.Throughput())
	}
}

func TestRunValidation(t *testing.T) {
	site := smallSite(t, workload.KindA, 100)
	eng := &Engine{}
	cluster, err := BuildDeployment(eng, DefaultHardware(), config.PaperTestbed(), site, SchemePartition, loadbal.DefaultPlacementOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cluster, site, SchemePartition, RunParams{Clients: 0}); err == nil {
		t.Fatal("zero clients accepted")
	}
}

func TestBuildCustomPicker(t *testing.T) {
	site := smallSite(t, workload.KindA, 300)
	spec := config.PaperTestbed()
	table, err := PartitionTable(site, spec, loadbal.DefaultPlacementOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{}
	cluster, err := BuildCustom(eng, DefaultHardware(), spec, table, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cluster, site, SchemePartition, RunParams{
		Clients: 8, Warmup: time.Second, Measure: 2 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Errors != 0 {
		t.Fatalf("custom build result = %+v", res)
	}
}

func TestFigure4SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p := DefaultExperimentParams()
	p.Objects = 1500
	p.Warmup = 2 * time.Second
	p.Measure = 4 * time.Second
	p.SaturationClients = 40
	fig, err := Figure4(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 3 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	for _, r := range fig.Rows {
		if r.Baseline <= 0 || r.Segregated <= 0 {
			t.Fatalf("row %s has zero throughput: %+v", r.Class, r)
		}
	}
	if out := fig.Render(); len(out) == 0 {
		t.Fatal("empty render")
	}
}

func TestFigureDataRender(t *testing.T) {
	fig := FigureData{
		Title:  "T",
		XLabel: "clients",
		Series: []Series{
			{Name: "s1", Points: []Point{{Clients: 8, Throughput: 100}}},
			{Name: "s2", Points: []Point{{Clients: 8, Throughput: 50.5}}},
		},
	}
	out := fig.Render()
	if out == "" || !containsAll(out, "T", "s1", "s2", "100.0", "50.5") {
		t.Fatalf("render = %q", out)
	}
}

// containsAll reports whether s contains every needle.
func containsAll(s string, needles ...string) bool {
	for _, n := range needles {
		if !contains(s, n) {
			return false
		}
	}
	return true
}

func contains(s, sub string) bool {
	return len(sub) == 0 || (len(s) >= len(sub) && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestPropertyPlacementCoversAllSeeds: for any seed, partition placement
// covers the whole site with at least one location each.
func TestPropertyPlacementCovers(t *testing.T) {
	spec := config.PaperTestbed()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		objects := rng.Intn(500) + 50
		site, err := workload.BuildSite(workload.KindB, objects, seed)
		if err != nil {
			return false
		}
		table, err := PartitionTable(site, spec, loadbal.DefaultPlacementOptions())
		if err != nil {
			return false
		}
		if table.Len() != site.Len() {
			return false
		}
		ok := true
		table.Walk(func(r urltable.Record) {
			if len(r.Locations) == 0 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoBalanceExperimentConverges(t *testing.T) {
	p := DefaultBalanceParams()
	p.Objects = 1200
	p.Clients = 32
	p.Rounds = 6
	p.Interval = 2 * time.Second
	data, err := AutoBalanceExperiment(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Points) != p.Rounds {
		t.Fatalf("points = %d", len(data.Points))
	}
	first, last := data.Points[0], data.Points[len(data.Points)-1]
	if last.Throughput < first.Throughput*1.5 {
		t.Fatalf("auto-replication did not converge: %.0f → %.0f req/s",
			first.Throughput, last.Throughput)
	}
	if last.Replicas <= p.Objects {
		t.Fatalf("no replicas created: %d copies of %d objects", last.Replicas, p.Objects)
	}
	totalActions := 0
	for _, pt := range data.Points {
		totalActions += pt.Actions
	}
	if totalActions == 0 {
		t.Fatal("planner issued no actions")
	}
	if out := data.Render(); out == "" {
		t.Fatal("empty render")
	}
}

func TestAutoBalanceExperimentValidation(t *testing.T) {
	p := DefaultBalanceParams()
	p.HotNodes = 0
	if _, err := AutoBalanceExperiment(p); err == nil {
		t.Fatal("invalid HotNodes accepted")
	}
}

func TestFrontendObserver(t *testing.T) {
	site := smallSite(t, workload.KindA, 100)
	spec := config.PaperTestbed()
	table, err := PartitionTable(site, spec, loadbal.DefaultPlacementOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{}
	cluster, err := BuildCustom(eng, DefaultHardware(), spec, table, nil)
	if err != nil {
		t.Fatal(err)
	}
	var observed int
	cluster.Frontend.SetObserver(func(node config.NodeID, class content.Class, procTime time.Duration) {
		observed++
		if procTime <= 0 {
			t.Errorf("non-positive processing time %v", procTime)
		}
	})
	obj := site.ByRank(0)
	done := 0
	for i := 0; i < 5; i++ {
		cluster.Frontend.Route(obj, func(bool) { done++ })
	}
	eng.Run(time.Minute)
	if done != 5 || observed != 5 {
		t.Fatalf("done=%d observed=%d", done, observed)
	}
}

// The front end's admission gate is the distributor's controller stepped
// in virtual time: a request queued behind a full class starts the
// instant a slot is released, one that never gets a slot resolves exactly
// MaxWait after its decision with its class's rung, and the ledger
// reconciles afterwards.
func TestAdmissionInVirtualTime(t *testing.T) {
	eng := &Engine{}
	hw := DefaultHardware()
	n := NewNode(eng, hw, testNodeSpec("n1", 350, 128, config.DiskSCSI))
	n.SetAllContent()
	f, err := NewFrontend(eng, hw, FrontL4WLC, []*Node{n}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxWait := [admission.NumClasses]time.Duration{time.Second, 50 * time.Millisecond, 10 * time.Millisecond}
	f.EnableAdmission(admission.Options{
		MaxConcurrent: 3,
		Shares:        [admission.NumClasses]int{1, 1, 1},
		MaxWait:       maxWait,
	})
	adm := f.adm
	// A zero-byte object: a stale answer relays nothing, so it resolves
	// at its shed decision.
	obj := content.Object{Path: "/a.html", Class: content.ClassHTML}
	decide := hw.L4ForwardCPU

	// Two critical arrivals at t=0 against one critical slot: the second
	// is decided while the first is still at the back end, so it queues.
	type served struct{ start, release time.Duration }
	var log []served
	f.SetObserver(func(_ config.NodeID, _ content.Class, proc time.Duration) {
		log = append(log, served{eng.Now() - proc, eng.Now()})
	})
	var outcomes []RouteOutcome
	for i := 0; i < 2; i++ {
		f.RouteSLO(obj, admission.Critical, func(o RouteOutcome) { outcomes = append(outcomes, o) })
	}
	eng.Run(time.Second)
	if len(log) != 2 || len(outcomes) != 2 || outcomes[0] != RouteOK || outcomes[1] != RouteOK {
		t.Fatalf("critical pair: served %v, outcomes %v", log, outcomes)
	}
	if log[0].release <= 2*decide {
		t.Fatalf("first critical released at %v, before the second was decided at %v: nothing queued", log[0].release, 2*decide)
	}
	if log[1].start != log[0].release {
		t.Fatalf("queued critical started at %v, want the release instant %v", log[1].start, log[0].release)
	}

	// Hold the batch and interactive slots for good: one arrival of each
	// must wait out its MaxWait and take its rung at exactly that instant.
	for _, c := range []admission.Class{admission.Batch, admission.Interactive} {
		if v := adm.Admit(c); v != admission.Admitted {
			t.Fatalf("%v holder: %v", c, v)
		}
	}
	type resolved struct {
		at time.Duration
		o  RouteOutcome
	}
	var got [admission.NumClasses]resolved
	at := eng.Now()
	for i, c := range []admission.Class{admission.Batch, admission.Interactive} {
		decided := at + time.Duration(i+1)*decide
		f.RouteSLO(obj, c, func(o RouteOutcome) { got[c] = resolved{eng.Now() - decided, o} })
	}
	eng.Run(at + time.Second)
	if want := (resolved{maxWait[admission.Batch], RouteShed}); got[admission.Batch] != want {
		t.Fatalf("batch resolved %+v, want %+v", got[admission.Batch], want)
	}
	if want := (resolved{maxWait[admission.Interactive], RouteStale}); got[admission.Interactive] != want {
		t.Fatalf("interactive resolved %+v, want %+v", got[admission.Interactive], want)
	}
	adm.Release(admission.Batch)
	adm.Release(admission.Interactive)

	want := map[admission.Class][4]int64{ // offered, admitted, shed, stale
		admission.Critical:    {2, 2, 0, 0},
		admission.Interactive: {2, 1, 0, 1},
		admission.Batch:       {2, 1, 1, 0},
	}
	for c, w := range want {
		off, admitted, shed, stale := adm.ClassCounters(c)
		if got := [4]int64{off, admitted, shed, stale}; got != w {
			t.Errorf("%v ledger %v, want %v", c, got, w)
		}
		if off != admitted+shed+stale {
			t.Errorf("%v: offered %d != admitted %d + shed %d + stale %d", c, off, admitted, shed, stale)
		}
		if adm.InFlight(c) != 0 {
			t.Errorf("%v: %d still in flight", c, adm.InFlight(c))
		}
	}
}

func TestSensitivitySweepsRun(t *testing.T) {
	p := DefaultExperimentParams()
	p.Objects = 1000
	p.Warmup = time.Second
	p.Measure = 3 * time.Second
	p.SaturationClients = 24

	thrash, err := SensitivityThrash(p, []float64{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(thrash.Rows) != 2 {
		t.Fatalf("thrash rows = %d", len(thrash.Rows))
	}
	for _, r := range thrash.Rows {
		if r.Baseline <= 0 || r.Partition <= 0 {
			t.Fatalf("zero throughput: %+v", r)
		}
	}
	// Partition throughput is thrash-independent (no dynamics on weak
	// nodes); the baseline must not improve as thrash worsens.
	if thrash.Rows[1].Baseline > thrash.Rows[0].Baseline*1.05 {
		t.Fatalf("baseline improved under worse thrash: %+v", thrash.Rows)
	}

	scale, err := SensitivityScale(p, []int{500, 1500})
	if err != nil {
		t.Fatal(err)
	}
	if len(scale.Rows) != 2 {
		t.Fatalf("scale rows = %d", len(scale.Rows))
	}
	if out := thrash.Render() + scale.Render(); !containsAll(out, "thrash=1", "objects=500") {
		t.Fatalf("render = %q", out)
	}
}

// TestFigure2Ordering is the reproduction's regression guard: at load, the
// paper's configuration ordering must hold — NFS far below both, partition
// above full replication (§5.3, Figure 2).
func TestFigure2Ordering(t *testing.T) {
	p := DefaultExperimentParams()
	p.Objects = 8000
	p.Warmup = 6 * time.Second
	p.Measure = 12 * time.Second
	clients := 64

	run := func(scheme Scheme) Result {
		t.Helper()
		site, err := workload.BuildSite(workload.KindA, p.Objects, p.Seed)
		if err != nil {
			t.Fatal(err)
		}
		eng := &Engine{}
		cluster, err := BuildDeployment(eng, p.Hardware, p.Spec, site, scheme, p.Placement)
		if err != nil {
			t.Fatal(err)
		}
		rp := DefaultRunParams(clients)
		rp.Warmup, rp.Measure, rp.Seed = p.Warmup, p.Measure, p.Seed
		res, err := Run(cluster, site, scheme, rp)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	repl := run(SchemeFullReplication)
	nfs := run(SchemeNFS)
	part := run(SchemePartition)

	if nfs.Throughput() >= repl.Throughput()/2 {
		t.Fatalf("NFS (%.0f) not clearly below replication (%.0f)",
			nfs.Throughput(), repl.Throughput())
	}
	if part.Throughput() <= repl.Throughput() {
		t.Fatalf("partition (%.0f) not above replication (%.0f)",
			part.Throughput(), repl.Throughput())
	}
	// The mechanism: partitioning must show the better cache hit rate.
	if part.CacheHitRate <= repl.CacheHitRate {
		t.Fatalf("partition hit rate %.2f not above replication %.2f",
			part.CacheHitRate, repl.CacheHitRate)
	}
}

// TestFigure3PartitionWins guards the Workload B result: content-aware
// partitioning beats content-blind full replication under the dynamic mix.
func TestFigure3PartitionWins(t *testing.T) {
	p := DefaultExperimentParams()
	p.Objects = 8000
	p.Warmup = 6 * time.Second
	p.Measure = 12 * time.Second

	base, err := runPoint(p, workload.KindB, SchemeFullReplication, 64)
	if err != nil {
		t.Fatal(err)
	}
	part, err := runPoint(p, workload.KindB, SchemePartition, 64)
	if err != nil {
		t.Fatal(err)
	}
	if part.Throughput() <= base.Throughput() {
		t.Fatalf("partition (%.0f) not above replication (%.0f) on Workload B",
			part.Throughput(), base.Throughput())
	}
	// Segregation must protect static latency (the Figure 4 mechanism).
	staticRT := func(r Result) time.Duration {
		h, i := r.PerClass[content.ClassHTML], r.PerClass[content.ClassImage]
		n := h.Requests + i.Requests
		if n == 0 {
			return 0
		}
		return (h.TotalLatency + i.TotalLatency) / time.Duration(n)
	}
	if staticRT(part) >= staticRT(base) {
		t.Fatalf("segregated static RT %v not below baseline %v",
			staticRT(part), staticRT(base))
	}
}
