package core

import (
	"strings"
	"testing"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/loadbal"
	"webcluster/internal/mgmt"
	"webcluster/internal/testutil"
	"webcluster/internal/workload"
)

func launch(t *testing.T, opts Options) *Cluster {
	t.Helper()
	cluster, err := Launch(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })
	return cluster
}

func smallSite(t *testing.T) *content.Site {
	t.Helper()
	site, err := content.GenerateSite(content.GenParams{
		Objects:          80,
		Seed:             9,
		DynamicFraction:  0.1,
		VideoFraction:    0.01,
		MeanStaticBytes:  1024,
		CriticalFraction: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func TestLaunchDefaults(t *testing.T) {
	cluster := launch(t, Options{})
	if len(cluster.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(cluster.Nodes))
	}
	if cluster.FrontAddr == "" {
		t.Fatal("no front address")
	}
	if got := len(cluster.Controller.Nodes()); got != 3 {
		t.Fatalf("controller nodes = %d", got)
	}
}

func TestPlaceSiteAndGet(t *testing.T) {
	cluster := launch(t, Options{})
	site := smallSite(t)
	if err := cluster.PlaceSite(site, PlaceByType()); err != nil {
		t.Fatal(err)
	}
	if cluster.Table.Len() != site.Len() {
		t.Fatalf("table has %d of %d", cluster.Table.Len(), site.Len())
	}
	// Every object is servable through the front end.
	for rank := 0; rank < 20; rank++ {
		obj := site.ByRank(rank)
		resp, err := cluster.Get(obj.Path)
		if err != nil {
			t.Fatalf("GET %s: %v", obj.Path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s → %d", obj.Path, resp.StatusCode)
		}
		if !obj.Class.Dynamic() && int64(len(resp.Body)) != obj.Size {
			t.Fatalf("GET %s: %d bytes, want %d", obj.Path, len(resp.Body), obj.Size)
		}
	}
	// Unknown path 404s.
	resp, err := cluster.Get("/not/there.html")
	if err != nil || resp.StatusCode != 404 {
		t.Fatalf("missing path: %d, %v", resp.StatusCode, err)
	}
}

func TestPlaceByTypePolicy(t *testing.T) {
	cluster := launch(t, Options{})
	site := smallSite(t)
	if err := cluster.PlaceSite(site, PlaceByType()); err != nil {
		t.Fatal(err)
	}
	// Dynamic content only on the fastest node; critical replicated.
	for _, obj := range site.Objects() {
		rec, err := cluster.Table.Lookup(obj.Path)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case obj.Class.Dynamic():
			if len(rec.Locations) != 1 || rec.Locations[0] != "fast-1" {
				t.Fatalf("dynamic %s at %v", obj.Path, rec.Locations)
			}
		case obj.Priority > 0:
			if len(rec.Locations) < 2 {
				t.Fatalf("critical %s has %v", obj.Path, rec.Locations)
			}
		case obj.Class == content.ClassVideo:
			if len(rec.Locations) != 1 || rec.Locations[0] != "fast-1" {
				t.Fatalf("video %s at %v (biggest disk is fast-1)", obj.Path, rec.Locations)
			}
		}
	}
}

func TestPlaceAllPolicy(t *testing.T) {
	cluster := launch(t, Options{})
	site, err := content.GenerateSite(content.GenParams{Objects: 10, Seed: 1, MeanStaticBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.PlaceSite(site, PlaceAll); err != nil {
		t.Fatal(err)
	}
	rec, err := cluster.Table.Lookup(site.ByRank(0).Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Locations) != 3 {
		t.Fatalf("full replication produced %v", rec.Locations)
	}
}

func TestPlaceRoundRobinPolicy(t *testing.T) {
	p := NewPlaceRoundRobin()
	spec := DefaultSpec()
	seen := map[config.NodeID]int{}
	for i := 0; i < 9; i++ {
		locs := p.Place(content.Object{Path: "/x"}, spec)
		if len(locs) != 1 {
			t.Fatalf("locs = %v", locs)
		}
		seen[locs[0]]++
	}
	for _, n := range spec.NodeIDs() {
		if seen[n] != 3 {
			t.Fatalf("uneven RR: %v", seen)
		}
	}
}

func TestDynamicHandlerResponds(t *testing.T) {
	cluster := launch(t, Options{})
	obj := content.Object{Path: "/cgi-bin/test.cgi", Size: 64, Class: content.ClassCGI, CPUCost: 1}
	if err := cluster.Controller.Insert(obj, []byte("#!"), "fast-1"); err != nil {
		t.Fatal(err)
	}
	resp, err := cluster.Get("/cgi-bin/test.cgi")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "cgi from fast-1: ") {
		t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
	}
}

func TestConsoleIntegration(t *testing.T) {
	cluster := launch(t, Options{ConsoleAddr: "127.0.0.1:0"})
	if cluster.ConsoleAddr == "" {
		t.Fatal("console not started")
	}
	console, err := mgmt.DialConsole(cluster.ConsoleAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = console.Close() }()

	// loadsite through the console, then fetch through the front end.
	resp, err := console.Do(mgmt.ConsoleRequest{
		Op: "loadsite", Objects: 50, Workload: "A", Policy: "rr", Seed: 3,
	})
	if err != nil {
		t.Fatalf("loadsite: %v (%+v)", err, resp)
	}
	site, err := workload.BuildSite(workload.KindA, 50, 4) // seed 3+1
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.Get(site.ByRank(0).Path)
	if err != nil || got.StatusCode != 200 {
		t.Fatalf("GET after loadsite: %v %v", got, err)
	}
	// Balance-now runs (no hot spot: zero actions is fine).
	if _, err := console.Do(mgmt.ConsoleRequest{Op: "balance"}); err != nil {
		t.Fatalf("balance: %v", err)
	}
}

func TestAutoBalancerLoopRuns(t *testing.T) {
	cluster := launch(t, Options{BalanceInterval: 30 * time.Millisecond})
	testutil.Eventually(t, 2*time.Second, func() bool {
		rounds, _ := cluster.Balancer.Rounds()
		return rounds >= 2
	}, "balancer loop did not run")
}

func TestSummary(t *testing.T) {
	cluster := launch(t, Options{})
	site := smallSite(t)
	if err := cluster.PlaceSite(site, PlaceByType()); err != nil {
		t.Fatal(err)
	}
	s := cluster.Summary()
	if !strings.Contains(s, "fast-1") || !strings.Contains(s, "URL table") {
		t.Fatalf("summary = %q", s)
	}
}

func TestLaunchCustomStore(t *testing.T) {
	cluster := launch(t, Options{
		StoreFor: func(config.NodeSpec) backend.Store { return &backend.SyntheticStore{} },
	})
	obj := content.Object{Path: "/big/video.mpg", Size: 1 << 20, Class: content.ClassVideo}
	// Synthetic placement: no data transfer, just a size.
	if err := cluster.Controller.Insert(obj, nil, "slow-1"); err != nil {
		t.Fatal(err)
	}
	resp, err := cluster.Get("/big/video.mpg")
	if err != nil || resp.StatusCode != 200 || len(resp.Body) != 1<<20 {
		t.Fatalf("synthetic video: %d, %d bytes, %v", resp.StatusCode, len(resp.Body), err)
	}
}

func TestLaunchRejectsBadSpec(t *testing.T) {
	_, err := Launch(Options{Spec: config.ClusterSpec{
		Nodes: []config.NodeSpec{{ID: "x"}}, // invalid: zero CPU
	}})
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestWorkloadAgainstCore(t *testing.T) {
	cluster := launch(t, Options{})
	site := smallSite(t)
	if err := cluster.PlaceSite(site, PlaceByType()); err != nil {
		t.Fatal(err)
	}
	report, err := workload.RunClientPool(workload.ClientPoolOptions{
		Addr:      cluster.FrontAddr,
		Clients:   4,
		Duration:  400 * time.Millisecond,
		Site:      site,
		Seed:      1,
		KeepAlive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 {
		t.Fatal("no requests")
	}
	if report.Errors != 0 {
		t.Fatalf("errors = %d of %d", report.Errors, report.Requests)
	}
}

func TestMonitorMarksDeadNodeUnroutable(t *testing.T) {
	cluster := launch(t, Options{MonitorInterval: 25 * time.Millisecond})
	obj := content.Object{Path: "/ha.html", Size: 1, Class: content.ClassHTML}
	if err := cluster.Controller.Insert(obj, []byte("x"), "fast-1", "mid-1"); err != nil {
		t.Fatal(err)
	}
	// Kill mid-1 completely (web server and broker).
	_ = cluster.Nodes["mid-1"].Server.Close()
	_ = cluster.Nodes["mid-1"].Broker.Close()

	// The monitor should flag it down within a few probe intervals.
	testutil.Eventually(t, 3*time.Second, func() bool {
		return !cluster.Distributor.Available("mid-1")
	}, "monitor never marked the dead node down")
	// All traffic lands on the survivor.
	for i := 0; i < 5; i++ {
		resp, err := cluster.Get("/ha.html")
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("resp = %v, %v", resp, err)
		}
		if got := resp.Header.Get("X-Served-By"); got != "fast-1" {
			t.Fatalf("served by %s with mid-1 dead", got)
		}
	}
}

func TestAutoBalanceLiveLoop(t *testing.T) {
	cluster := launch(t, Options{
		BalanceInterval: 150 * time.Millisecond,
		BalanceOptions: loadbal.PlannerOptions{
			Threshold:         0.2,
			MaxActionsPerNode: 4,
			MinHits:           5,
		},
	})
	// Hot spot: popular pages on slow-1 only.
	site, err := content.GenerateSite(content.GenParams{
		Objects: 40, Seed: 11, MeanStaticBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range site.Objects() {
		if err := cluster.Controller.Insert(obj,
			backend.SynthesizeBody(obj.Path, obj.Size), "slow-1"); err != nil {
			t.Fatal(err)
		}
	}
	// Drive load while the background balancer runs.
	_, err = workload.RunClientPool(workload.ClientPoolOptions{
		Addr:      cluster.FrontAddr,
		Clients:   6,
		Duration:  800 * time.Millisecond,
		Site:      site,
		Seed:      1,
		KeepAlive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Within a few intervals the hottest object must gain replicas.
	testutil.Eventually(t, 3*time.Second, func() bool {
		rec, err := cluster.Table.Lookup(site.ByRank(0).Path)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Locations) > 1 {
			return true // auto-replication happened
		}
		// Keep a trickle of load so intervals are non-empty.
		_, _ = cluster.Get(site.ByRank(0).Path)
		return false
	}, "background balancer never replicated the hot object")
}
