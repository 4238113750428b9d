package webcluster

// Chaos suite: seeded fault schedules applied to a live in-process
// cluster while Workload-A traffic runs. Every scenario is reproducible
// from the seed the harness logs at start (rerun with CHAOS_SEED=<seed>).
// Invariants asserted throughout:
//   - no request is silently lost: every client request either succeeds
//     or is a counted error, and where a healthy replica exists the
//     failover path absorbs the fault (zero errors, bar the exchanges whose
//     response header had reached the client when the fault began — see
//     TestChaosSlowReplicaFailover);
//   - takeover completes under replication-stream truncation/corruption;
//   - the mapping table drains to CLOSED after traffic stops;
//   - no goroutine outlives its test (testutil.NoLeaks).

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/core"
	"webcluster/internal/distributor"
	"webcluster/internal/faults"
	"webcluster/internal/httpx"
	"webcluster/internal/journal"
	"webcluster/internal/loadbal"
	"webcluster/internal/respcache"
	"webcluster/internal/testutil"
	"webcluster/internal/urltable"
	"webcluster/internal/workload"
)

// chaosCluster is a backends-plus-distributor fixture with the chaos
// injector threaded through every layer.
type chaosCluster struct {
	spec     config.ClusterSpec
	table    *urltable.Table
	dist     *distributor.Distributor
	front    string
	backends map[config.NodeID]*backend.Server
	stores   map[config.NodeID]backend.Store
}

// chaosExchangeTimeout is the distributor's back-end exchange deadline in
// every chaos cluster; chaosClients is how many closed-loop connections
// driveWorkloadA keeps open against it.
const (
	chaosExchangeTimeout = 250 * time.Millisecond
	chaosClients         = 4
)

// startChaosCluster boots n backend nodes and a distributor with tight
// exchange deadlines, all wired to in. mods adjust the distributor
// options (e.g. to enable the response cache) before New.
func startChaosCluster(t *testing.T, in *faults.Injector, n int, mods ...func(*distributor.Options)) *chaosCluster {
	t.Helper()
	testutil.NoLeaks(t)
	cc := &chaosCluster{
		spec:     config.ClusterSpec{DistributorCPUMHz: 350},
		backends: make(map[config.NodeID]*backend.Server, n),
		stores:   make(map[config.NodeID]backend.Store, n),
	}
	for i := 0; i < n; i++ {
		id := config.NodeID(fmt.Sprintf("n%d", i+1))
		store := &backend.MemStore{}
		srv, err := backend.NewServer(backend.ServerOptions{
			Spec: config.NodeSpec{
				ID: id, CPUMHz: 350, MemoryMB: 64,
				Disk: config.DiskSCSI, Platform: config.LinuxApache,
			},
			Store:  store,
			Faults: in,
		})
		if err != nil {
			t.Fatal(err)
		}
		registerChaosDynamic(srv, id)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cc.spec.Nodes = append(cc.spec.Nodes, config.NodeSpec{
			ID: id, CPUMHz: 350, MemoryMB: 64,
			Disk: config.DiskSCSI, Platform: config.LinuxApache, Addr: addr,
		})
		cc.backends[id] = srv
		cc.stores[id] = store
		t.Cleanup(func() { _ = srv.Close() })
	}
	cc.table = urltable.New(urltable.Options{})
	opts := distributor.Options{
		Table:           cc.table,
		Cluster:         cc.spec,
		PreforkPerNode:  2,
		ExchangeTimeout: chaosExchangeTimeout,
		RetryBackoff:    time.Millisecond,
		Faults:          in,
	}
	for _, mod := range mods {
		mod(&opts)
	}
	dist, err := distributor.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	front, err := dist.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cc.dist = dist
	cc.front = front
	t.Cleanup(func() { _ = dist.Close() })
	return cc
}

// registerChaosDynamic mirrors the default dynamic handlers the cluster
// façade installs, so Workload-A's CGI/ASP paths are servable.
func registerChaosDynamic(srv *backend.Server, id config.NodeID) {
	h := func(req *httpx.Request) ([]byte, float64, error) {
		return []byte("<html>dyn " + string(id) + " " + req.Path + "</html>\n"), 1.0, nil
	}
	srv.HandlePrefix("/cgi-bin/", h)
	srv.HandlePrefix("/asp/", h)
}

// chaosSite builds a small Workload-A site and replicates every object on
// every node, so a single faulty node always leaves a healthy replica.
func chaosSite(t *testing.T, cc *chaosCluster, objects int, seed int64) *content.Site {
	t.Helper()
	site, err := workload.BuildSite(workload.KindA, objects, seed)
	if err != nil {
		t.Fatal(err)
	}
	ids := cc.spec.NodeIDs()
	for _, obj := range site.Objects() {
		if !obj.Class.Dynamic() {
			body := backend.SynthesizeBody(obj.Path, obj.Size)
			for _, id := range ids {
				if err := cc.stores[id].Put(obj.Path, body); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := cc.table.Insert(obj, ids...); err != nil {
			t.Fatal(err)
		}
	}
	return site
}

// driveWorkloadA runs closed-loop Workload-A clients against the front
// end for the given duration.
func driveWorkloadA(t *testing.T, front string, site *content.Site, d time.Duration, seed int64) workload.Report {
	t.Helper()
	report, err := workload.RunClientPool(workload.ClientPoolOptions{
		Addr:      front,
		Clients:   chaosClients,
		Duration:  d,
		Site:      site,
		Seed:      seed,
		KeepAlive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 {
		t.Fatal("workload issued no requests")
	}
	return report
}

// assertMappingDrains: after traffic ends, every tracked client
// connection must walk to CLOSED and be deleted.
func assertMappingDrains(t *testing.T, d *distributor.Distributor) {
	t.Helper()
	testutil.Eventually(t, 3*time.Second, func() bool {
		return d.Mapping().Len() == 0
	}, "mapping table did not drain to CLOSED: %d entries live", d.Mapping().Len())
}

// TestChaosSlowReplicaFailover: mid-run, every distributor connection to
// n1 becomes a slow-loris (reads stall past the exchange deadline) and
// stays one. With all content replicated on n2, the exchange-deadline +
// failover path must absorb the fault — up to the documented contract of
// exchange.stream: a relay whose response header had already reached the
// client when its back-end connection stalled cannot be failed over, it
// is cut at the exchange deadline and counted as a relay truncation. So:
//
//   - across the flip, at most one request per client connection is lost
//     (one exchange in flight on each), and every loss is a counted
//     truncation;
//   - once the flip is one exchange deadline old, nothing is lost: every
//     exchange that was in flight has been cut, and a new one that lands
//     on stalled n1 fails over before a byte reaches the client.
//
// Reverting the deadline in attemptStart leaves relay goroutines stuck
// behind the stall and this test fails on errors/timeouts.
func TestChaosSlowReplicaFailover(t *testing.T) {
	h := faults.NewHarness(faults.Seed(101), t.Logf)
	cc := startChaosCluster(t, h.In, 2)
	site := chaosSite(t, cc, 60, 101)

	stall := &faults.Rule{ReadStall: time.Minute}
	flipped := make(chan time.Time, 1)
	join, stop := h.Go(faults.Scenario{
		Name: "slow-replica",
		Steps: []faults.Step{
			{At: 150 * time.Millisecond, Point: "pool.conn/n1", Rule: stall,
				Action: func() { flipped <- time.Now() },
				Note:   "n1 relay connections become slow-loris"},
		},
	})
	defer stop()

	across := driveWorkloadA(t, cc.front, site, 500*time.Millisecond, 1)
	if err := join(); err != nil {
		t.Fatal(err)
	}
	flipAt := <-flipped
	cut := cc.dist.RelayTruncations()
	if across.Errors > chaosClients || across.Errors > cut {
		t.Fatalf("lost %d of %d requests across the flip with %d relay truncations; want at most one per client (%d), each a truncation (seed %d)",
			across.Errors, across.Requests, cut, chaosClients, h.In.Seed())
	}

	// pacing: the second window must open a full exchange deadline after
	// the flip, whenever the scheduler let the flip happen
	time.Sleep(time.Until(flipAt.Add(chaosExchangeTimeout)))
	after := driveWorkloadA(t, cc.front, site, 300*time.Millisecond, 2)
	if after.Errors != 0 || cc.dist.RelayTruncations() != cut {
		t.Fatalf("lost %d of %d requests (%d new truncations) with the fault a full exchange deadline old (seed %d)",
			after.Errors, after.Requests, cc.dist.RelayTruncations()-cut, h.In.Seed())
	}
	if h.In.Fired("pool.conn/n1") == 0 {
		t.Fatal("schedule never hit the fault point — scenario exercised nothing")
	}
	h.In.Clear("pool.conn/n1")
	assertMappingDrains(t, cc.dist)
}

// TestChaosReplicationStreamTakeover: the backup must still take over
// when the replication stream is truncated or corrupted mid-run, using
// the last good snapshot.
func TestChaosReplicationStreamTakeover(t *testing.T) {
	cases := []struct {
		name string
		rule faults.Rule
	}{
		{"truncation", faults.Rule{DropAfterBytes: 200}},
		{"corruption", faults.Rule{CorruptEveryN: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := faults.NewHarness(faults.Seed(202), t.Logf)
			cc := startChaosCluster(t, h.In, 2)
			site := chaosSite(t, cc, 20, 202)

			repl := distributor.NewReplicationServer(cc.dist, 25*time.Millisecond)
			repl.SetFaults(h.In)
			replAddr, err := repl.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serviceAddr := cc.front
			promote := func(table *urltable.Table, spec config.ClusterSpec) (*distributor.Distributor, error) {
				d, err := distributor.New(distributor.Options{Table: table, Cluster: spec})
				if err != nil {
					return nil, err
				}
				// The failed primary's port may linger briefly.
				for i := 0; i < 100; i++ {
					if _, err = d.Start(serviceAddr); err == nil {
						return d, nil
					}
					time.Sleep(10 * time.Millisecond)
				}
				return nil, err
			}
			b := distributor.NewBackup(replAddr, 150*time.Millisecond, promote)
			if err := b.Start(); err != nil {
				t.Fatal(err)
			}

			// Schedule: once a full snapshot has replicated, break the
			// stream and crash the primary.
			rule := tc.rule
			join, stop := h.Go(faults.Scenario{
				Name: "repl-" + tc.name,
				Steps: []faults.Step{
					{At: 0, Action: func() {
						if !testutil.EventuallyTrue(3*time.Second, b.StateReceived) {
							t.Error("no snapshot replicated before fault")
						}
					}, Note: "wait for first full snapshot"},
					{At: 0, Point: "repl.feed", Rule: &rule,
						Note: "break the replication stream (" + tc.name + ")"},
					{At: 200 * time.Millisecond, Action: func() {
						_ = repl.Close()
						_ = cc.dist.Close()
					}, Note: "crash the primary"},
				},
			})
			defer stop()
			if err := join(); err != nil {
				t.Fatal(err)
			}

			successor, err := b.Promoted(5 * time.Second)
			if err != nil {
				t.Fatalf("takeover under %s failed (seed %d): %v", tc.name, h.In.Seed(), err)
			}
			if successor == nil {
				t.Fatalf("no takeover under %s (seed %d)", tc.name, h.In.Seed())
			}
			defer func() { _ = successor.Close() }()
			if got, want := successor.Table().Len(), cc.table.Len(); got != want {
				t.Fatalf("replicated table has %d entries, want %d", got, want)
			}
			// The cluster serves again on the original service address.
			obj := site.ByRank(0)
			testutil.Eventually(t, 3*time.Second, func() bool {
				resp, err := getOnce(serviceAddr, obj.Path)
				return err == nil && resp.StatusCode == 200
			}, "post-takeover fetch of %s never succeeded", obj.Path)
			if h.In.Fired("repl.feed") == 0 {
				t.Fatal("stream fault never fired")
			}
		})
	}
}

// TestChaosBackendCrashRestartUnderLoad: one node crashes mid-run and
// later restarts on the same address while Workload-A traffic flows.
// Every request must be absorbed by the surviving replica (zero errors),
// and the mapping table must drain afterwards.
func TestChaosBackendCrashRestartUnderLoad(t *testing.T) {
	h := faults.NewHarness(faults.Seed(303), t.Logf)
	cc := startChaosCluster(t, h.In, 2)
	site := chaosSite(t, cc, 60, 303)

	n1Addr := ""
	for _, n := range cc.spec.Nodes {
		if n.ID == "n1" {
			n1Addr = n.Addr
		}
	}
	join, stop := h.Go(faults.Scenario{
		Name: "crash-restart",
		Steps: []faults.Step{
			{At: 150 * time.Millisecond, Action: func() {
				_ = cc.backends["n1"].Close()
			}, Note: "crash n1"},
			{At: 450 * time.Millisecond, Action: func() {
				srv, err := backend.NewServer(backend.ServerOptions{
					Spec: config.NodeSpec{
						ID: "n1", CPUMHz: 350, MemoryMB: 64,
						Disk: config.DiskSCSI, Platform: config.LinuxApache,
					},
					Store:  cc.stores["n1"],
					Faults: h.In,
				})
				if err != nil {
					t.Errorf("rebuilding n1: %v", err)
					return
				}
				registerChaosDynamic(srv, "n1")
				if _, err := srv.Start(n1Addr); err != nil {
					t.Errorf("restarting n1 on %s: %v", n1Addr, err)
					return
				}
				t.Cleanup(func() { _ = srv.Close() })
			}, Note: "restart n1 on the same address"},
		},
	})
	defer stop()

	report := driveWorkloadA(t, cc.front, site, 800*time.Millisecond, 2)
	if err := join(); err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("lost %d of %d requests across crash/restart (seed %d)",
			report.Errors, report.Requests, h.In.Seed())
	}
	assertMappingDrains(t, cc.dist)
}

// TestChaosProberBlackhole: black-holing one node's health probes in a
// full cluster must take it out of routing (traffic continues on the
// replica) and restore it when the blackhole lifts.
func TestChaosProberBlackhole(t *testing.T) {
	testutil.NoLeaks(t)
	h := faults.NewHarness(faults.Seed(404), t.Logf)
	cluster, err := core.Launch(core.Options{
		MonitorInterval: 20 * time.Millisecond,
		Faults:          h.In,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	obj := content.Object{Path: "/ha.html", Size: 1, Class: content.ClassHTML}
	if err := cluster.Controller.Insert(obj, []byte("x"), "fast-1", "mid-1"); err != nil {
		t.Fatal(err)
	}

	h.In.Set("probe/mid-1", faults.Rule{Refuse: true})
	testutil.Eventually(t, 3*time.Second, func() bool {
		return !cluster.Distributor.Available("mid-1")
	}, "black-holed node never left routing")
	for i := 0; i < 5; i++ {
		resp, err := cluster.Get("/ha.html")
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("fetch with mid-1 black-holed: %v %v", resp, err)
		}
		if got := resp.Header.Get("X-Served-By"); got != "fast-1" {
			t.Fatalf("served by %s while mid-1 is unroutable", got)
		}
	}

	h.In.Clear("probe/mid-1")
	testutil.Eventually(t, 3*time.Second, func() bool {
		return cluster.Distributor.Available("mid-1")
	}, "node never rejoined routing after blackhole lifted")
	if h.In.Fired("probe/mid-1") == 0 {
		t.Fatal("blackhole rule never fired")
	}
}

// TestChaosStaleOnError: with the response cache enabled, black-holing
// every replica of a hot path after its freshness lapses must degrade to
// stale-on-error service (the expired copy, marked STALE) instead of a
// 502 — and once the replicas recover, the next fetch revalidates and
// the path returns to fresh HIT service.
func TestChaosStaleOnError(t *testing.T) {
	h := faults.NewHarness(faults.Seed(505), t.Logf)
	rc := respcache.New(respcache.Options{
		FreshTTL: 100 * time.Millisecond,
		StaleTTL: time.Hour,
	})
	cc := startChaosCluster(t, h.In, 2, func(o *distributor.Options) { o.Cache = rc })
	body := []byte("<html>hot object v1</html>")
	for _, id := range []config.NodeID{"n1", "n2"} {
		if err := cc.stores[id].Put("/hot.html", body); err != nil {
			t.Fatal(err)
		}
	}
	obj := content.Object{Path: "/hot.html", Size: int64(len(body)), Class: content.ClassHTML}
	if err := cc.table.Insert(obj, "n1", "n2"); err != nil {
		t.Fatal(err)
	}

	// warm the cache, then let freshness lapse
	resp, err := getOnce(cc.front, "/hot.html")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("warming fetch: %v %v", resp, err)
	}
	if got := resp.Header.Get("X-Dist-Cache"); got != "MISS" {
		t.Fatalf("warming verdict = %q", got)
	}
	time.Sleep(150 * time.Millisecond)

	// every replica becomes a slow-loris: each exchange stalls past the
	// 250ms deadline, so no back end can answer or revalidate
	h.In.Set("pool.conn/n1", faults.Rule{ReadStall: time.Minute})
	h.In.Set("pool.conn/n2", faults.Rule{ReadStall: time.Minute})
	resp, err = getOnce(cc.front, "/hot.html")
	if err != nil {
		t.Fatalf("fetch with all replicas down: %v", err)
	}
	if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("stale-on-error: status=%d body=%q", resp.StatusCode, resp.Body)
	}
	if got := resp.Header.Get("X-Dist-Cache"); got != "STALE" {
		t.Fatalf("blackholed verdict = %q, want STALE (seed %d)", got, h.In.Seed())
	}
	if h.In.Fired("pool.conn/n1")+h.In.Fired("pool.conn/n2") == 0 {
		t.Fatal("blackhole rules never fired")
	}

	// recovery: the stalls lift, the stale entry revalidates (the body
	// never changed, so the back end answers 304), and service is fresh
	h.In.Clear("pool.conn/n1")
	h.In.Clear("pool.conn/n2")
	resp, err = getOnce(cc.front, "/hot.html")
	if err != nil {
		t.Fatalf("post-recovery fetch: %v", err)
	}
	if got := resp.Header.Get("X-Dist-Cache"); got != "REVALIDATED" && got != "MISS" {
		t.Fatalf("post-recovery verdict = %q (seed %d)", got, h.In.Seed())
	}
	if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("post-recovery: status=%d body=%q", resp.StatusCode, resp.Body)
	}
	resp, err = getOnce(cc.front, "/hot.html")
	if err != nil || resp.Header.Get("X-Dist-Cache") != "HIT" {
		t.Fatalf("fresh service not restored: %v %v", resp, err)
	}
	if st := rc.Stats(); st.StaleServed == 0 || st.Revalidated == 0 {
		t.Fatalf("cache stats after scenario: %+v", st)
	}
	assertMappingDrains(t, cc.dist)
}

// TestChaosFlightRecorderCausalChain: killing a replica mid-traffic must
// leave a self-explaining flight bundle. The chain the bundle has to
// carry, linked by one incident trace ID: the injected fault on the
// node's connection pool, the distributor's failover decision away from
// it, the monitor taking it out of service, and the purge issued when
// the planner's repair round replicated critical content under the open
// incident. Reproducible from the harness seed (CHAOS_SEED).
func TestChaosFlightRecorderCausalChain(t *testing.T) {
	testutil.NoLeaks(t)
	h := faults.NewHarness(faults.Seed(606), t.Logf)
	dir := t.TempDir()
	balOpts := loadbal.DefaultPlannerOptions()
	balOpts.PriorityMinCopies = 2
	cluster, err := core.Launch(core.Options{
		MonitorInterval: 20 * time.Millisecond,
		Faults:          h.In,
		FlightDir:       dir,
		CacheBytes:      1 << 20,
		BalanceOptions:  balOpts,
		// Round-robin so the killed replica keeps being picked first (the
		// weighted default would park all idle traffic on fast-1 and never
		// exercise the failover).
		Picker: &loadbal.RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()

	// /ha.html is replicated so traffic survives the kill; /critical.html
	// sits below its availability floor on the node that stays up, so the
	// post-incident planning round must replicate (and purge) it.
	ha := content.Object{Path: "/ha.html", Size: 1, Class: content.ClassHTML}
	if err := cluster.Controller.Insert(ha, []byte("x"), "fast-1", "mid-1"); err != nil {
		t.Fatal(err)
	}
	crit := content.Object{Path: "/critical.html", Size: 1, Class: content.ClassHTML}
	if err := cluster.Controller.Insert(crit, []byte("c"), "fast-1"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Controller.SetPriority("/critical.html", 1); err != nil {
		t.Fatal(err)
	}
	if resp, err := cluster.Get("/ha.html"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("warming fetch: %v %v", resp, err)
	}

	// Kill mid-1's data plane: every pool connection is refused. Traffic
	// keeps flowing — each request that picks mid-1 fails over — and the
	// injector + distributor journal the fault and the failover under one
	// incident trace.
	h.In.Set("pool.conn/mid-1", faults.Rule{Refuse: true})
	hasEvent := func(kind journal.Kind) bool {
		for _, ev := range cluster.Journal.Snapshot(0) {
			if ev.Kind == kind {
				return true
			}
		}
		return false
	}
	testutil.Eventually(t, 5*time.Second, func() bool {
		if hasEvent(journal.KindFailover) {
			return true
		}
		// The query string bypasses the response cache so every fetch
		// exercises the relay (and, round-robin, the killed replica).
		resp, err := getOnce(cluster.FrontAddr, "/ha.html?nocache")
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("fetch with mid-1 killed: %v %v (seed %d)", resp, err, h.In.Seed())
		}
		return false
	}, "no failover journaled while mid-1's pool was refused (seed %d)", h.In.Seed())

	// The health plane notices next: black-hole mid-1's probes and wait
	// for the monitor's down transition on the same incident.
	h.In.Set("probe/mid-1", faults.Rule{Refuse: true})
	testutil.Eventually(t, 5*time.Second, func() bool {
		return hasEvent(journal.KindNodeDown)
	}, "monitor never journaled mid-1 going down (seed %d)", h.In.Seed())

	// Repair round while the incident is open: the availability floor
	// replicates /critical.html, purging it from the response cache with
	// the incident trace attached.
	if _ = cluster.Balancer.RunOnce(); !hasEvent(journal.KindPurge) {
		t.Fatalf("planning round journaled no purge (seed %d)", h.In.Seed())
	}

	bundlePath, err := cluster.Recorder.Dump("chaos causal chain")
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := journal.ReadBundle(bundlePath)
	if err != nil {
		t.Fatal(err)
	}

	// The whole chain must be in the bundle, linked by one trace ID.
	find := func(kind journal.Kind) *journal.Event {
		for i := range bundle.Events {
			if bundle.Events[i].Kind == kind {
				return &bundle.Events[i]
			}
		}
		return nil
	}
	fault := find(journal.KindFault)
	failover := find(journal.KindFailover)
	down := find(journal.KindNodeDown)
	// Insert-time purges carry no trace; the chain's purge is the one the
	// repair replication issued.
	var purge *journal.Event
	for i := range bundle.Events {
		if bundle.Events[i].Kind == journal.KindPurge && bundle.Events[i].Detail == "replicate" {
			purge = &bundle.Events[i]
		}
	}
	for name, ev := range map[string]*journal.Event{
		"fault": fault, "failover": failover, "node-down": down, "purge": purge,
	} {
		if ev == nil {
			t.Fatalf("bundle is missing the %s event (seed %d)", name, h.In.Seed())
		}
	}
	if fault.Trace == 0 {
		t.Fatalf("fault event carries no incident trace (seed %d)", h.In.Seed())
	}
	for name, ev := range map[string]*journal.Event{
		"failover": failover, "node-down": down, "purge": purge,
	} {
		if ev.Trace != fault.Trace {
			t.Fatalf("%s trace %016x != fault trace %016x: causal chain broken (seed %d)",
				name, ev.Trace, fault.Trace, h.In.Seed())
		}
	}
	if fault.Node != "mid-1" || failover.Node != "mid-1" || down.Node != "mid-1" {
		t.Fatalf("chain not anchored on mid-1: fault=%q failover=%q down=%q",
			fault.Node, failover.Node, down.Node)
	}
	if purge.Path != "/critical.html" {
		t.Fatalf("purge path = %q, want /critical.html", purge.Path)
	}
	if len(bundle.Sources) == 0 {
		t.Fatal("bundle carries no telemetry/placement sources")
	}
}

// getOnce issues one HTTP/1.1 request with Connection: close.
func getOnce(addr, path string) (*httpx.Response, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	req := &httpx.Request{
		Method: "GET",
		Target: path,
		Path:   path,
		Proto:  httpx.Proto11,
		Header: httpx.NewHeader("Host", "chaos", "Connection", "close"),
	}
	if err := httpx.WriteRequest(conn, req); err != nil {
		return nil, err
	}
	return httpx.ReadResponse(bufio.NewReader(conn))
}
