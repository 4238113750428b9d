package distributor

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/httpx"
	"webcluster/internal/journal"
	"webcluster/internal/loadbal"
	"webcluster/internal/nfs"
	"webcluster/internal/respcache"
	"webcluster/internal/testutil"
	"webcluster/internal/trace"
	"webcluster/internal/urltable"
)

func TestSetAvailableExcludesNode(t *testing.T) {
	tc := startCluster(t, 2)
	tc.place(t, "/dual.html", []byte("x"), "n1", "n2")
	tc.dist.SetAvailable("n1", false)
	for i := 0; i < 10; i++ {
		resp := fetch(t, tc.front, "/dual.html", httpx.Proto11)
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Served-By"); got != "n2" {
			t.Fatalf("served by %s with n1 down", got)
		}
	}
	// Recovery restores routing.
	tc.dist.SetAvailable("n1", true)
	if !tc.dist.Available("n1") {
		t.Fatal("availability not restored")
	}
}

func TestAllReplicasDown503(t *testing.T) {
	tc := startCluster(t, 1)
	tc.place(t, "/a.html", []byte("x"), "n1")
	tc.dist.SetAvailable("n1", false)
	resp := fetch(t, tc.front, "/a.html", httpx.Proto11)
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

func TestFailoverToSecondReplicaOnDeadBackend(t *testing.T) {
	t.Run("relay", func(t *testing.T) { failoverToSecondReplica(t, nil) })
	// The cache-led fetch is the same back-end leg: it fails over and
	// journals the decision exactly as the relay does.
	t.Run("cache-led", func(t *testing.T) {
		failoverToSecondReplica(t, respcache.New(respcache.Options{FreshTTL: time.Nanosecond}))
	})
}

func failoverToSecondReplica(t *testing.T, rc *respcache.Cache) {
	jnl := journal.New(journal.Options{})
	tc := startClusterOpts(t, 2, func(o *Options) { o.Cache, o.Journal = rc, jnl })
	tc.place(t, "/dual.html", []byte("survivor"), "n1", "n2")
	// Kill n1's web server outright: the distributor's pooled
	// connections to it break mid-exchange.
	_ = tc.backends["n1"].Close()

	ok := 0
	for i := 0; i < 10; i++ {
		resp := fetch(t, tc.front, "/dual.html", httpx.Proto11)
		if resp.StatusCode == 200 {
			// (a cached reply carries no X-Served-By)
			if got := resp.Header.Get("X-Served-By"); rc == nil && got != "n2" {
				t.Fatalf("served by %s after n1 died", got)
			}
			ok++
		}
	}
	// Every request must succeed: picks of n1 fail over to n2 within
	// the same request.
	if ok != 10 {
		t.Fatalf("only %d/10 requests survived the node failure", ok)
	}
	for _, ev := range jnl.Snapshot(0) {
		if ev.Kind == journal.KindFailover && ev.Node == "n1" && ev.Detail == "n2" && ev.Path == "/dual.html" {
			return
		}
	}
	t.Fatalf("no failover n1→n2 in the journal: %v", jnl.Snapshot(0))
}

func TestDeadSoleReplica502(t *testing.T) {
	tc := startCluster(t, 2)
	tc.place(t, "/single.html", []byte("x"), "n1")
	_ = tc.backends["n1"].Close()
	resp := fetch(t, tc.front, "/single.html", httpx.Proto11)
	if resp.StatusCode != 502 {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
}

func TestRecoveryAfterRestartWindow(t *testing.T) {
	tc := startCluster(t, 2)
	tc.place(t, "/dual.html", []byte("x"), "n1", "n2")
	tc.dist.SetAvailable("n2", false)
	resp := fetch(t, tc.front, "/dual.html", httpx.Proto11)
	if resp.Header.Get("X-Served-By") != "n1" {
		t.Fatalf("served by %s", resp.Header.Get("X-Served-By"))
	}
	tc.dist.SetAvailable("n2", true)
	// Both nodes routable again: hammer and confirm no errors.
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		resp := fetch(t, tc.front, "/dual.html", httpx.Proto11)
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d after recovery", resp.StatusCode)
		}
	}
}

func TestLoadAwarePickerUsesPublishedLoads(t *testing.T) {
	tc := startCluster(t, 2)
	tc.place(t, "/dual.html", []byte("x"), "n1", "n2")
	// Swap in the load-aware picker and publish loads marking n1 hot.
	tc.dist.UpdateLoads(map[config.NodeID]float64{"n1": 50, "n2": 1})
	// Rebuild with LeastLoad: easier to construct a dedicated cluster.
	table := tc.table
	spec := tc.spec
	dist2, err := New(Options{
		Table:   table,
		Cluster: spec,
		Picker:  loadbal.LeastLoad{},
	})
	if err != nil {
		t.Fatal(err)
	}
	front2, err := dist2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dist2.Close() }()
	dist2.UpdateLoads(map[config.NodeID]float64{"n1": 50, "n2": 1})
	for i := 0; i < 8; i++ {
		resp := fetch(t, front2, "/dual.html", httpx.Proto11)
		if got := resp.Header.Get("X-Served-By"); got != "n2" {
			t.Fatalf("load-aware pick served by %s", got)
		}
	}
}

func TestAccessLogRecordsAndReplays(t *testing.T) {
	tc := startCluster(t, 2)
	tc.place(t, "/logged.html", []byte("hello"), "n1", "n2")

	// A second distributor over the same backends, with an access log.
	var logBuf syncBuffer
	dist, err := New(Options{
		Table:     tc.table,
		Cluster:   tc.spec,
		AccessLog: &logBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
	front, err := dist.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dist.Close() }()

	for i := 0; i < 5; i++ {
		resp := fetch(t, front, "/logged.html", httpx.Proto11)
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}
	_ = fetch(t, front, "/missing.html", httpx.Proto11) // a 404 line

	// A line is written after its response, so the last ones can trail the
	// client.
	testutil.Eventually(t, 2*time.Second, func() bool {
		return strings.Count(logBuf.String(), "\n") == 6
	}, "access log never reached 6 lines:\n%s", logBuf.String())
	entries, err := trace.Read(strings.NewReader(logBuf.String()))
	if err != nil {
		t.Fatalf("parsing access log: %v\nlog:\n%s", err, logBuf.String())
	}
	okCount, notFound := 0, 0
	for _, e := range entries {
		switch e.Status {
		case 200:
			okCount++
			if e.Bytes != 5 {
				t.Fatalf("logged bytes = %d", e.Bytes)
			}
		case 404:
			notFound++
		}
	}
	if okCount != 5 || notFound != 1 {
		t.Fatalf("statuses: %d ok, %d notfound", okCount, notFound)
	}

	// Replay the recorded trace against the same front end: statuses
	// must reproduce exactly.
	report, err := trace.Replay(entries, trace.ReplayOptions{Addr: front, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests != 6 || report.Errors != 0 || report.StatusMismatches != 0 {
		t.Fatalf("replay report = %+v", report)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for the access log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestLiveNFSConfiguration(t *testing.T) {
	// Configuration 2 end to end over real sockets: content lives on a
	// shared file server; web nodes have no local copies; an L4-style
	// all-nodes URL table entry routes anywhere and every node can still
	// serve by fetching remotely.
	sharedStore := &backend.MemStore{}
	_ = sharedStore.Put("/shared/page.html", []byte("from the file server"))
	fileServer := nfs.NewServer(sharedStore)
	nfsAddr, err := fileServer.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fileServer.Close() }()

	spec := config.ClusterSpec{DistributorCPUMHz: 350}
	for i := 0; i < 2; i++ {
		id := config.NodeID(fmt.Sprintf("web%d", i+1))
		client := nfs.Dial(nfsAddr)
		defer func() { _ = client.Close() }()
		srv, err := backend.NewServer(backend.ServerOptions{
			Spec: config.NodeSpec{
				ID: id, CPUMHz: 350, MemoryMB: 64,
				Disk: config.DiskSCSI, Platform: config.LinuxApache,
			},
			Store: nfs.NewRemoteStore(client),
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = srv.Close() }()
		spec.Nodes = append(spec.Nodes, config.NodeSpec{
			ID: id, CPUMHz: 350, MemoryMB: 64,
			Disk: config.DiskSCSI, Platform: config.LinuxApache, Addr: addr,
		})
	}

	table := urltable.New(urltable.Options{})
	obj := content.Object{Path: "/shared/page.html", Size: 20, Class: content.ClassHTML}
	if err := table.Insert(obj, "web1", "web2"); err != nil {
		t.Fatal(err)
	}
	dist, err := New(Options{Table: table, Cluster: spec})
	if err != nil {
		t.Fatal(err)
	}
	front, err := dist.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dist.Close() }()

	for i := 0; i < 4; i++ {
		resp := fetch(t, front, "/shared/page.html", httpx.Proto11)
		if resp.StatusCode != 200 || string(resp.Body) != "from the file server" {
			t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
		}
	}
	if fileServer.Requests.Value() == 0 {
		t.Fatal("file server never consulted")
	}
	// Web-node page caches absorb repeats: far fewer NFS fetches than
	// client requests.
	if fileServer.Requests.Value() > 3 {
		t.Fatalf("NFS fetches = %d, want ≤ node count (page-cached)", fileServer.Requests.Value())
	}
}
