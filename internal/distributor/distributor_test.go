package distributor

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/httpx"
	"webcluster/internal/testutil"
	"webcluster/internal/urltable"
)

// testCluster is a distributor over live in-process backends.
type testCluster struct {
	table    *urltable.Table
	dist     *Distributor
	front    string
	backends map[config.NodeID]*backend.Server
	spec     config.ClusterSpec
}

// startCluster launches n backends and a distributor over them.
func startCluster(t *testing.T, n int) *testCluster {
	return startClusterOpts(t, n, nil)
}

// startClusterOpts is startCluster with a hook to adjust the distributor
// options (fault injectors, timeouts) before New.
func startClusterOpts(t *testing.T, n int, tweak func(*Options)) *testCluster {
	t.Helper()
	testutil.NoLeaks(t) // registered first so it checks after all closes
	spec := config.ClusterSpec{DistributorCPUMHz: 350}
	backends := make(map[config.NodeID]*backend.Server, n)
	for i := 0; i < n; i++ {
		id := config.NodeID(fmt.Sprintf("n%d", i+1))
		store := &backend.MemStore{}
		srv, err := backend.NewServer(backend.ServerOptions{
			Spec: config.NodeSpec{
				ID: id, CPUMHz: 350, MemoryMB: 64,
				Disk: config.DiskSCSI, Platform: config.LinuxApache,
			},
			Store: store,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		spec.Nodes = append(spec.Nodes, config.NodeSpec{
			ID: id, CPUMHz: 350, MemoryMB: 64,
			Disk: config.DiskSCSI, Platform: config.LinuxApache, Addr: addr,
		})
		backends[id] = srv
		t.Cleanup(func() { _ = srv.Close() })
	}
	table := urltable.New(urltable.Options{})
	opts := Options{Table: table, Cluster: spec, PreforkPerNode: 2}
	if tweak != nil {
		tweak(&opts)
	}
	dist, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	front, err := dist.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dist.Close() })
	return &testCluster{table: table, dist: dist, front: front, backends: backends, spec: spec}
}

// clientConns reads the distributor_client_conns gauge: how many client
// connections the distributor is serving.
func clientConns(d *Distributor) int {
	return int(d.Stats().Snapshot().Gauges["distributor_client_conns"])
}

// place puts an object on specific nodes and registers it.
func (tc *testCluster) place(t *testing.T, path string, body []byte, nodes ...config.NodeID) {
	t.Helper()
	for _, id := range nodes {
		if err := tc.backends[id].Store().Put(path, body); err != nil {
			t.Fatal(err)
		}
	}
	obj := content.Object{Path: path, Size: int64(len(body)), Class: content.Classify(path)}
	if err := tc.table.Insert(obj, nodes...); err != nil {
		t.Fatal(err)
	}
}

// fetch issues one request on a fresh connection.
func fetch(t *testing.T, addr, path, proto string) *httpx.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	req := &httpx.Request{
		Method: "GET", Target: path, Path: path,
		Proto: proto, Header: httpx.NewHeader("Host", "c"),
	}
	if proto == httpx.Proto11 {
		req.Header.Set("Connection", "close")
	}
	if err := httpx.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRoutesToHoldingNode(t *testing.T) {
	tc := startCluster(t, 3)
	tc.place(t, "/only-on-n2.html", []byte("content-n2"), "n2")
	for i := 0; i < 5; i++ {
		resp := fetch(t, tc.front, "/only-on-n2.html", httpx.Proto11)
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Served-By"); got != "n2" {
			t.Fatalf("served by %s, want n2", got)
		}
	}
	// counters move in finish, after the reply is on the wire
	testutil.Eventually(t, 2*time.Second, func() bool { return tc.dist.Routed() == 5 },
		"routed = %d, want 5", tc.dist.Routed())
}

func TestUnknownPath404(t *testing.T) {
	tc := startCluster(t, 2)
	resp := fetch(t, tc.front, "/ghost.html", httpx.Proto11)
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	testutil.Eventually(t, 2*time.Second, func() bool { return tc.dist.NoRoute() == 1 },
		"noRoute = %d, want 1", tc.dist.NoRoute())
}

func TestUnknownLocation503(t *testing.T) {
	tc := startCluster(t, 2)
	obj := content.Object{Path: "/orphan.html", Size: 1, Class: content.ClassHTML}
	if err := tc.table.Insert(obj, "not-a-node"); err != nil {
		t.Fatal(err)
	}
	resp := fetch(t, tc.front, "/orphan.html", httpx.Proto11)
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestSpreadsAcrossReplicas(t *testing.T) {
	tc := startCluster(t, 3)
	tc.place(t, "/everywhere.html", []byte("x"), "n1", "n2", "n3")
	// WLC spreads only under concurrency (sequential requests always
	// see zero actives and tie to the first replica), so hammer the
	// front end from many goroutines and look at which backends served.
	var wg sync.WaitGroup
	var mu sync.Mutex
	served := map[string]int{}
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp := fetch(t, tc.front, "/everywhere.html", httpx.Proto11)
				mu.Lock()
				served[resp.Header.Get("X-Served-By")]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(served) < 2 {
		t.Fatalf("replica spread = %v, want >1 node used", served)
	}
}

func TestKeepAliveMultipleRequests(t *testing.T) {
	tc := startCluster(t, 2)
	tc.place(t, "/a.html", []byte("A"), "n1")
	tc.place(t, "/b.html", []byte("B"), "n2")

	conn, err := net.Dial("tcp", tc.front)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	for _, path := range []string{"/a.html", "/b.html", "/a.html"} {
		req := &httpx.Request{
			Method: "GET", Target: path, Path: path,
			Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c"),
		}
		if err := httpx.WriteRequest(conn, req); err != nil {
			t.Fatal(err)
		}
		resp, err := httpx.ReadResponse(br)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s → %d", path, resp.StatusCode)
		}
	}
	// One client connection carried all three requests and is still open.
	if n := clientConns(tc.dist); n != 1 {
		t.Fatalf("client connections = %d, want the one keep-alive connection", n)
	}
}

func TestHTTP10ClosesAfterResponse(t *testing.T) {
	tc := startCluster(t, 1)
	tc.place(t, "/a.html", []byte("x"), "n1")
	conn, err := net.Dial("tcp", tc.front)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	req := &httpx.Request{
		Method: "GET", Target: "/a.html", Path: "/a.html",
		Proto: httpx.Proto10, Header: httpx.Header{},
	}
	if err := httpx.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := httpx.ReadResponse(br)
	if err != nil {
		t.Fatal(err)
	}
	if resp.KeepAlive() {
		t.Fatal("HTTP/1.0 relay claims keep-alive")
	}
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("distributor held the connection open")
	}
	// The connection left the distributor's registry.
	testutil.Eventually(t, time.Second, func() bool {
		return clientConns(tc.dist) == 0
	}, "client connections leaked: %d", clientConns(tc.dist))
}

func TestMappingCleanupOnEOF(t *testing.T) {
	tc := startCluster(t, 1)
	tc.place(t, "/a.html", []byte("x"), "n1")
	conn, err := net.Dial("tcp", tc.front)
	if err != nil {
		t.Fatal(err)
	}
	// One keep-alive exchange, so the connection is known to be served.
	req := &httpx.Request{
		Method: "GET", Target: "/a.html", Path: "/a.html",
		Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c"),
	}
	if err := httpx.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	if resp, err := httpx.ReadResponse(bufio.NewReader(conn)); err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET = %v, %v", resp, err)
	}
	if n := clientConns(tc.dist); n != 1 {
		t.Fatalf("client connections = %d, want the keep-alive client", n)
	}
	// Then close with no request in flight (client FIN).
	_ = conn.Close()
	testutil.Eventually(t, time.Second, func() bool {
		return clientConns(tc.dist) == 0
	}, "client connection not released after client EOF: %d", clientConns(tc.dist))
}

func TestTrackerRecordsLoad(t *testing.T) {
	tc := startCluster(t, 2)
	tc.place(t, "/a.html", []byte("x"), "n1")
	for i := 0; i < 3; i++ {
		_ = fetch(t, tc.front, "/a.html", httpx.Proto11)
	}
	// The charge follows the last body byte, so the client can see the
	// response before the tracker does.
	testutil.Eventually(t, 2*time.Second, func() bool {
		return tc.dist.Tracker().Requests()["n1"] == 3
	}, "tracker requests = %v, want n1:3", tc.dist.Tracker().Requests())
	loads := tc.dist.Tracker().IntervalLoads(tc.spec.Nodes)
	if loads["n1"] <= 0 {
		t.Fatalf("loads = %v", loads)
	}
}

func TestHitCountsAccumulate(t *testing.T) {
	tc := startCluster(t, 1)
	tc.place(t, "/a.html", []byte("x"), "n1")
	for i := 0; i < 4; i++ {
		_ = fetch(t, tc.front, "/a.html", httpx.Proto11)
	}
	rec, _ := tc.table.Lookup("/a.html")
	if rec.Hits != 4 {
		t.Fatalf("hits = %d", rec.Hits)
	}
}

func TestPreforkedConnectionsReused(t *testing.T) {
	tc := startCluster(t, 1)
	tc.place(t, "/a.html", []byte("x"), "n1")
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = fetch(t, tc.front, "/a.html", httpx.Proto11)
		}()
	}
	wg.Wait()
	// The backend should have seen at most prefork+overflow conns, far
	// fewer than 20 client connections (distributor reuses the pool).
	// Serve stats: 20 requests total.
	total := tc.backends["n1"].Stats().Class("html").Requests.Value()
	if total != 20 {
		t.Fatalf("backend served %d", total)
	}
}

func TestBadClientRequest(t *testing.T) {
	tc := startCluster(t, 1)
	conn, err := net.Dial("tcp", tc.front)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write([]byte("NOT HTTP AT ALL\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestMeanRouteOverheadMeasured(t *testing.T) {
	tc := startCluster(t, 1)
	tc.place(t, "/a.html", []byte("x"), "n1")
	for i := 0; i < 10; i++ {
		_ = fetch(t, tc.front, "/a.html", httpx.Proto11)
	}
	testutil.Eventually(t, 2*time.Second, func() bool { return tc.dist.Routed() == 10 },
		"routed = %d, want 10", tc.dist.Routed())
	if d := tc.dist.MeanRouteOverhead(); d <= 0 || d > 10*time.Millisecond {
		t.Fatalf("route overhead = %v", d)
	}
}

func TestOptionsValidation(t *testing.T) {
	table := urltable.New(urltable.Options{})
	if _, err := New(Options{Cluster: config.PaperTestbed()}); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, err := New(Options{Table: table, Cluster: config.ClusterSpec{}}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	spec := config.ClusterSpec{Nodes: []config.NodeSpec{{ID: "n", CPUMHz: 1, MemoryMB: 1}}}
	if _, err := New(Options{Table: table, Cluster: spec}); err == nil {
		t.Fatal("node without address accepted")
	}
}
