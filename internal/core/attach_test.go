package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/loadbal"
	"webcluster/internal/mgmt"
	"webcluster/internal/testutil"
)

// startNodes starts one node per id, as separate cmd/backend processes
// would, and returns the spec Attach takes: their bound TCP addresses.
func startNodes(t *testing.T, ids ...config.NodeID) config.ClusterSpec {
	t.Helper()
	var spec config.ClusterSpec
	for _, id := range ids {
		nh, err := StartNode(NodeOptions{Spec: config.NodeSpec{ID: id, CPUMHz: 350, MemoryMB: 128}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := nh.Close(); err != nil {
				t.Errorf("closing node %s: %v", nh.Spec.ID, err)
			}
		})
		spec.Nodes = append(spec.Nodes, nh.Spec)
	}
	return spec
}

func attach(t *testing.T, opts Options) *Cluster {
	t.Helper()
	cluster, err := Attach(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := cluster.Close(); err != nil {
			t.Errorf("closing front end: %v", err)
		}
	})
	return cluster
}

// TestAttachOverStartedNodes is the deployed three-process topology inside
// one test: two StartNodes, one Attach that knows them only by address.
func TestAttachOverStartedNodes(t *testing.T) {
	testutil.NoLeaks(t)
	spec := startNodes(t, "n1", "n2")
	cluster := attach(t, Options{Spec: spec, ConsoleAddr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0", ReplAddr: "127.0.0.1:0"})
	if len(cluster.Nodes) != 0 {
		t.Fatalf("Attach claims to own %d nodes", len(cluster.Nodes))
	}
	if cluster.AdminAddr == "" || cluster.ReplAddr == "" {
		t.Fatalf("admin %q, repl %q: endpoint not started", cluster.AdminAddr, cluster.ReplAddr)
	}

	console, err := mgmt.DialConsole(cluster.ConsoleAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = console.Close() }()
	body := bytes.Repeat([]byte("placed through the console\n"), 40)
	if _, err := console.Do(mgmt.ConsoleRequest{
		Op: "insert", Path: "/docs/a.html", Data: body, Nodes: []config.NodeID{"n2"},
	}); err != nil {
		t.Fatalf("console insert: %v", err)
	}
	resp, err := cluster.Get("/docs/a.html")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) || resp.Header.Get("X-Served-By") != "n2" {
		t.Fatalf("GET = %d, %d bytes, served by %q", resp.StatusCode, len(resp.Body), resp.Header.Get("X-Served-By"))
	}
}

// TestAttachRefusesNodeWithoutAddresses: a front end cannot route to, or
// manage, a node it has no address for — refused before anything starts.
func TestAttachRefusesNodeWithoutAddresses(t *testing.T) {
	spec := startNodes(t, "n1")
	for _, blank := range []func(*config.NodeSpec){
		func(n *config.NodeSpec) { n.Addr = "" },
		func(n *config.NodeSpec) { n.BrokerAddr = "" },
	} {
		bad := config.ClusterSpec{Nodes: []config.NodeSpec{spec.Nodes[0]}}
		blank(&bad.Nodes[0])
		if _, err := Attach(Options{Spec: bad}); err == nil || !strings.Contains(err.Error(), "n1") {
			t.Fatalf("Attach(%+v) = %v, want a refusal naming n1", bad.Nodes[0], err)
		}
	}
}

// loadSpy is a picker that remembers the largest L_j it was ever shown.
type loadSpy struct {
	mu  sync.Mutex
	max float64
}

func (s *loadSpy) Name() string { return "load-spy" }

func (s *loadSpy) Pick(candidates []loadbal.NodeState) (config.NodeID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range candidates {
		if c.Load > s.max {
			s.max = c.Load
		}
	}
	return candidates[0].ID, nil
}

// TestBalanceRoundSkipsDownNode: a node the monitor marked down holds
// nothing for the §3.3 round. No decision targets it or copies from it,
// and no offload leaves it as a path's only other holder, though the
// table still lists its copies.
func TestBalanceRoundSkipsDownNode(t *testing.T) {
	cluster := attach(t, Options{Spec: startNodes(t, "n1", "n2", "n3")})
	for path, locs := range map[string][]config.NodeID{"/a.html": {"n1", "n2"}, "/b.html": {"n1"}} {
		obj := content.Object{Path: path, Size: 4, Class: content.ClassHTML}
		if err := cluster.Controller.Insert(obj, []byte("hot\n"), locs...); err != nil {
			t.Fatal(err)
		}
	}
	cluster.Distributor.SetAvailable("n2", false)
	before := map[string][]config.NodeID{}
	for _, path := range []string{"/a.html", "/b.html"} {
		for i := 0; i < 50; i++ {
			_, _ = cluster.Table.Route(path)
			cluster.Distributor.Tracker().Record("n1", content.ClassHTML, 10*time.Millisecond)
		}
		rec, err := cluster.Table.Lookup(path)
		if err != nil {
			t.Fatal(err)
		}
		before[path] = rec.Locations
	}

	decs := cluster.Balancer.RunOnce()
	if len(decs) == 0 {
		t.Fatal("no decisions for a hot spot on n1 beside an idle n3")
	}
	for _, d := range decs {
		if d.Target == "n2" || d.Source == "n2" {
			t.Fatalf("decision involves the down node: %v", d.Action)
		}
		if d.Err != nil {
			t.Fatalf("%v: %v", d.Action, d.Err)
		}
		if d.Kind != loadbal.ActionOffload {
			continue
		}
		live := 0
		for _, id := range before[d.Path] {
			if id != d.Target && id != "n2" {
				live++
			}
		}
		if live == 0 {
			t.Fatalf("%v leaves the down n2 as the only other holder of %v", d.Action, before[d.Path])
		}
	}
}

// TestBalancerPublishesLoads: the balancer Attach wires hands each
// interval's L_j to the distributor, so a load-aware picker sees them.
// (cmd/distributor used to build its own balancer without the
// subscription; its picker saw zeros.)
func TestBalancerPublishesLoads(t *testing.T) {
	spy := &loadSpy{}
	cluster := attach(t, Options{Spec: startNodes(t, "n1"), Picker: spy})
	obj := content.Object{Path: "/hot.html", Size: 4, Class: content.ClassHTML}
	if err := cluster.Controller.Insert(obj, []byte("hot\n"), "n1"); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, 3*time.Second, func() bool {
		for i := 0; i < 3; i++ {
			if resp, err := cluster.Get("/hot.html"); err != nil || resp.StatusCode != 200 {
				t.Fatalf("GET = %v, %v", resp, err)
			}
		}
		cluster.Balancer.RunOnce()
		spy.mu.Lock()
		defer spy.mu.Unlock()
		return spy.max > 0
	}, "no picker call ever saw a non-zero load")
}
