package mgmt

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/doctree"
	"webcluster/internal/journal"
	"webcluster/internal/loadbal"
	"webcluster/internal/respcache"
	"webcluster/internal/urltable"
)

func env(node string) Env {
	return Env{Node: config.NodeID(node), Store: &backend.MemStore{}}
}

func TestExecutePing(t *testing.T) {
	res, err := ExecuteOp(OpPing, env("n1"), Args{})
	if err != nil || res.Message != "pong" {
		t.Fatalf("ping = %+v, %v", res, err)
	}
}

func TestExecuteStoreFetchDeleteList(t *testing.T) {
	e := env("n1")
	if _, err := ExecuteOp(OpStoreFile, e, Args{Path: "/a", Data: []byte("xyz")}); err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteOp(OpFetchFile, e, Args{Path: "/a"})
	if err != nil || string(res.Data) != "xyz" {
		t.Fatalf("fetch = %+v, %v", res, err)
	}
	res, err = ExecuteOp(OpListFiles, e, Args{})
	if err != nil || len(res.Paths) != 1 || res.Paths[0] != "/a" {
		t.Fatalf("list = %+v, %v", res, err)
	}
	if _, err := ExecuteOp(OpDeleteFile, e, Args{Path: "/a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteOp(OpFetchFile, e, Args{Path: "/a"}); err == nil {
		t.Fatal("fetch after delete succeeded")
	}
}

func TestExecuteStoreSynthetic(t *testing.T) {
	e := Env{Node: "n1", Store: &backend.SyntheticStore{}}
	if _, err := ExecuteOp(OpStoreFile, e, Args{Path: "/big.mpg", Size: 4096}); err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteOp(OpFetchFile, e, Args{Path: "/big.mpg"})
	if err != nil || len(res.Data) != 4096 {
		t.Fatalf("fetch synthetic = %d bytes, %v", len(res.Data), err)
	}
}

func TestExecuteStoreSyntheticSizeOnMemStore(t *testing.T) {
	// A size-only store against a data store materializes the bytes.
	e := env("n1")
	if _, err := ExecuteOp(OpStoreFile, e, Args{Path: "/f", Size: 100}); err != nil {
		t.Fatal(err)
	}
	data, err := e.Store.Fetch("/f")
	if err != nil || len(data) != 100 {
		t.Fatalf("materialized %d bytes, %v", len(data), err)
	}
}

func TestExecuteStatusWithoutServer(t *testing.T) {
	e := env("n1")
	_ = e.Store.Put("/a", []byte("abc"))
	res, err := ExecuteOp(OpStatus, e, Args{})
	if err != nil || res.Status == nil {
		t.Fatalf("status = %+v, %v", res, err)
	}
	if res.Status.Node != "n1" || res.Status.StoreObjects != 1 || res.Status.StoreBytes != 3 {
		t.Fatalf("status = %+v", res.Status)
	}
}

func TestExecuteNilStoreErrors(t *testing.T) {
	e := Env{Node: "n1"}
	for _, op := range []Op{OpDeleteFile, OpStoreFile, OpFetchFile, OpListFiles} {
		if _, err := ExecuteOp(op, e, Args{Path: "/x"}); err == nil {
			t.Errorf("%v with nil store succeeded", op)
		}
	}
}

func TestExecuteUnknownOp(t *testing.T) {
	if _, err := ExecuteOp(Op(99), env("n1"), Args{}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestBuiltinSpecsCoverOps(t *testing.T) {
	specs := BuiltinSpecs()
	if len(specs) != 11 {
		t.Fatalf("specs = %d", len(specs))
	}
	for _, s := range specs {
		if s.Name != s.Op.String() {
			t.Errorf("spec %q vs op %q", s.Name, s.Op)
		}
	}
}

func startBroker(t *testing.T, e Env) (*Broker, *BrokerClient) {
	t.Helper()
	b := NewBroker(e)
	addr, err := b.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialBroker(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = b.Close()
	})
	return b, client
}

func TestBrokerNeedCodeFlow(t *testing.T) {
	b, client := startBroker(t, env("n1"))
	// Fresh broker: no agents installed.
	if agents := b.InstalledAgents(); len(agents) != 0 {
		t.Fatalf("fresh broker has agents %v", agents)
	}
	_, needCode, err := client.Invoke("ping", Args{})
	if err == nil || !needCode {
		t.Fatalf("uninstalled invoke: needCode=%v err=%v", needCode, err)
	}
	if err := client.Install(Spec{Name: "ping", Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	res, needCode, err := client.Invoke("ping", Args{})
	if err != nil || needCode || res.Message != "pong" {
		t.Fatalf("after install: %+v %v %v", res, needCode, err)
	}
	if b.Installs() != 1 {
		t.Fatalf("installs = %d", b.Installs())
	}
	// Duplicate install is idempotent.
	if err := client.Install(Spec{Name: "ping", Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if b.Installs() != 1 {
		t.Fatal("duplicate install counted")
	}
}

func TestBrokerAgentError(t *testing.T) {
	_, client := startBroker(t, env("n1"))
	_ = client.Install(Spec{Name: "delete-file", Op: OpDeleteFile})
	_, needCode, err := client.Invoke("delete-file", Args{Path: "/absent"})
	if err == nil || needCode {
		t.Fatalf("agent failure: needCode=%v err=%v", needCode, err)
	}
}

func newController(t *testing.T, nodes ...string) (*Controller, map[string]*Broker) {
	t.Helper()
	table := urltable.New(urltable.Options{})
	ctl := NewController(table)
	brokers := make(map[string]*Broker, len(nodes))
	for _, n := range nodes {
		b := NewBroker(env(n))
		addr, err := b.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.AddNode(config.NodeID(n), addr); err != nil {
			t.Fatal(err)
		}
		brokers[n] = b
		t.Cleanup(func() { _ = b.Close() })
	}
	return ctl, brokers
}

func TestControllerDispatchInstallsOnDemand(t *testing.T) {
	ctl, brokers := newController(t, "n1")
	res, err := ctl.Dispatch("n1", "ping", Args{})
	if err != nil || res.Message != "pong" {
		t.Fatalf("dispatch = %+v, %v", res, err)
	}
	if ctl.InstallsSent() != 1 || brokers["n1"].Installs() != 1 {
		t.Fatalf("installs: controller %d broker %d", ctl.InstallsSent(), brokers["n1"].Installs())
	}
	// Second dispatch uses the installed agent.
	if _, err := ctl.Dispatch("n1", "ping", Args{}); err != nil {
		t.Fatal(err)
	}
	if ctl.InstallsSent() != 1 {
		t.Fatal("re-installed an installed agent")
	}
}

func TestControllerDispatchUnknownNode(t *testing.T) {
	ctl, _ := newController(t, "n1")
	if _, err := ctl.Dispatch("ghost", "ping", Args{}); err == nil {
		t.Fatal("dispatch to unknown node succeeded")
	}
}

func TestControllerDispatchUnknownAgent(t *testing.T) {
	ctl, _ := newController(t, "n1")
	if _, err := ctl.Dispatch("n1", "format-disk", Args{}); err == nil {
		t.Fatal("unknown agent dispatched")
	}
}

func TestControllerInsertDeleteLifecycle(t *testing.T) {
	ctl, brokers := newController(t, "n1", "n2")
	obj := content.Object{Path: "/a.html", Size: 4, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("page"), "n1", "n2"); err != nil {
		t.Fatal(err)
	}
	// Files landed on both nodes.
	for n, b := range brokers {
		if !b.env.Store.Has("/a.html") {
			t.Fatalf("node %s missing file", n)
		}
	}
	rec, err := ctl.Table().Lookup("/a.html")
	if err != nil || len(rec.Locations) != 2 {
		t.Fatalf("table: %+v, %v", rec, err)
	}
	if err := ctl.Delete("/a.html"); err != nil {
		t.Fatal(err)
	}
	for n, b := range brokers {
		if b.env.Store.Has("/a.html") {
			t.Fatalf("node %s still has file", n)
		}
	}
	if _, err := ctl.Table().Lookup("/a.html"); err == nil {
		t.Fatal("table entry survived delete")
	}
}

func TestControllerReplicateCopiesData(t *testing.T) {
	ctl, brokers := newController(t, "src", "dst")
	obj := content.Object{Path: "/f.html", Size: 6, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("corpus"), "src"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Replicate("/f.html", "", "dst"); err != nil {
		t.Fatal(err)
	}
	data, err := brokers["dst"].env.Store.Fetch("/f.html")
	if err != nil || string(data) != "corpus" {
		t.Fatalf("dst copy = %q, %v", data, err)
	}
	rec, _ := ctl.Table().Lookup("/f.html")
	if !rec.HasLocation("dst") {
		t.Fatal("table lacks new location")
	}
}

func TestControllerRename(t *testing.T) {
	ctl, brokers := newController(t, "n1")
	obj := content.Object{Path: "/old.html", Size: 1, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("x"), "n1"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Rename("/old.html", "/new.html"); err != nil {
		t.Fatal(err)
	}
	st := brokers["n1"].env.Store
	if st.Has("/old.html") || !st.Has("/new.html") {
		t.Fatalf("store after rename: %v", st.List())
	}
}

func TestControllerFailedStepLeavesTableUnchanged(t *testing.T) {
	ctl, _ := newController(t, "n1")
	// A plan whose step targets an unmanaged node must fail before the
	// table is touched.
	plan, err := doctree.InsertPlan(
		content.Object{Path: "/x.html", Size: 1, Class: content.ClassHTML},
		[]byte("x"), "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Execute(plan); err == nil {
		t.Fatal("plan against unknown node succeeded")
	}
	if _, err := ctl.Table().Lookup("/x.html"); err == nil {
		t.Fatal("table updated despite failed step")
	}
	if fails := eventsOfKind(ctl.journalView(), journal.KindApplyFail); len(fails) != 1 || fails[0].Path != "/x.html" {
		t.Fatalf("apply-fail records = %+v, want one for /x.html", fails)
	}
}

func TestControllerOffload(t *testing.T) {
	ctl, brokers := newController(t, "n1", "n2")
	obj := content.Object{Path: "/f.html", Size: 1, Class: content.ClassHTML}
	_ = ctl.Insert(obj, []byte("x"), "n1", "n2")
	if err := ctl.Offload("/f.html", "n1"); err != nil {
		t.Fatal(err)
	}
	if brokers["n1"].env.Store.Has("/f.html") {
		t.Fatal("file survived offload")
	}
	rec, _ := ctl.Table().Lookup("/f.html")
	if rec.HasLocation("n1") {
		t.Fatal("location survived offload")
	}
}

func TestControllerAssign(t *testing.T) {
	ctl, brokers := newController(t, "n1", "n2", "n3")
	obj := content.Object{Path: "/f.html", Size: 1, Class: content.ClassHTML}
	_ = ctl.Insert(obj, []byte("x"), "n1")
	if err := ctl.Assign("/f.html", "n2", "n3"); err != nil {
		t.Fatal(err)
	}
	if brokers["n1"].env.Store.Has("/f.html") {
		t.Fatal("n1 still holds the file")
	}
	if !brokers["n2"].env.Store.Has("/f.html") || !brokers["n3"].env.Store.Has("/f.html") {
		t.Fatal("assignment targets missing the file")
	}
}

func TestControllerStatusAndPing(t *testing.T) {
	ctl, _ := newController(t, "n1")
	if err := ctl.Ping("n1"); err != nil {
		t.Fatal(err)
	}
	st, err := ctl.Status("n1")
	if err != nil || st.Node != "n1" {
		t.Fatalf("status = %+v, %v", st, err)
	}
}

// hotRound drives n hits on path into the table and n 10 ms requests on
// node into the tracker, so the next round sees a hot spot there.
func hotRound(ctl *Controller, tracker *loadbal.Tracker, path string, node config.NodeID, n int) {
	for i := 0; i < n; i++ {
		_, _ = ctl.Table().Route(path)
		tracker.Record(node, content.ClassHTML, 10e6)
	}
}

// newBalancer wires an AutoBalancer over ctl's nodes, every node up.
func newBalancer(ctl *Controller, tracker *loadbal.Tracker) *AutoBalancer {
	var specs []config.NodeSpec
	for _, id := range ctl.Nodes() {
		specs = append(specs, config.NodeSpec{ID: id, CPUMHz: 350, MemoryMB: 128})
	}
	return NewAutoBalancer(ctl, loadbal.Round{
		Tracker: tracker,
		Nodes:   specs,
		Planner: loadbal.DefaultPlannerOptions(),
	}, 0)
}

// Two rounds over a sole copy on an overloaded node: the first stages a
// replica on the idle node, the second sheds the overloaded node's copy.
// Both apply through the controller.
func TestAutoBalancerAppliesReplicateThenOffload(t *testing.T) {
	ctl, _ := newController(t, "n1", "n2")
	obj := content.Object{Path: "/hot.html", Size: 1, Class: content.ClassHTML}
	_ = ctl.Insert(obj, []byte("x"), "n1")
	tracker := loadbal.NewTracker(loadbal.PaperWeights())
	ab := newBalancer(ctl, tracker)
	var applied []string
	for round := 0; round < 2; round++ {
		hotRound(ctl, tracker, "/hot.html", "n1", 50)
		for _, d := range ab.RunOnce() {
			if d.Err != nil {
				t.Fatalf("round %d: %v: %v", round, d.Action, d.Err)
			}
			applied = append(applied, d.Action.String())
		}
	}
	if want := []string{"replicate /hot.html n1→n2", "offload /hot.html from n1"}; !slices.Equal(applied, want) {
		t.Fatalf("applied = %q, want %q", applied, want)
	}
	rec, _ := ctl.Table().Lookup("/hot.html")
	if rec.HasLocation("n1") || !rec.HasLocation("n2") {
		t.Fatalf("locations = %v", rec.Locations)
	}
}

// controllerWithDeadBroker is newController with n3's broker closed after
// the controller connected: every dispatch to n3 fails.
func controllerWithDeadBroker(t *testing.T) *Controller {
	t.Helper()
	ctl, brokers := newController(t, "n1", "n2", "n3")
	if err := brokers["n3"].Close(); err != nil {
		t.Fatal(err)
	}
	obj := content.Object{Path: "/a.html", Size: 1, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("x"), "n1"); err != nil {
		t.Fatal(err)
	}
	return ctl
}

// A decision that fails is skipped and reported; the rest of the round
// still applies.
func TestAutoBalancerPartialFailure(t *testing.T) {
	ctl := controllerWithDeadBroker(t)
	tracker := loadbal.NewTracker(loadbal.PaperWeights())
	hotRound(ctl, tracker, "/a.html", "n1", 50)
	decs := newBalancer(ctl, tracker).RunOnce()
	if len(decs) != 2 {
		t.Fatalf("decisions = %v, want /a.html replicated to n2 and n3", decs)
	}
	applied := 0
	for _, d := range decs {
		if d.Err == nil {
			applied++
		} else if d.Target != "n3" {
			t.Fatalf("%v failed: %v", d.Action, d.Err)
		}
	}
	if applied != 1 {
		t.Fatalf("applied = %d, want 1", applied)
	}
	rec, _ := ctl.Table().Lookup("/a.html")
	if !rec.HasLocation("n2") || rec.HasLocation("n3") {
		t.Fatalf("locations = %v, want n1 and n2", rec.Locations)
	}
}

// console balance prints each decision with its outcome: a replicate to
// an unreachable broker reads as its error, not as done.
func TestConsoleBalanceReportsOutcomes(t *testing.T) {
	ctl := controllerWithDeadBroker(t)
	tracker := loadbal.NewTracker(loadbal.PaperWeights())
	hotRound(ctl, tracker, "/a.html", "n1", 50)
	srv := NewConsoleServer(ctl, newBalancer(ctl, tracker))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	console, err := DialConsole(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = console.Close() }()
	resp, err := console.Do(ConsoleRequest{Op: "balance"})
	if err != nil {
		t.Fatalf("balance: %v", err)
	}
	if len(resp.Actions) != 2 || resp.Actions[0] != "replicate /a.html n1→n2: applied" ||
		!strings.HasPrefix(resp.Actions[1], "replicate /a.html n1→n3: ") ||
		strings.HasSuffix(resp.Actions[1], ": applied") {
		t.Fatalf("balance printed %q, want n2 applied and n3's error", resp.Actions)
	}
}

func TestControllerRemoveNode(t *testing.T) {
	ctl, _ := newController(t, "n1")
	ctl.RemoveNode("n1")
	if _, err := ctl.Dispatch("n1", "ping", Args{}); err == nil {
		t.Fatal("dispatch after RemoveNode succeeded")
	}
	if len(ctl.Nodes()) != 0 {
		t.Fatalf("nodes = %v", ctl.Nodes())
	}
}

func TestAutoBalancerRunOnce(t *testing.T) {
	ctl, _ := newController(t, "busy", "idle")
	obj := content.Object{Path: "/hot.html", Size: 1, Class: content.ClassHTML}
	_ = ctl.Insert(obj, []byte("x"), "busy")
	// Drive hits so the planner sees popularity.
	tracker := loadbal.NewTracker(loadbal.PaperWeights())
	hotRound(ctl, tracker, "/hot.html", "busy", 50)
	decs := newBalancer(ctl, tracker).RunOnce()
	if len(decs) == 0 {
		t.Fatal("no balancing actions for a hot spot")
	}
	for _, d := range decs {
		if d.Err != nil {
			t.Fatalf("%v: %v", d.Action, d.Err)
		}
	}
	rec, _ := ctl.Table().Lookup("/hot.html")
	if len(rec.Locations) < 2 {
		t.Fatalf("hot content not replicated: %v", rec.Locations)
	}
	// Hits reset after the interval.
	if rec.Hits != 0 {
		t.Fatalf("hits not reset: %d", rec.Hits)
	}
}

func TestConsoleEndToEnd(t *testing.T) {
	ctl, _ := newController(t, "n1", "n2")
	srv := NewConsoleServer(ctl, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	console, err := DialConsole(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = console.Close() }()

	// insert → tree shows it.
	resp, err := console.Do(ConsoleRequest{
		Op: "insert", Path: "/docs/x.html", Size: 4,
		Data: []byte("page"), Nodes: []config.NodeID{"n1"},
	})
	if err != nil {
		t.Fatalf("insert: %v (%+v)", err, resp)
	}
	resp, err = console.Do(ConsoleRequest{Op: "tree"})
	if err != nil || !strings.Contains(resp.Tree, "x.html") {
		t.Fatalf("tree = %+v, %v", resp, err)
	}
	// replicate → both nodes.
	if _, err := console.Do(ConsoleRequest{Op: "replicate", Path: "/docs/x.html", Target: "n2"}); err != nil {
		t.Fatal(err)
	}
	// priority.
	if _, err := console.Do(ConsoleRequest{Op: "priority", Path: "/docs/x.html", Priority: 3}); err != nil {
		t.Fatal(err)
	}
	rec, _ := ctl.Table().Lookup("/docs/x.html")
	if rec.Priority != 3 || len(rec.Locations) != 2 {
		t.Fatalf("record = %+v", rec)
	}
	// status.
	resp, err = console.Do(ConsoleRequest{Op: "status", Node: "n1"})
	if err != nil || resp.Status == nil {
		t.Fatalf("status = %+v, %v", resp, err)
	}
	// nodes.
	resp, err = console.Do(ConsoleRequest{Op: "nodes"})
	if err != nil || len(resp.Nodes) != 2 {
		t.Fatalf("nodes = %+v, %v", resp, err)
	}
	// rename + delete.
	if _, err := console.Do(ConsoleRequest{Op: "rename", Path: "/docs/x.html", NewPath: "/docs/y.html"}); err != nil {
		t.Fatal(err)
	}
	if _, err := console.Do(ConsoleRequest{Op: "delete", Path: "/docs/y.html"}); err != nil {
		t.Fatal(err)
	}
	// every mutation is in the journal.
	resp, err = console.Do(ConsoleRequest{Op: "journal"})
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	applied := 0
	for _, ev := range resp.Journal {
		if ev.Kind == journal.KindApply {
			applied++
		}
	}
	if applied != 5 {
		t.Fatalf("journal holds %d apply events, want insert, replicate, priority, rename and delete: %+v", applied, resp.Journal)
	}
	// errors surface.
	if _, err := console.Do(ConsoleRequest{Op: "delete", Path: "/absent"}); err == nil {
		t.Fatal("console delete of absent path succeeded")
	}
	if _, err := console.Do(ConsoleRequest{Op: "definitely-not-an-op"}); err == nil {
		t.Fatal("unknown op accepted")
	}
	// balance without a balancer fails cleanly.
	if _, err := console.Do(ConsoleRequest{Op: "balance"}); err == nil {
		t.Fatal("balance without balancer succeeded")
	}
}

func TestConsoleSiteLoader(t *testing.T) {
	ctl, _ := newController(t, "n1")
	srv := NewConsoleServer(ctl, nil)
	srv.SetSiteLoader(func(req ConsoleRequest) (string, error) {
		if req.Objects != 42 {
			return "", errors.New("params not forwarded")
		}
		return "loaded", nil
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	console, err := DialConsole(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = console.Close() }()
	resp, err := console.Do(ConsoleRequest{Op: "loadsite", Objects: 42})
	if err != nil || resp.Message != "loaded" {
		t.Fatalf("loadsite = %+v, %v", resp, err)
	}
}

func TestOpStrings(t *testing.T) {
	for _, op := range []Op{OpPing, OpStatus, OpDeleteFile, OpStoreFile, OpFetchFile, OpListFiles} {
		if s := op.String(); strings.HasPrefix(s, "Op(") {
			t.Errorf("op %d unnamed", op)
		}
	}
}

func TestConsolePinUnpin(t *testing.T) {
	ctl, _ := newController(t, "n1")
	obj := content.Object{Path: "/mut.html", Size: 1, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("x"), "n1"); err != nil {
		t.Fatal(err)
	}
	srv := NewConsoleServer(ctl, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	console, err := DialConsole(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = console.Close() }()
	if _, err := console.Do(ConsoleRequest{Op: "pin", Path: "/mut.html"}); err != nil {
		t.Fatal(err)
	}
	rec, _ := ctl.Table().Lookup("/mut.html")
	if !rec.Pinned {
		t.Fatal("console pin did not stick")
	}
	// Pinned markers appear in the tree view.
	resp, err := console.Do(ConsoleRequest{Op: "tree"})
	if err != nil || !strings.Contains(resp.Tree, "pinned") {
		t.Fatalf("tree = %q, %v", resp.Tree, err)
	}
	if _, err := console.Do(ConsoleRequest{Op: "unpin", Path: "/mut.html"}); err != nil {
		t.Fatal(err)
	}
	rec, _ = ctl.Table().Lookup("/mut.html")
	if rec.Pinned {
		t.Fatal("console unpin did not stick")
	}
}

func TestExecuteReplaceFile(t *testing.T) {
	e := env("n1")
	_ = e.Store.Put("/a", []byte("v1"))
	if _, err := ExecuteOp(OpReplaceFile, e, Args{Path: "/a", Data: []byte("version-two")}); err != nil {
		t.Fatal(err)
	}
	data, err := e.Store.Fetch("/a")
	if err != nil || string(data) != "version-two" {
		t.Fatalf("fetch = %q, %v", data, err)
	}
	// Replacing a missing file fails (it is an update, not an insert).
	if _, err := ExecuteOp(OpReplaceFile, e, Args{Path: "/missing", Data: []byte("x")}); err == nil {
		t.Fatal("replace of absent file succeeded")
	}
}

func TestControllerUpdatePropagatesToAllReplicas(t *testing.T) {
	ctl, brokers := newController(t, "n1", "n2", "n3")
	obj := content.Object{Path: "/cat.html", Size: 2, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("v1"), "n1", "n2", "n3"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Update("/cat.html", []byte("fresh catalogue")); err != nil {
		t.Fatal(err)
	}
	for n, b := range brokers {
		data, err := b.env.Store.Fetch("/cat.html")
		if err != nil || string(data) != "fresh catalogue" {
			t.Fatalf("node %s copy = %q, %v", n, data, err)
		}
	}
	if err := ctl.Update("/ghost.html", []byte("x")); err == nil {
		t.Fatal("update of unknown path succeeded")
	}
}

// The table's size follows an update — console explain, the doctree view
// and the backup's table snapshots read it — but only once every replica
// holds the new bytes.
func TestControllerUpdateRefreshesTableSize(t *testing.T) {
	ctl, brokers := newController(t, "n1", "n2")
	obj := content.Object{Path: "/cat.html", Size: 2, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("v1"), "n1", "n2"); err != nil {
		t.Fatal(err)
	}
	fresh := []byte("fresh catalogue")
	if err := ctl.Update("/cat.html", fresh); err != nil {
		t.Fatal(err)
	}
	rec, err := ctl.Table().Lookup("/cat.html")
	if err != nil || rec.Size != int64(len(fresh)) {
		t.Fatalf("size after update = %d, %v; want %d", rec.Size, err, len(fresh))
	}
	_ = brokers["n2"].Close()
	if err := ctl.Update("/cat.html", []byte("longer than the catalogue before it")); err == nil {
		t.Fatal("update with a dead replica succeeded")
	}
	rec, err = ctl.Table().Lookup("/cat.html")
	if err != nil || rec.Size != int64(len(fresh)) {
		t.Fatalf("size after failed update = %d, %v; want the old %d", rec.Size, err, len(fresh))
	}
	if fails := eventsOfKind(ctl.journalView(), journal.KindApplyFail); len(fails) != 1 || fails[0].Path != "/cat.html" || fails[0].Node != "n2" {
		t.Fatalf("apply-fail records = %+v, want the update of /cat.html failing on n2", fails)
	}
}

func TestControllerVerifyConsistency(t *testing.T) {
	ctl, brokers := newController(t, "n1", "n2")
	obj := content.Object{Path: "/v.html", Size: 3, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("abc"), "n1", "n2"); err != nil {
		t.Fatal(err)
	}
	consistent, sums, err := ctl.Verify("/v.html")
	if err != nil || !consistent {
		t.Fatalf("verify = %v, %v, %v", consistent, sums, err)
	}
	if len(sums) != 2 || sums["n1"] != sums["n2"] {
		t.Fatalf("sums = %v", sums)
	}
	// Corrupt one replica behind the controller's back.
	if err := brokers["n2"].env.Store.Delete("/v.html"); err != nil {
		t.Fatal(err)
	}
	if err := brokers["n2"].env.Store.Put("/v.html", []byte("XYZ")); err != nil {
		t.Fatal(err)
	}
	consistent, sums, err = ctl.Verify("/v.html")
	if err != nil || consistent {
		t.Fatalf("divergence not detected: %v, %v, %v", consistent, sums, err)
	}
	if sums["n1"] == sums["n2"] {
		t.Fatal("sums identical after corruption")
	}
}

func TestControllerSurvivesBrokerDeath(t *testing.T) {
	ctl, brokers := newController(t, "n1", "n2")
	obj := content.Object{Path: "/x.html", Size: 1, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("x"), "n1", "n2"); err != nil {
		t.Fatal(err)
	}
	// Kill n2's broker: operations touching it fail cleanly, the table
	// stays consistent, and other nodes keep working.
	_ = brokers["n2"].Close()
	err := ctl.Replicate("/x.html", "", "n2") // n2 already holds → plan error, fine
	if err == nil {
		t.Fatal("replicate onto existing holder accepted")
	}
	if err := ctl.Delete("/x.html"); err == nil {
		t.Fatal("delete through a dead broker succeeded")
	}
	// Failed plan: table still has the entry (steps aborted first).
	if _, err := ctl.Table().Lookup("/x.html"); err != nil {
		t.Fatal("table entry lost after failed delete")
	}
	// The healthy node still answers.
	if err := ctl.Ping("n1"); err != nil {
		t.Fatalf("healthy node unreachable: %v", err)
	}
	// Reconnecting the node restores operations.
	b := NewBroker(env("n2"))
	addr, err := b.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	// Plans have no rollback: the failed delete already removed n1's
	// copy before aborting at n2 (the journal records the failure and the
	// table is untouched). Re-seed both stores so the retried plan can
	// complete.
	_ = b.env.Store.Put("/x.html", []byte("x"))
	_ = brokers["n1"].env.Store.Put("/x.html", []byte("x"))
	if err := ctl.AddNode("n2", addr); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Delete("/x.html"); err != nil {
		t.Fatalf("delete after reconnect: %v", err)
	}
	if _, err := ctl.Table().Lookup("/x.html"); err == nil {
		t.Fatal("table entry survived successful delete")
	}
}

// TestConsoleJournalRecordsEveryMutation: the journal is the management
// plane's only record, so the mutations that are not placement plans — a
// console purge, a priority change, a pin and an update — are in
// `console journal` too, each under its path.
func TestConsoleJournalRecordsEveryMutation(t *testing.T) {
	ctl, _ := journaledController(t, "n1")
	ctl.SetCache(respcache.New(respcache.Options{MaxBytes: 1 << 20}))
	obj := content.Object{Path: "/doc.html", Size: 1, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("x"), "n1"); err != nil {
		t.Fatal(err)
	}
	server := NewConsoleServer(ctl, nil)
	addr, err := server.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Close() }()
	console, err := DialConsole(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = console.Close() }()
	for _, req := range []ConsoleRequest{
		{Op: "purge", Path: "/doc.html"},
		{Op: "priority", Path: "/doc.html", Priority: 2},
		{Op: "pin", Path: "/doc.html"},
		{Op: "update", Path: "/doc.html", Data: []byte("v2")},
	} {
		if _, err := console.Do(req); err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
	}
	resp, err := console.Do(ConsoleRequest{Op: "journal"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]journal.Kind{
		"console": journal.KindPurge, "priority 2": journal.KindApply,
		"pin": journal.KindApply, "update on [n1]": journal.KindApply,
	}
	for _, ev := range resp.Journal {
		if kind, ok := want[ev.Detail]; ok && kind == ev.Kind && ev.Path == "/doc.html" && ev.Src == "front" {
			delete(want, ev.Detail)
		}
	}
	if len(want) != 0 {
		t.Fatalf("console journal lacks %v: %+v", want, resp.Journal)
	}
}

// journaledController mirrors the production wiring in cmd/distributor
// and cmd/backend: a front-end journal attached to the controller plus
// one journal per node, scraped over OpJournal.
func journaledController(t *testing.T, nodes ...string) (*Controller, *journal.Journal) {
	t.Helper()
	table := urltable.New(urltable.Options{})
	ctl := NewController(table)
	front := journal.New(journal.Options{Node: "front"})
	ctl.SetJournal(front)
	for _, n := range nodes {
		b := NewBroker(Env{
			Node:    config.NodeID(n),
			Store:   &backend.MemStore{},
			Journal: journal.New(journal.Options{Node: n}),
		})
		addr, err := b.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.AddNode(config.NodeID(n), addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = b.Close() })
	}
	return ctl, front
}

// TestExplainPlannerDecision is the acceptance check for the explain
// verb: after the §3.3 planner replicates a hot document, Explain must
// return the placing decision together with the inputs the planner saw
// (interval hits, load CV, branch, rejected alternatives).
func TestExplainPlannerDecision(t *testing.T) {
	ctl, _ := journaledController(t, "busy", "idle")
	obj := content.Object{Path: "/hot.html", Size: 1, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("x"), "busy"); err != nil {
		t.Fatal(err)
	}
	tracker := loadbal.NewTracker(loadbal.PaperWeights())
	hotRound(ctl, tracker, "/hot.html", "busy", 50)
	if decs := newBalancer(ctl, tracker).RunOnce(); len(decs) == 0 {
		t.Fatal("planner produced no actions for a hot spot")
	}

	rep, missing, err := ctl.Explain("/hot.html", 0)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if len(missing) != 0 {
		t.Fatalf("unreachable nodes during explain: %v", missing)
	}
	if len(rep.Locations) < 2 {
		t.Fatalf("explain locations = %v, want the replica too", rep.Locations)
	}
	d := rep.Decision
	if d == nil {
		t.Fatal("explain returned no planner decision for a planner-replicated doc")
	}
	if d.Actor != journal.ActorPlanner || d.Kind != journal.KindPlanReplicate {
		t.Fatalf("decision = %s/%s, want planner/plan-replicate", d.Actor, d.Kind)
	}
	if d.Path != "/hot.html" || d.Node != "idle" {
		t.Fatalf("decision targeted %s on %s", d.Path, d.Node)
	}
	// The planner's inputs ride on the event: interval hits in A, the
	// interval load CV in F, the branch name in Detail.
	if d.A != 50 {
		t.Fatalf("decision hits = %d, want the 50 interval hits", d.A)
	}
	if d.F <= 0 {
		t.Fatalf("decision load CV = %v, want > 0 for an imbalanced interval", d.F)
	}
	if d.Detail == "" || !strings.Contains(d.Detail, "replicate-hot-to-cold") {
		t.Fatalf("decision detail = %q, want the planner branch name", d.Detail)
	}
	// History covers the document's whole journal trail, with the plan
	// event present and trimmed correctly by limit.
	found := false
	for _, ev := range rep.History {
		if ev.Path != "/hot.html" {
			t.Fatalf("history leaked another path's event: %+v", ev)
		}
		if ev.Kind == journal.KindPlanReplicate {
			found = true
		}
	}
	if !found {
		t.Fatal("history omits the plan event")
	}
	limited, _, err := ctl.Explain("/hot.html", 1)
	if err != nil || len(limited.History) != 1 {
		t.Fatalf("limited history = %d events, %v; want 1", len(limited.History), err)
	}
}

// TestExplainKeepsAPathsHistory: a document's history is filtered out of
// each journal before anything is capped, so 300 later inserts of other
// documents do not crowd it out, and the controller's own apply events are
// in it beside the nodes' agent ops. Explain used to keep the newest 256
// events of the merged stream, and of each node's scrape, and only then
// look for the path.
func TestExplainKeepsAPathsHistory(t *testing.T) {
	ctl, _ := journaledController(t, "n1", "n2")
	obj := content.Object{Path: "/a.html", Size: 1, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("a"), "n1"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Replicate("/a.html", "n1", "n2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		obj := content.Object{Path: fmt.Sprintf("/f%d.html", i), Size: 1, Class: content.ClassHTML}
		if err := ctl.Insert(obj, []byte("f"), "n1"); err != nil {
			t.Fatal(err)
		}
	}
	rep, missing, err := ctl.Explain("/a.html", 0)
	if err != nil || len(missing) != 0 {
		t.Fatalf("explain: %v (unreachable %v)", err, missing)
	}
	var got []string
	for _, ev := range rep.History {
		got = append(got, ev.Src+" "+ev.Kind.String()+" "+ev.Detail)
	}
	want := []string{
		"front apply insert /a.html on [n1]",
		"n1 agent-op store-file",
		"n2 agent-op pull-file",
		"front apply replicate /a.html n1→n2",
	}
	for _, w := range want {
		if !slices.Contains(got, w) {
			t.Fatalf("history of /a.html = %q, want %q in it", got, w)
		}
	}
}

// TestConsoleJournalDumpExplain drives the three new console verbs end
// to end: the merged cluster journal (front + per-node scrapes), the
// manual flight dump trigger, and explain over the wire.
func TestConsoleJournalDumpExplain(t *testing.T) {
	ctl, front := journaledController(t, "n1", "n2")
	obj := content.Object{Path: "/doc.html", Size: 1, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("x"), "n1"); err != nil {
		t.Fatal(err)
	}
	front.Record(journal.Event{
		Actor: journal.ActorDistributor, Kind: journal.KindFailover,
		Node: "n1", Path: "/doc.html", Detail: "n2",
	})
	// a channel, not a shared variable: the reply crossing a socket is an
	// ordering the race detector cannot see
	dumped := make(chan string, 1)
	ctl.SetDumper(func(reason string) (string, error) {
		dumped <- reason
		return "/tmp/flight-test.json", nil
	})
	srv := NewConsoleServer(ctl, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	console, err := DialConsole(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = console.Close() }()

	// journal: merged stream carries the front event and both nodes'
	// agent-op events from the insert.
	resp, err := console.Do(ConsoleRequest{Op: "journal"})
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	if resp.Message != "" {
		t.Fatalf("journal reported unreachable nodes: %s", resp.Message)
	}
	srcs := map[string]bool{}
	sawFailover := false
	for _, ev := range resp.Journal {
		srcs[ev.Src] = true
		if ev.Kind == journal.KindFailover {
			sawFailover = true
		}
	}
	if !srcs["front"] || !srcs["n1"] || !sawFailover {
		t.Fatalf("merged journal sources = %v (failover=%v), want front+n1 with the failover", srcs, sawFailover)
	}
	// journal -node scopes to one node's scrape.
	resp, err = console.Do(ConsoleRequest{Op: "journal", Node: "n1", Limit: 1})
	if err != nil || len(resp.Journal) != 1 || resp.Journal[0].Src != "n1" {
		t.Fatalf("scoped journal = %+v, %v", resp.Journal, err)
	}

	// dump: routed to the attached recorder trigger.
	resp, err = console.Do(ConsoleRequest{Op: "dump", Path: "operator drill"})
	if err != nil || !strings.Contains(resp.Message, "flight-test.json") {
		t.Fatalf("dump = %+v, %v", resp, err)
	}
	if reason := <-dumped; reason != "operator drill" {
		t.Fatalf("dump reason = %q", reason)
	}

	// explain over the wire.
	if _, err := console.Do(ConsoleRequest{Op: "replicate", Path: "/doc.html", Target: "n2"}); err != nil {
		t.Fatal(err)
	}
	resp, err = console.Do(ConsoleRequest{Op: "explain", Path: "/doc.html"})
	if err != nil || resp.Explain == nil {
		t.Fatalf("explain = %+v, %v", resp, err)
	}
	if len(resp.Explain.Locations) != 2 || len(resp.Explain.History) == 0 {
		t.Fatalf("explain report = %+v", resp.Explain)
	}
	// explain of an unknown path fails cleanly.
	if _, err := console.Do(ConsoleRequest{Op: "explain", Path: "/absent"}); err == nil {
		t.Fatal("explain of absent path succeeded")
	}
	if _, err := console.Do(ConsoleRequest{Op: "explain"}); err == nil {
		t.Fatal("explain without a path succeeded")
	}
}
