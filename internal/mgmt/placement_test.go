package mgmt

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/journal"
	"webcluster/internal/testutil"
)

// The placement data path moves each byte once per process: the slice a
// broker reads off the wire becomes the stored object, the console server
// stages into a recycled buffer, and a replica travels node to node. These
// tests pin the ownership contract that makes that safe and the failure
// behaviour around it.

// filled returns n bytes of b.
func filled(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

// stored fetches path straight from node's store.
func stored(t *testing.T, b *Broker, path string) []byte {
	t.Helper()
	data, err := b.env.Store.Fetch(path)
	if err != nil {
		t.Fatalf("node %s: %v", b.env.Node, err)
	}
	return data
}

// eventsOfKind returns the journal's records of one kind, oldest first.
func eventsOfKind(j *journal.Journal, kind journal.Kind) []journal.Event {
	var out []journal.Event
	for _, ev := range j.Snapshot(0) {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// TestConsoleStagingBufferIsNotTheStoredObject: the console server reads
// insert B into the buffer that carried insert A. A stored on both nodes
// must still be A, byte for byte — the brokers own what they received,
// not a view of the distributor's staging memory.
func TestConsoleStagingBufferIsNotTheStoredObject(t *testing.T) {
	testutil.NoLeaks(t)
	ctl, brokers := newController(t, "n1", "n2")
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

	const size = 1 << 20
	nodes := []config.NodeID{"n1", "n2"}
	for _, f := range []struct {
		path string
		fill byte
	}{{"/a.bin", 0xAA}, {"/b.bin", 0xBB}} {
		if _, err := console.Do(ConsoleRequest{Op: "insert", Path: f.path, Size: size, Data: filled(size, f.fill), Nodes: nodes}); err != nil {
			t.Fatal(err)
		}
	}
	// an update reuses the buffer too, and replaces rather than aliases
	if _, err := console.Do(ConsoleRequest{Op: "update", Path: "/b.bin", Data: filled(size, 0xCC)}); err != nil {
		t.Fatal(err)
	}
	for _, b := range brokers {
		if got := stored(t, b, "/a.bin"); !bytes.Equal(got, filled(size, 0xAA)) {
			t.Errorf("node %s: /a.bin changed after later console requests", b.env.Node)
		}
		if got := stored(t, b, "/b.bin"); !bytes.Equal(got, filled(size, 0xCC)) {
			t.Errorf("node %s: /b.bin is not the updated content", b.env.Node)
		}
	}
}

// TestBrokerReceiveBufferBecomesTheStoredObject: two store-files over one
// broker connection each land in a slice of their own, which the store
// keeps without copying; the second frame does not touch the first file.
func TestBrokerReceiveBufferBecomesTheStoredObject(t *testing.T) {
	testutil.NoLeaks(t)
	b, client := startBroker(t, env("n1"))
	if err := client.Install(Spec{Name: "store-file", Op: OpStoreFile}); err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	for path, fill := range map[string]byte{"/a.bin": 0xAA, "/b.bin": 0xBB} {
		if _, _, err := client.Invoke("store-file", Args{Path: path, Data: filled(size, fill)}); err != nil {
			t.Fatal(err)
		}
	}
	a, bb := stored(t, b, "/a.bin"), stored(t, b, "/b.bin")
	if !bytes.Equal(a, filled(size, 0xAA)) || !bytes.Equal(bb, filled(size, 0xBB)) {
		t.Fatal("a later store-file changed an earlier file")
	}
	if cap(a) != size || cap(bb) != size {
		t.Errorf("stored slices have capacity %d and %d, want exactly the payload's %d", cap(a), cap(bb), size)
	}
}

// TestPullTwiceKeepsBothFiles: two replicas pulled over the one cached
// peer connection are both intact, the source keeps its copies, and the
// source got its fetch-file agent from the pulling broker — the controller
// never dispatches one.
func TestPullTwiceKeepsBothFiles(t *testing.T) {
	testutil.NoLeaks(t)
	ctl, brokers := newController(t, "src", "dst")
	const size = 1 << 20
	for path, fill := range map[string]byte{"/a.bin": 0xAA, "/b.bin": 0xBB} {
		obj := content.Object{Path: path, Size: size, Class: content.Classify(path)}
		if err := ctl.Insert(obj, filled(size, fill), "src"); err != nil {
			t.Fatal(err)
		}
		if err := ctl.Replicate(path, "src", "dst"); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range brokers {
		if !bytes.Equal(stored(t, b, "/a.bin"), filled(size, 0xAA)) || !bytes.Equal(stored(t, b, "/b.bin"), filled(size, 0xBB)) {
			t.Errorf("node %s does not hold both files intact", b.env.Node)
		}
	}
	if n := len(brokers["dst"].env.peers.clients); n != 1 {
		t.Errorf("target holds %d peer clients after two pulls from one source, want 1", n)
	}
	if got := strings.Join(brokers["src"].InstalledAgents(), ","); !strings.Contains(got, "fetch-file") {
		t.Errorf("source agents = %s, want fetch-file installed by the puller", got)
	}
	if rec, err := ctl.Table().Lookup("/b.bin"); err != nil || !rec.HasLocation("dst") {
		t.Errorf("table after replicate: %+v, %v", rec, err)
	}
}

// TestRenameCopiesOnTheNodeWithoutASocket: a rename's copy step names no
// source broker, so the node copies locally and dials nobody.
func TestRenameCopiesOnTheNodeWithoutASocket(t *testing.T) {
	testutil.NoLeaks(t)
	ctl, brokers := newController(t, "n1", "n2")
	obj := content.Object{Path: "/old.html", Size: 4, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("page"), "n1", "n2"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Rename("/old.html", "/new.html"); err != nil {
		t.Fatal(err)
	}
	for _, b := range brokers {
		if string(stored(t, b, "/new.html")) != "page" || b.env.Store.Has("/old.html") {
			t.Errorf("node %s after rename holds %v", b.env.Node, b.env.Store.List())
		}
		if n := len(b.env.peers.clients); n != 0 {
			t.Errorf("node %s dialed %d peers for a local copy", b.env.Node, n)
		}
	}
}

// TestPullFromDeadSourceFailsCleanly: with the source broker down the
// step fails naming both nodes, the target stores nothing, the table is
// unchanged — and once the source is back on its address the target's
// cached peer client redials and the same replicate succeeds.
func TestPullFromDeadSourceFailsCleanly(t *testing.T) {
	testutil.NoLeaks(t)
	ctl, front := journaledController(t, "dst")
	source := NewBroker(env("src"))
	addr, err := source.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.AddNode("src", addr); err != nil {
		t.Fatal(err)
	}
	defer ctl.RemoveNode("src")
	obj := content.Object{Path: "/f.html", Size: 6, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("corpus"), "src"); err != nil {
		t.Fatal(err)
	}
	kept := source.env.Store
	_ = source.Close()

	err = ctl.Replicate("/f.html", "src", "dst")
	if err == nil || !strings.Contains(err.Error(), "src→dst") {
		t.Fatalf("replicate from a dead source = %v, want a failure naming src→dst", err)
	}
	if res, err := ctl.Dispatch("dst", OpListFiles.String(), Args{}); err != nil || len(res.Paths) != 0 {
		t.Errorf("target holds %v after the failed pull (err %v), want nothing", res.Paths, err)
	}
	if rec, _ := ctl.Table().Lookup("/f.html"); rec.HasLocation("dst") {
		t.Error("table lists the replica that was never made")
	}
	if fails := eventsOfKind(front, journal.KindApplyFail); len(fails) != 1 {
		t.Errorf("journal holds %d apply-fail records, want 1", len(fails))
	}

	back := NewBroker(Env{Node: "src", Store: kept})
	if _, err := back.Start(addr); err != nil {
		t.Fatalf("restarting the source on %s: %v", addr, err)
	}
	defer func() { _ = back.Close() }()
	if err := ctl.Replicate("/f.html", "src", "dst"); err != nil {
		t.Fatalf("replicate after the source came back: %v", err)
	}
	if res, err := ctl.Dispatch("dst", OpFetchFile.String(), Args{Path: "/f.html"}); err != nil || string(res.Data) != "corpus" {
		t.Errorf("target copy = %q, %v", res.Data, err)
	}
}

// TestPullRefusesAFileOfTheWrongLength: the pull envelope carries the size
// the table lists, and a source whose file has another length (cut short,
// changed behind the table's back) is not replicated: the target stores
// nothing and the table keeps its one location.
func TestPullRefusesAFileOfTheWrongLength(t *testing.T) {
	testutil.NoLeaks(t)
	ctl, brokers := newController(t, "src", "dst")
	obj := content.Object{Path: "/f.html", Size: 6, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("corpus"), "src"); err != nil {
		t.Fatal(err)
	}
	if err := brokers["src"].env.Store.Replace("/f.html", []byte("cor")); err != nil {
		t.Fatal(err)
	}
	err := ctl.Replicate("/f.html", "src", "dst")
	if err == nil || !strings.Contains(err.Error(), "source holds 3 bytes, the table lists 6") {
		t.Fatalf("replicate of a truncated file = %v, want the two sizes named", err)
	}
	if brokers["dst"].env.Store.Has("/f.html") {
		t.Error("target stored the truncated file")
	}
	if rec, _ := ctl.Table().Lookup("/f.html"); rec.HasLocation("dst") {
		t.Error("table lists the replica that was refused")
	}
}

// TestReplicateMovesNoFileBytesThroughTheController: a 1 MiB replica costs
// the controller an envelope on the target's connection and nothing at all
// on the source's. The relayed copy moved the file over both.
func TestReplicateMovesNoFileBytesThroughTheController(t *testing.T) {
	testutil.NoLeaks(t)
	ctl, brokers := newController(t, "src", "dst")
	const size = 1 << 20
	obj := content.Object{Path: "/big.bin", Size: size, Class: content.Classify("/big.bin")}
	if err := ctl.Insert(obj, filled(size, 0x5A), "src"); err != nil {
		t.Fatal(err)
	}
	// agents installed on a first replica, outside the measurement
	if err := ctl.Replicate("/big.bin", "src", "dst"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Offload("/big.bin", "dst"); err != nil {
		t.Fatal(err)
	}
	hops := make(map[config.NodeID]*countingConn)
	for node, client := range ctl.brokers {
		hops[node] = &countingConn{Conn: client.conn}
		client.conn, client.br = hops[node], bufio.NewReader(hops[node])
	}
	moved := func(node config.NodeID) int64 { return hops[node].wrote.Load() + hops[node].read.Load() }
	if err := ctl.Replicate("/big.bin", "src", "dst"); err != nil {
		t.Fatal(err)
	}
	if got := moved("src"); got != 0 {
		t.Errorf("controller ↔ source carried %d bytes for a pull, want 0", got)
	}
	if got := moved("dst"); got == 0 || got >= 1024 {
		t.Errorf("controller ↔ target carried %d bytes for a %d-byte replica, want an envelope under 1 KiB", got, size)
	}
	if !bytes.Equal(stored(t, brokers["dst"], "/big.bin"), filled(size, 0x5A)) {
		t.Error("target does not hold the replica")
	}
}

// TestFailedPlanRollsBackLandedCopies: an insert on two nodes whose second
// broker refuses leaves nothing on the first — the copy that landed is
// deleted again, the table never learns the path, and the one apply-fail
// record names the node that was cleaned.
func TestFailedPlanRollsBackLandedCopies(t *testing.T) {
	testutil.NoLeaks(t)
	ctl, front := journaledController(t, "n1", "n2")
	// n2 already holds the path, so its store-file is refused
	if _, err := ctl.Dispatch("n2", OpStoreFile.String(), Args{Path: "/x.html", Data: []byte("squatter")}); err != nil {
		t.Fatal(err)
	}
	obj := content.Object{Path: "/x.html", Size: 4, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("page"), "n1", "n2"); err == nil {
		t.Fatal("insert succeeded although n2 refused the file")
	}
	if res, err := ctl.Dispatch("n1", OpListFiles.String(), Args{}); err != nil || len(res.Paths) != 0 {
		t.Errorf("n1 holds %v after the failed insert (err %v), want nothing", res.Paths, err)
	}
	if res, err := ctl.Dispatch("n2", OpFetchFile.String(), Args{Path: "/x.html"}); err != nil || string(res.Data) != "squatter" {
		t.Errorf("n2's own file = %q, %v; the rollback must not touch the node that refused", res.Data, err)
	}
	if _, err := ctl.Table().Lookup("/x.html"); err == nil {
		t.Error("table lists the path of a failed insert")
	}
	fails := eventsOfKind(front, journal.KindApplyFail)
	if len(fails) != 1 || !strings.Contains(fails[0].Detail, "rolled back on [n1]") {
		t.Errorf("apply-fail records = %+v, want one naming the rollback on n1", fails)
	}
	audit := ctl.AuditLog()
	if last := audit[len(audit)-1]; !strings.HasPrefix(last, "FAILED insert /x.html") || !strings.Contains(last, "rolled back on [n1]") {
		t.Errorf("audit line = %q", last)
	}
}

// TestRollbackKeepsARenamedNodesOnlyCopy: when a rename fails on its
// second node, the first node has already deleted the old name — its copy
// under the new name is all it has of the object and must survive the
// rollback.
func TestRollbackKeepsARenamedNodesOnlyCopy(t *testing.T) {
	testutil.NoLeaks(t)
	ctl, brokers := newController(t, "n1", "n2")
	obj := content.Object{Path: "/old.html", Size: 4, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("page"), "n1", "n2"); err != nil {
		t.Fatal(err)
	}
	if err := brokers["n2"].env.Store.Put("/new.html", []byte("squatter")); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Rename("/old.html", "/new.html"); err == nil {
		t.Fatal("rename succeeded although n2 already holds the new name")
	}
	if got := stored(t, brokers["n1"], "/new.html"); string(got) != "page" {
		t.Errorf("n1 lost its only copy to the rollback: %q", got)
	}
}

// TestRollbackKeepsACopyOnceAnotherHolderIsDeleted: assign copies to the
// new holder, then deletes from each old one. When the second delete fails
// the first has already gone through, so the fresh copy on n2 is the one
// the plan has left of the source's bytes and the rollback must keep it.
func TestRollbackKeepsACopyOnceAnotherHolderIsDeleted(t *testing.T) {
	testutil.NoLeaks(t)
	ctl, brokers := newController(t, "n1", "n2", "n3")
	obj := content.Object{Path: "/doc.html", Size: 4, Class: content.ClassHTML}
	if err := ctl.Insert(obj, []byte("page"), "n1", "n3"); err != nil {
		t.Fatal(err)
	}
	// n3 lost its file behind the table's back: its delete-file is refused
	if err := brokers["n3"].env.Store.Delete("/doc.html"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Assign("/doc.html", "n2"); err == nil {
		t.Fatal("assign succeeded although n3's delete failed")
	}
	if got := stored(t, brokers["n2"], "/doc.html"); string(got) != "page" {
		t.Errorf("n2's copy = %q; no node holds the file any more", got)
	}
	if last := ctl.AuditLog(); strings.Contains(last[len(last)-1], "rolled back") {
		t.Errorf("audit line = %q, want no rollback past a delete", last[len(last)-1])
	}
}

// TestReplaceFileNeverUnstoresThePath: while replace-file runs 500 times a
// reader of the node's store always finds the file. The agent used to
// Delete and then Put under two lock acquisitions.
func TestReplaceFileNeverUnstoresThePath(t *testing.T) {
	e := env("n1")
	if err := e.Store.Put("/p", []byte("version 0")); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	missed := make(chan error, 1)
	go func() {
		defer close(missed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Store.Fetch("/p"); err != nil {
				missed <- err
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		if _, err := ExecuteOp(OpReplaceFile, e, Args{Path: "/p", Data: filled(64, byte(i))}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-missed; err != nil {
		t.Fatalf("a Fetch beside replace-file failed: %v", err)
	}
}
