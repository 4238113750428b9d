package mgmt

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/faults"
	"webcluster/internal/testutil"
	"webcluster/internal/urltable"
)

// replSpec is the cluster a test primary replicates.
var replSpec = config.ClusterSpec{
	DistributorCPUMHz: 350,
	Nodes: []config.NodeSpec{
		{ID: "n1", CPUMHz: 350, MemoryMB: 64, Disk: config.DiskSCSI, Platform: config.LinuxApache, Addr: "127.0.0.1:9001"},
		{ID: "n2", CPUMHz: 200, MemoryMB: 64, Disk: config.DiskIDE, Platform: config.LinuxApache, Addr: "127.0.0.1:9002"},
	},
}

// replTable returns a primary's table holding path on nodes.
func replTable(t *testing.T, path string, nodes ...config.NodeID) *urltable.Table {
	t.Helper()
	table := urltable.New(urltable.Options{})
	if err := table.Insert(content.Object{Path: path, Size: 8, Class: content.ClassHTML}, nodes...); err != nil {
		t.Fatal(err)
	}
	return table
}

// startRepl starts a replication server for table at interval.
func startRepl(t *testing.T, table *urltable.Table, interval time.Duration) (*ReplicationServer, string) {
	t.Helper()
	repl := NewReplicationServer(table, replSpec, interval)
	addr, err := repl.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = repl.Close() })
	return repl, addr
}

// takenOver is what a backup handed its PromoteFunc.
type takenOver struct {
	table *urltable.Table
	spec  config.ClusterSpec
}

// followAndKill starts a backup of the primary replicating at replAddr,
// waits for its first snapshot, kills the primary and returns what the
// takeover handed over.
func followAndKill(t *testing.T, repl *ReplicationServer, replAddr string) takenOver {
	t.Helper()
	handed := make(chan takenOver, 1)
	b := NewBackup(replAddr, 200*time.Millisecond, func(table *urltable.Table, spec config.ClusterSpec) error {
		handed <- takenOver{table, spec}
		return nil
	})
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	testutil.Eventually(t, 2*time.Second, b.StateReceived, "backup never received a snapshot")
	_ = repl.Close()
	promoted, err := b.Promoted(5 * time.Second)
	if err != nil || !promoted {
		t.Fatalf("takeover = %v, %v", promoted, err)
	}
	return <-handed
}

// fakePrimary accepts one backup, lets send write to it and holds the
// connection until the backup hangs up; served closes then.
func fakePrimary(t *testing.T, send func(net.Conn)) (addr string, served <-chan struct{}) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		send(conn)
		_, _ = conn.Read(make([]byte, 1))
	}()
	return l.Addr().String(), done
}

// TestFailoverReplicationAndTakeover: when the primary's stream ends, the
// backup promotes with the replicated table and cluster spec.
func TestFailoverReplicationAndTakeover(t *testing.T) {
	testutil.NoLeaks(t)
	repl, addr := startRepl(t, replTable(t, "/page.html", "n1", "n2"), 30*time.Millisecond)
	got := followAndKill(t, repl, addr)
	if got.table.Len() != 1 {
		t.Fatalf("replicated table has %d entries", got.table.Len())
	}
	rec, err := got.table.Lookup("/page.html")
	if err != nil || !reflect.DeepEqual(rec.Locations, []config.NodeID{"n1", "n2"}) {
		t.Fatalf("replicated /page.html = %+v, %v", rec, err)
	}
	if !reflect.DeepEqual(got.spec, replSpec) {
		t.Fatalf("replicated spec = %+v, want %+v", got.spec, replSpec)
	}
}

// TestTakeoverKeepsHitCounters: the successor's planner starts from the
// primary's demand, not from zero — the snapshot is the table's one
// serialized form, hits included.
func TestTakeoverKeepsHitCounters(t *testing.T) {
	testutil.NoLeaks(t)
	table := replTable(t, "/hot.html", "n1")
	for i := 0; i < 7; i++ {
		if _, err := table.Route("/hot.html"); err != nil {
			t.Fatal(err)
		}
	}
	repl, addr := startRepl(t, table, 30*time.Millisecond)
	got := followAndKill(t, repl, addr)
	rec, err := got.table.Lookup("/hot.html")
	if err != nil || rec.Hits != 7 {
		t.Fatalf("successor's /hot.html = %+v, %v; want the primary's 7 hits", rec, err)
	}
}

func TestBackupStopWithoutFailure(t *testing.T) {
	testutil.NoLeaks(t)
	_, addr := startRepl(t, replTable(t, "/a.html", "n1"), 20*time.Millisecond)
	b := NewBackup(addr, 500*time.Millisecond, func(*urltable.Table, config.ClusterSpec) error {
		t.Error("promote called on healthy primary")
		return nil
	})
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	b.Stop()
	// Monitoring healthy: Promoted times out with false, nil.
	if promoted, err := b.Promoted(50 * time.Millisecond); promoted || err != nil {
		t.Fatalf("promoted = %v, %v", promoted, err)
	}
}

// TestReplicationStreamContents: a backup's first frame is a snapshot
// matching the golden frame byte for byte — the spec in the envelope, the
// table in urltable's one form as the payload — and heartbeats follow.
func TestReplicationStreamContents(t *testing.T) {
	testutil.NoLeaks(t)
	table := urltable.New(urltable.Options{})
	if err := table.Insert(content.Object{Path: "/a.html", Size: 12, Class: content.ClassHTML, Priority: 2}, "n1"); err != nil {
		t.Fatal(err)
	}
	if err := table.SetPinned("/a.html", true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		_, _ = table.Route("/a.html")
	}
	repl := NewReplicationServer(table, goldenReplCluster, 20*time.Millisecond)
	addr, err := repl.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = repl.Close() }()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(conn)
	var golden string
	for _, g := range goldenFrames {
		if g.name == "replication snapshot" {
			golden = g.wire
		}
	}
	first := make([]byte, len(golden))
	if _, err := io.ReadFull(br, first); err != nil {
		t.Fatal(err)
	}
	if string(first) != golden {
		t.Fatalf("first replication frame:\n got: %q\nwant: %q", first, golden)
	}
	var hdr replHeader
	if _, err := readFrame(br, &hdr); err != nil || hdr.Type != "hb" {
		t.Fatalf("second frame = %+v, %v; want a heartbeat", hdr, err)
	}
}

// TestBackupRefusesV1Primary: a primary still speaking JSON lines is not
// followed. The backup names the mismatch as the reason it had no state
// to take over with, and never promotes.
func TestBackupRefusesV1Primary(t *testing.T) {
	testutil.NoLeaks(t)
	addr, served := fakePrimary(t, func(conn net.Conn) {
		_, _ = io.WriteString(conn, `{"type":"snapshot","cluster":{"distributorCPUMHz":350,"nodes":[]},"table":[]}`+"\n")
	})
	b := NewBackup(addr, time.Second, func(*urltable.Table, config.ClusterSpec) error {
		t.Error("promoted from a v1 stream")
		return nil
	})
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	promoted, err := b.Promoted(5 * time.Second)
	if promoted || !errors.Is(err, errWireMismatch) || !strings.Contains(err.Error(), "wire v1") {
		t.Fatalf("following a v1 primary = %v, %v; want the mismatch named", promoted, err)
	}
	<-served
}

// TestBackupStartDialFault: a refuse rule on "backup.dial" must fail
// Start with the injected error before any connection is attempted, so
// chaos tests can exercise an unreachable primary at connect time.
func TestBackupStartDialFault(t *testing.T) {
	// A live listener proves the failure comes from the injector, not
	// from the network.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	in := faults.New(1)
	in.Set("backup.dial", faults.Rule{Refuse: true})

	b := NewBackup(l.Addr().String(), time.Second, func(*urltable.Table, config.ClusterSpec) error {
		return nil
	})
	b.SetFaults(in)
	err = b.Start()
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Start = %v, want ErrInjected", err)
	}
	b.Stop()
}

// TestReplicationFeedCutsStalledBackup: a backup whose link stalls longer
// than the feed's write deadline gets its stream cut instead of pinning
// the feed goroutine; the server still shuts down promptly. Reverting the
// SetWriteDeadline in feed() makes the stream survive (this test fails)
// and a genuinely blocked peer would wedge Close.
func TestReplicationFeedCutsStalledBackup(t *testing.T) {
	testutil.NoLeaks(t)
	in := faults.New(2)
	repl := NewReplicationServer(replTable(t, "/a.html", "n1"), replSpec, 30*time.Millisecond)
	repl.SetFaults(in)
	// Every feed write stalls past the write deadline (max(4×30ms, 1s)).
	in.Set("repl.feed", faults.Rule{Latency: 1500 * time.Millisecond})
	replAddr, err := repl.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = repl.Close() }()

	conn, err := net.Dial("tcp", replAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	// The first snapshot write blows its deadline: the server cuts the
	// stream, and this read observes the close rather than hanging. If
	// the write deadline were removed the delayed writes would keep
	// succeeding and this loop would only end at its own read deadline.
	cutStart := time.Now()
	buf := make([]byte, 4096)
	for {
		if _, rerr := conn.Read(buf); rerr != nil {
			break
		}
	}
	if elapsed := time.Since(cutStart); elapsed > 8*time.Second {
		t.Fatalf("stream not cut by the write deadline (ran %v)", elapsed)
	}
	start := time.Now()
	if err := repl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close blocked %v on the stalled feed", elapsed)
	}
}

// TestSnapshotThatDoesNotLoadEndsTheStream: a well-framed snapshot whose
// table is damaged is treated like a broken stream — the backup takes
// over with the last table that loaded rather than half of a bad one.
func TestSnapshotThatDoesNotLoadEndsTheStream(t *testing.T) {
	testutil.NoLeaks(t)
	good, err := replTable(t, "/good.html", "n1").MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	addr, served := fakePrimary(t, func(conn net.Conn) {
		snapshot := replHeader{Type: "snapshot", Cluster: &replSpec}
		_ = writeFrame(conn, snapshot, good)
		_ = writeFrame(conn, snapshot, bytes.Replace(good, []byte(`"locations"`), []byte(`"locations"}`), 1))
	})
	handed := make(chan *urltable.Table, 1)
	b := NewBackup(addr, 5*time.Second, func(table *urltable.Table, _ config.ClusterSpec) error {
		handed <- table
		return nil
	})
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	// The damaged frame ends the stream at once, well inside the 5 s
	// heartbeat timeout.
	if promoted, err := b.Promoted(3 * time.Second); !promoted || err != nil {
		t.Fatalf("takeover = %v, %v", promoted, err)
	}
	if table := <-handed; table.Len() != 1 {
		t.Fatalf("promoted a table of %d entries, want the last good one", table.Len())
	}
	<-served
}
