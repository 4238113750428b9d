package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordSnapshotOrder(t *testing.T) {
	j := New(Options{Node: "front"})
	for i := 0; i < 10; i++ {
		j.Record(Event{Actor: ActorController, Kind: KindApply, A: int64(i)})
	}
	evs := j.Snapshot("", 0)
	if len(evs) != 10 {
		t.Fatalf("snapshot len = %d, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.A != int64(i) {
			t.Fatalf("event %d: A = %d, want %d (sequence order)", i, ev.A, i)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d: Seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Src != "front" {
			t.Fatalf("event %d: Src = %q, want front", i, ev.Src)
		}
		if ev.Time == 0 {
			t.Fatalf("event %d: Time not stamped", i)
		}
	}
	if got := j.Snapshot("", 3); len(got) != 3 || got[0].A != 7 {
		t.Fatalf("Snapshot(3) = %v, want newest 3 (A=7,8,9)", got)
	}
}

func TestOverflowKeepsNewest(t *testing.T) {
	j := New(Options{})
	const total = capacity + 100
	for i := 0; i < total; i++ {
		j.Record(Event{Kind: KindPurge, A: int64(i)})
	}
	evs := j.Snapshot("", 0)
	if len(evs) != capacity {
		t.Fatalf("snapshot len = %d, want full capacity %d", len(evs), capacity)
	}
	// Drop policy: the oldest is overwritten, so the survivors are
	// exactly the newest capacity events.
	for i, ev := range evs {
		want := int64(total - capacity + i)
		if ev.A != want {
			t.Fatalf("event %d: A = %d, want %d (oldest overwritten)", i, ev.A, want)
		}
	}
	if j.Recorded() != total {
		t.Fatalf("Recorded = %d, want %d", j.Recorded(), total)
	}
	if j.Dropped() != total-capacity {
		t.Fatalf("Dropped = %d, want %d", j.Dropped(), total-capacity)
	}
}

// A document's history survives any number of newer events about other
// documents: Snapshot filters by path before it caps.
func TestSnapshotFiltersPathBeforeCap(t *testing.T) {
	j := New(Options{})
	j.Record(Event{Kind: KindApply, Path: "/a.html", A: 1})
	for i := 0; i < 300; i++ {
		j.Record(Event{Kind: KindApply, Path: "/other.html"})
	}
	j.Record(Event{Kind: KindPurge, Path: "/a.html", A: 2})
	evs := j.Snapshot("/a.html", 256)
	if len(evs) != 2 || evs[0].A != 1 || evs[1].A != 2 {
		t.Fatalf("history of /a.html = %+v, want both its events, oldest first", evs)
	}
	if evs := j.Snapshot("/a.html", 1); len(evs) != 1 || evs[0].A != 2 {
		t.Fatalf("Snapshot(/a.html, 1) = %+v, want the newest", evs)
	}
}

func TestMergeOrdersByTimeThenSrcSeq(t *testing.T) {
	mk := func(src string, seq uint64, ts int64) Event {
		return Event{Src: src, Seq: seq, Time: ts, Kind: KindApply}
	}
	merged := Merge(
		[]Event{mk("b", 1, 30), mk("b", 2, 10)},
		[]Event{mk("a", 1, 10), mk("a", 2, 20)},
	)
	want := []struct {
		src string
		seq uint64
	}{{"a", 1}, {"b", 2}, {"a", 2}, {"b", 1}}
	if len(merged) != len(want) {
		t.Fatalf("merged len = %d, want %d", len(merged), len(want))
	}
	for i, w := range want {
		if merged[i].Src != w.src || merged[i].Seq != w.seq {
			t.Fatalf("merged[%d] = %s/%d, want %s/%d", i, merged[i].Src, merged[i].Seq, w.src, w.seq)
		}
	}
}

func TestIncidentLifecycle(t *testing.T) {
	j := New(Options{})
	t1 := j.Incident("n2")
	if t1 == 0 {
		t.Fatal("Incident returned 0")
	}
	if got := j.Incident("n2"); got != t1 {
		t.Fatalf("second Incident = %d, want same trace %d", got, t1)
	}
	if got := j.IncidentTrace("n2"); got != t1 {
		t.Fatalf("IncidentTrace = %d, want %d", got, t1)
	}
	if got := j.AnyIncident(); got != t1 {
		t.Fatalf("AnyIncident = %d, want %d", got, t1)
	}
	t2 := j.Incident("n3")
	if t2 == t1 {
		t.Fatal("distinct incidents share a trace")
	}
	if got := j.AnyIncident(); got != t2 {
		t.Fatalf("AnyIncident after second open = %d, want newest %d", got, t2)
	}
	if got := j.EndIncident("n2"); got != t1 {
		t.Fatalf("EndIncident = %d, want %d", got, t1)
	}
	if got := j.IncidentTrace("n2"); got != 0 {
		t.Fatalf("IncidentTrace after end = %d, want 0", got)
	}
	if got := j.AnyIncident(); got != t2 {
		t.Fatalf("AnyIncident after end = %d, want %d", got, t2)
	}
	j.EndIncident("n3")
	if got := j.AnyIncident(); got != 0 {
		t.Fatalf("AnyIncident with none open = %d, want 0", got)
	}
}

func TestNilJournalIsSafe(t *testing.T) {
	var j *Journal
	j.Record(Event{Kind: KindApply})
	if j.Snapshot("", 0) != nil {
		t.Fatal("nil journal returned events")
	}
	if j.Incident("n1") != 0 || j.EndIncident("n1") != 0 || j.AnyIncident() != 0 {
		t.Fatal("nil journal returned a trace")
	}
	if j.Recorded() != 0 || j.Dropped() != 0 || j.Node() != "" {
		t.Fatal("nil journal returned non-zero accounting")
	}
}

func TestRecordZeroAlloc(t *testing.T) {
	j := New(Options{Node: "bench"})
	ev := Event{Actor: ActorDistributor, Kind: KindFailover, Node: "n1", Path: "/a.html", Detail: "n2"}
	allocs := testing.AllocsPerRun(1000, func() { j.Record(ev) })
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestConcurrentRecord(t *testing.T) {
	j := New(Options{})
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Record(Event{Kind: KindPurge})
			}
		}()
	}
	wg.Wait()
	if j.Recorded() != workers*per {
		t.Fatalf("Recorded = %d, want %d", j.Recorded(), workers*per)
	}
	evs := j.Snapshot("", 0)
	if len(evs) != workers*per {
		t.Fatalf("snapshot len = %d, want %d", len(evs), workers*per)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot not in sequence order at %d", i)
		}
	}
}

func TestRecorderManualDump(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	j := New(Options{Node: "front", Clock: func() time.Time { return now }})
	j.Record(Event{Actor: ActorFaults, Kind: KindFault, Node: "n2"})
	now = now.Add(40 * time.Second)
	j.Record(Event{Actor: ActorDistributor, Kind: KindFailover, Node: "n2", Detail: "n1"})
	r, err := NewRecorder(RecorderOptions{
		Journal: j, Dir: dir,
		Clock: func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.AddSource("placement", func() any { return map[string]int{"docs": 3} })
	path, err := r.Dump("manual test")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "manual test" || b.Node != "front" {
		t.Fatalf("bundle header = %q/%q", b.Reason, b.Node)
	}
	// The fault event is 40s old — outside the 30s window.
	if len(b.Events) != 1 || b.Events[0].Kind != KindFailover {
		t.Fatalf("bundle events = %+v, want just the failover inside the window", b.Events)
	}
	var placement map[string]int
	if err := json.Unmarshal(b.Sources["placement"], &placement); err != nil || placement["docs"] != 3 {
		t.Fatalf("bundle source = %s (err %v)", b.Sources["placement"], err)
	}
	if !strings.Contains(filepath.Base(path), "manual-test") {
		t.Fatalf("bundle name %q lacks sanitized reason", path)
	}
	// The dump itself left a snapshot marker in the journal.
	evs := j.Snapshot("", 0)
	if evs[len(evs)-1].Kind != KindSnapshot {
		t.Fatalf("last journal event = %v, want snapshot marker", evs[len(evs)-1].Kind)
	}
}

func TestRecorderBurnRateTrigger(t *testing.T) {
	dir := t.TempDir()
	j := New(Options{Node: "front"})
	var mu sync.Mutex
	stats := ClassStats{Class: "critical", Requests: 0, Errors: 0}
	r, err := NewRecorder(RecorderOptions{
		Journal: j, Dir: dir,
		Budgets: []Budget{{Class: "critical", MaxErrorRate: 0.1, MinRequests: 5}},
		Stats: func() []ClassStats {
			mu.Lock()
			defer mu.Unlock()
			return []ClassStats{stats}
		},
		Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()
	// First interval establishes the baseline; then burn the budget.
	time.Sleep(15 * time.Millisecond)
	mu.Lock()
	stats.Requests, stats.Errors = 100, 50
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for {
		files, _ := os.ReadDir(dir)
		if len(files) > 0 {
			b, err := ReadBundle(filepath.Join(dir, files[0].Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(b.Reason, "slo-burn critical") {
				t.Fatalf("bundle reason = %q, want slo-burn critical", b.Reason)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("burn-rate watcher never dumped")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRecorderCrashDump(t *testing.T) {
	dir := t.TempDir()
	j := New(Options{Node: "front"})
	r, err := NewRecorder(RecorderOptions{Journal: j, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RecoverAndDump swallowed the panic")
			}
		}()
		defer r.RecoverAndDump()
		panic("boom")
	}()
	files, _ := os.ReadDir(dir)
	if len(files) != 1 {
		t.Fatalf("crash dump files = %d, want 1", len(files))
	}
	b, err := ReadBundle(filepath.Join(dir, files[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.Reason, "crash") || !strings.Contains(b.Reason, "boom") {
		t.Fatalf("crash bundle reason = %q", b.Reason)
	}
}

// A restarted distributor, or a promoted backup, numbers its bundles from
// 1 again in the directory the one before it wrote to: a dump must take
// the next free name, not overwrite an earlier bundle.
func TestRecorderNeverOverwritesABundle(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		r, err := NewRecorder(RecorderOptions{Journal: New(Options{Node: "front"}), Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Dump("console dump"); err != nil {
			t.Fatal(err)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("bundles after two processes dumped = %d, want 2", len(files))
	}
	for _, f := range files {
		if b, err := ReadBundle(filepath.Join(dir, f.Name())); err != nil || b.Reason != "console dump" {
			t.Fatalf("bundle %s = %+v, %v", f.Name(), b, err)
		}
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"":                       "manual",
		"manual test":            "manual-test",
		"slo-burn critical p99":  "slo-burn-critical-p99",
		"crash runtime error: x": "crash-runtime-error-x",
		"///":                    "manual",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
