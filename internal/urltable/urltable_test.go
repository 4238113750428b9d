package urltable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"webcluster/internal/config"
	"webcluster/internal/content"
)

func newTable(t *testing.T) *Table {
	t.Helper()
	return New(Options{})
}

func obj(path string, size int64) content.Object {
	return content.Object{Path: path, Size: size, Class: content.Classify(path)}
}

func TestInsertLookup(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.Insert(obj("/docs/a.html", 100), "n1", "n2"); err != nil {
		t.Fatal(err)
	}
	rec, err := tbl.Lookup("/docs/a.html")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Size != 100 || rec.Class != content.ClassHTML {
		t.Fatalf("record = %+v", rec)
	}
	if len(rec.Locations) != 2 || !rec.HasLocation("n1") || !rec.HasLocation("n2") {
		t.Fatalf("locations = %v", rec.Locations)
	}
	if rec.HasLocation("n3") {
		t.Fatal("phantom location")
	}
}

func TestLookupMissing(t *testing.T) {
	tbl := newTable(t)
	_, err := tbl.Lookup("/absent")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestInsertDuplicate(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.Insert(obj("/a/b", 1), "n1"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(obj("/a/b", 2), "n2"); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestBadPaths(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.Insert(obj("relative", 1), "n1"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("insert: %v", err)
	}
	if _, err := tbl.Lookup("no-slash"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("lookup: %v", err)
	}
	if _, err := tbl.Lookup("///"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("empty segments: %v", err)
	}
}

func TestDirAndLeafCoexist(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.Insert(obj("/docs", 1), "n1"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(obj("/docs/a.html", 2), "n2"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Lookup("/docs"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Lookup("/docs/a.html"); err != nil {
		t.Fatal(err)
	}
}

func TestRouteCountsHits(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.Insert(obj("/a", 1), "n1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := tbl.Route("/a"); err != nil {
			t.Fatal(err)
		}
	}
	rec, _ := tbl.Lookup("/a")
	if rec.Hits != 3 {
		t.Fatalf("hits = %d, want 3", rec.Hits)
	}
	// Lookup must not count.
	rec, _ = tbl.Lookup("/a")
	if rec.Hits != 3 {
		t.Fatalf("Lookup changed hit count to %d", rec.Hits)
	}
}

func TestResetHits(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/a", 1), "n1")
	_, _ = tbl.Route("/a")
	tbl.ResetHits()
	rec, _ := tbl.Lookup("/a")
	if rec.Hits != 0 {
		t.Fatalf("hits after reset = %d", rec.Hits)
	}
}

func TestRemove(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/x/y/z.html", 1), "n1")
	if err := tbl.Remove("/x/y/z.html"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Lookup("/x/y/z.html"); !errors.Is(err, ErrNotFound) {
		t.Fatal("entry survived Remove")
	}
	if err := tbl.Remove("/x/y/z.html"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second remove: %v", err)
	}
	if tbl.Len() != 0 {
		t.Fatalf("len = %d", tbl.Len())
	}
}

func TestRemovePrunesMemory(t *testing.T) {
	tbl := newTable(t)
	base := tbl.MemoryBytes()
	_ = tbl.Insert(obj("/deep/a/b/c/d.html", 1), "n1")
	grown := tbl.MemoryBytes()
	if grown <= base {
		t.Fatal("memory accounting did not grow")
	}
	_ = tbl.Remove("/deep/a/b/c/d.html")
	if got := tbl.MemoryBytes(); got != base {
		t.Fatalf("memory after prune = %d, want %d", got, base)
	}
}

func TestRemoveKeepsSharedPrefix(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/shared/a.html", 1), "n1")
	_ = tbl.Insert(obj("/shared/b.html", 1), "n1")
	_ = tbl.Remove("/shared/a.html")
	if _, err := tbl.Lookup("/shared/b.html"); err != nil {
		t.Fatal("sibling lost after remove")
	}
}

func TestRename(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/old/name.html", 42), "n1", "n2")
	_, _ = tbl.Route("/old/name.html")
	if err := tbl.Rename("/old/name.html", "/new/name.html"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Lookup("/old/name.html"); !errors.Is(err, ErrNotFound) {
		t.Fatal("old path survived rename")
	}
	rec, err := tbl.Lookup("/new/name.html")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Size != 42 || len(rec.Locations) != 2 || rec.Hits != 1 {
		t.Fatalf("rename lost state: %+v", rec)
	}
}

func TestRenameMissing(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.Rename("/a", "/b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestRenameOntoExisting(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/a", 1), "n1")
	_ = tbl.Insert(obj("/b", 2), "n1")
	if err := tbl.Rename("/a", "/b"); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
	// Original must be intact after the failed rename.
	if _, err := tbl.Lookup("/a"); err != nil {
		t.Fatal("source lost after failed rename")
	}
}

func TestAddRemoveLocation(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/a", 1), "n1")
	if err := tbl.AddLocation("/a", "n2"); err != nil {
		t.Fatal(err)
	}
	// Duplicate add is a no-op.
	if err := tbl.AddLocation("/a", "n2"); err != nil {
		t.Fatal(err)
	}
	rec, _ := tbl.Lookup("/a")
	if len(rec.Locations) != 2 {
		t.Fatalf("locations = %v", rec.Locations)
	}
	if err := tbl.RemoveLocation("/a", "n1"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.RemoveLocation("/a", "n2"); !errors.Is(err, ErrNoLocation) {
		t.Fatalf("removing last copy: %v", err)
	}
	if err := tbl.RemoveLocation("/a", "n9"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removing absent location: %v", err)
	}
}

func TestSetPriority(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/a", 1), "n1")
	if err := tbl.SetPriority("/a", 7); err != nil {
		t.Fatal(err)
	}
	rec, _ := tbl.Lookup("/a")
	if rec.Priority != 7 {
		t.Fatalf("priority = %d", rec.Priority)
	}
	if err := tbl.SetPriority("/absent", 1); !errors.Is(err, ErrNotFound) {
		t.Fatal("priority on absent path")
	}
}

func TestWalkVisitsAll(t *testing.T) {
	tbl := newTable(t)
	paths := []string{"/a", "/b/c", "/b/d/e.html"}
	for _, p := range paths {
		_ = tbl.Insert(obj(p, 1), "n1")
	}
	seen := map[string]bool{}
	tbl.Walk(func(r Record) { seen[r.Path] = true })
	for _, p := range paths {
		if !seen[p] {
			t.Fatalf("Walk missed %s", p)
		}
	}
	if len(seen) != len(paths) {
		t.Fatalf("Walk visited %d entries", len(seen))
	}
}

func TestEntriesAtSortedByHits(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/cold", 1), "n1")
	_ = tbl.Insert(obj("/hot", 1), "n1")
	_ = tbl.Insert(obj("/elsewhere", 1), "n2")
	for i := 0; i < 5; i++ {
		_, _ = tbl.Route("/hot")
	}
	_, _ = tbl.Route("/cold")
	recs := tbl.EntriesAt("n1")
	if len(recs) != 2 {
		t.Fatalf("entries at n1 = %d", len(recs))
	}
	if recs[0].Path != "/hot" || recs[1].Path != "/cold" {
		t.Fatalf("order = %v, %v", recs[0].Path, recs[1].Path)
	}
}

func TestStatsCountLookups(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/a", 1), "n1")
	for i := 0; i < 10; i++ {
		if _, err := tbl.Route("/a"); err != nil {
			t.Fatal(err)
		}
	}
	if st := tbl.Stats(); st.Lookups != 10 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 10 lookups of 1 entry", st)
	}
}

// A mutation that has returned is visible to the very next Route and
// PlacedPath: nothing sits between the caller and the current root.
func TestMutationVisibleToNextRoute(t *testing.T) {
	tbl := newTable(t)
	placed := func(p string) bool {
		_, ok := tbl.PlacedPath([]byte(p))
		return ok
	}
	if placed("/a") {
		t.Fatal("PlacedPath found /a before its Insert")
	}
	_ = tbl.Insert(obj("/a", 1), "n1")
	if !placed("/a") {
		t.Fatal("PlacedPath missed /a after its Insert")
	}
	route := func() (Record, error) { return tbl.Route("/a") }
	if rec, err := route(); err != nil || len(rec.Locations) != 1 {
		t.Fatalf("route = %+v, %v", rec, err)
	}
	_ = tbl.AddLocation("/a", "n2")
	if rec, _ := route(); !rec.HasLocation("n2") {
		t.Fatalf("added location not routed to: %v", rec.Locations)
	}
	_ = tbl.RemoveLocation("/a", "n1")
	if rec, _ := route(); rec.HasLocation("n1") {
		t.Fatalf("removed location still routed to: %v", rec.Locations)
	}
	_ = tbl.SetSize("/a", 99)
	if rec, _ := route(); rec.Size != 99 {
		t.Fatalf("size = %d after SetSize(99)", rec.Size)
	}
	_ = tbl.Rename("/a", "/b")
	if _, err := route(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("renamed-away path still routes: %v", err)
	}
	if placed("/a") || !placed("/b") {
		t.Fatalf("PlacedPath after Rename(/a, /b): /a %v, /b %v", placed("/a"), placed("/b"))
	}
	_ = tbl.Rename("/b", "/a")
	_ = tbl.Remove("/a")
	if _, err := route(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removed path still routes: %v", err)
	}
	if placed("/a") {
		t.Fatal("PlacedPath found /a after its Remove")
	}
	if err := tbl.SetSize("/a", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SetSize on a removed path = %v", err)
	}
}

// PlacedPath hands back the entry's own string for an exact byte match and
// nothing else, never aliases the caller's buffer, counts nothing and
// allocates nothing.
func TestPlacedPath(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/docs/a.html", 1), "n1")
	_ = tbl.Insert(obj("/docs", 1), "n1")
	_, _ = tbl.Route("/docs/a.html")
	before := tbl.Stats()
	rec, _ := tbl.Lookup("/docs/a.html")
	hits := rec.Hits
	before.Lookups++ // the Lookup just above

	buf := []byte("/docs/a.html")
	got, ok := tbl.PlacedPath(buf)
	if !ok || got != "/docs/a.html" {
		t.Fatalf("PlacedPath(%q) = %q, %v", buf, got, ok)
	}
	copy(buf, "/XXXX/X.XXXX")
	if got != "/docs/a.html" {
		t.Fatalf("PlacedPath's string aliases the caller's buffer: now %q", got)
	}
	for _, miss := range []string{
		"/docs//a.html", "//docs/a.html", "/docs/a.html/", "/docs/", "/docs/a.html?v=1",
		"/docs/a.htm", "/docs/a.html.bak", "/docs/b.html", "docs/a.html", "", "/", "*",
	} {
		if got, ok := tbl.PlacedPath([]byte(miss)); ok || got != "" {
			t.Errorf("PlacedPath(%q) = %q, %v; want no match", miss, got, ok)
		}
	}
	if got, ok := tbl.PlacedPath([]byte("/docs")); !ok || got != "/docs" {
		t.Errorf("PlacedPath(/docs) = %q, %v", got, ok)
	}
	if after := tbl.Stats(); after != before {
		t.Fatalf("PlacedPath moved Stats: %+v → %+v", before, after)
	}
	if rec, _ := tbl.Lookup("/docs/a.html"); rec.Hits != hits {
		t.Fatalf("PlacedPath counted a hit: %d → %d", hits, rec.Hits)
	}
	target := []byte("/docs/a.html")
	if n := testing.AllocsPerRun(100, func() { _, _ = tbl.PlacedPath(target) }); n != 0 {
		t.Fatalf("PlacedPath allocates %.1f times per call", n)
	}
}

func TestMemoryScalesWithObjects(t *testing.T) {
	tbl := newTable(t)
	gen := content.DefaultGenParams()
	gen.Objects = 8700
	site, err := content.GenerateSite(gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range site.Objects() {
		if err := tbl.Insert(o, "n1"); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != 8700 {
		t.Fatalf("len = %d", tbl.Len())
	}
	mem := tbl.MemoryBytes()
	// The paper reports ~260 KB in C; the Go structure costs more per
	// object but must stay within the same order of magnitude.
	if mem < 260<<10 || mem > 8<<20 {
		t.Fatalf("memory = %d bytes, want between 260KB and 8MB", mem)
	}
}

func TestConcurrentRouteAndMutate(t *testing.T) {
	tbl := New(Options{})
	for i := 0; i < 50; i++ {
		_ = tbl.Insert(obj(fmt.Sprintf("/p/%d.html", i), 1), "n1")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_, _ = tbl.Route(fmt.Sprintf("/p/%d.html", i%50))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = tbl.AddLocation(fmt.Sprintf("/p/%d.html", i%50), config.NodeID(fmt.Sprintf("n%d", i%5+2)))
		}
	}()
	wg.Wait()
}

// TestPropertyInsertedAlwaysFound: any set of distinct valid paths can be
// inserted and every one of them resolves, while paths outside the set do
// not.
func TestPropertyInsertedAlwaysFound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := New(Options{})
		n := rng.Intn(60) + 1
		paths := make(map[string]bool, n)
		for i := 0; i < n; i++ {
			depth := rng.Intn(4) + 1
			p := ""
			for d := 0; d < depth; d++ {
				p += fmt.Sprintf("/s%d", rng.Intn(8))
			}
			p += fmt.Sprintf("/f%d.html", i)
			paths[p] = true
			if err := tbl.Insert(obj(p, int64(i)), "n1"); err != nil {
				return false
			}
		}
		for p := range paths {
			if _, err := tbl.Lookup(p); err != nil {
				return false
			}
		}
		if _, err := tbl.Lookup("/definitely/not/there.html"); err == nil {
			return false
		}
		return tbl.Len() == len(paths)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyInsertRemoveRestoresMemory: inserting then removing any set
// of paths returns the memory estimate to its baseline (accounting never
// leaks).
func TestPropertyInsertRemoveRestoresMemory(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := New(Options{})
		base := tbl.MemoryBytes()
		n := rng.Intn(40) + 1
		paths := make([]string, 0, n)
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("/d%d/f%d.html", rng.Intn(5), i)
			paths = append(paths, p)
			nLocs := rng.Intn(3) + 1
			locs := make([]config.NodeID, nLocs)
			for j := range locs {
				locs[j] = config.NodeID(fmt.Sprintf("n%d", j))
			}
			if err := tbl.Insert(obj(p, 10), locs...); err != nil {
				return false
			}
		}
		rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
		for _, p := range paths {
			if err := tbl.Remove(p); err != nil {
				return false
			}
		}
		return tbl.MemoryBytes() == base && tbl.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSetPinned(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/m.html", 1), "n1")
	rec, _ := tbl.Lookup("/m.html")
	if rec.Pinned {
		t.Fatal("fresh entry pinned")
	}
	if err := tbl.SetPinned("/m.html", true); err != nil {
		t.Fatal(err)
	}
	rec, _ = tbl.Lookup("/m.html")
	if !rec.Pinned {
		t.Fatal("pin not recorded")
	}
	if err := tbl.SetPinned("/m.html", false); err != nil {
		t.Fatal(err)
	}
	rec, _ = tbl.Lookup("/m.html")
	if rec.Pinned {
		t.Fatal("unpin not recorded")
	}
	if err := tbl.SetPinned("/absent", true); !errors.Is(err, ErrNotFound) {
		t.Fatalf("pin absent: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/docs/a.html", 100), "n1", "n2")
	_ = tbl.Insert(obj("/cgi-bin/x.cgi", 50), "n3")
	_ = tbl.Insert(obj("/video/v.mpg", 1<<20), "n4")
	_ = tbl.SetPriority("/docs/a.html", 2)
	_ = tbl.SetPinned("/cgi-bin/x.cgi", true)
	for i := 0; i < 7; i++ {
		_, _ = tbl.Route("/docs/a.html")
	}

	data, err := tbl.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Load(bytes.NewReader(data), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 3 {
		t.Fatalf("restored %d entries", restored.Len())
	}
	rec, err := restored.Lookup("/docs/a.html")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Priority != 2 || rec.Hits != 7 || len(rec.Locations) != 2 {
		t.Fatalf("record = %+v", rec)
	}
	rec, _ = restored.Lookup("/cgi-bin/x.cgi")
	if !rec.Pinned || rec.Class != content.ClassCGI {
		t.Fatalf("record = %+v", rec)
	}
	rec, _ = restored.Lookup("/video/v.mpg")
	if rec.Class != content.ClassVideo || rec.Size != 1<<20 {
		t.Fatalf("record = %+v", rec)
	}
}

func TestSaveDeterministic(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/b.html", 1), "n1")
	_ = tbl.Insert(obj("/a.html", 1), "n1")
	data1, _ := tbl.MarshalJSON()
	data2, _ := tbl.MarshalJSON()
	if !bytes.Equal(data1, data2) {
		t.Fatal("save output not deterministic")
	}
}

func TestSaveLoadFile(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/a.html", 1), "n1")
	path := filepath.Join(t.TempDir(), "table.json")
	if err := tbl.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 1 {
		t.Fatalf("restored %d entries", restored.Len())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent.json"), Options{}); err == nil {
		t.Fatal("loading absent file succeeded")
	}
}

// TestSaveFileNeverRewritesInPlace: a checkpoint is replaced, never
// truncated and rewritten, so a reader that opened the old one (or a
// restart after a save killed half-way) still finds it whole.
func TestSaveFileNeverRewritesInPlace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.json")
	old := newTable(t)
	_ = old.Insert(obj("/old.html", 1), "n1")
	if err := old.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()

	grown := newTable(t)
	for i := 0; i < 50; i++ {
		_ = grown.Insert(obj(fmt.Sprintf("/new/%d.html", i), 1), "n2")
	}
	if err := grown.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reread, err := Load(f, Options{})
	if err != nil {
		t.Fatalf("the open checkpoint no longer loads: %v", err)
	}
	if _, err := reread.Lookup("/old.html"); err != nil || reread.Len() != 1 {
		t.Fatalf("the open checkpoint now holds %d entries: rewritten in place", reread.Len())
	}
	restored, err := LoadFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 50 {
		t.Fatalf("new checkpoint holds %d entries, want 50", restored.Len())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("the save left %d files behind, want only the checkpoint", len(entries))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json"), Options{}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewBufferString(`[{"path":"/a","class":"nonsense","locations":["n1"]}]`), Options{}); err == nil {
		t.Fatal("unknown class accepted")
	}
}
