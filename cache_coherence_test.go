package webcluster

// Cache-coherence property suite: with the distributor-side response
// cache enabled and freshness set to an hour, the ONLY thing standing
// between a client and a stale body is the management plane's purge
// hook. A mutator drives a random (seeded, CHAOS_SEED-reproducible)
// sequence of controller mutations while reader goroutines hammer the
// front end; every response is checked against a version model — once a
// mutation has returned, no later request may observe the pre-mutation
// body.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/core"
	"webcluster/internal/faults"
	"webcluster/internal/respcache"
	"webcluster/internal/testutil"
)

// propBody encodes path and version so a reader can recover the version
// a response was generated from.
func propBody(path string, version int) []byte {
	return []byte(fmt.Sprintf("<html>%s v=%d</html>", path, version))
}

// propVersion recovers the version from a propBody response.
func propVersion(t *testing.T, body []byte) int {
	s := string(body)
	i := strings.LastIndex(s, "v=")
	j := strings.LastIndex(s, "</html>")
	if i < 0 || j < i {
		t.Errorf("unparsable body %q", s)
		return -1
	}
	v, err := strconv.Atoi(s[i+2 : j])
	if err != nil {
		t.Errorf("unparsable version in %q: %v", s, err)
		return -1
	}
	return v
}

// pathModel is the linearized ground truth for one path. version and
// deleted are committed only after the controller mutation returns, so
// the model never runs ahead of the cluster. The epochs count committed
// deletes/inserts so a reader can tell whether one overlapped its
// request window (any status seen then is ambiguous, not a violation).
type pathModel struct {
	version  int
	deleted  bool
	delEpoch int
	insEpoch int
	// busy marks a controller mutation in progress on this path. Plan
	// execution deletes surplus copies from back ends before the table
	// update commits, so a read overlapping the mutation may legally see
	// a transient 404 — the coherence property only binds requests made
	// after the mutation has returned. muts counts mutations begun, so a
	// reader can also tell that one ran start to finish during its fetch.
	busy bool
	muts int
}

func TestCacheCoherenceUnderMutations(t *testing.T) {
	testutil.NoLeaks(t)
	seed := faults.Seed(606)
	t.Logf("cache-coherence seed %d (rerun with CHAOS_SEED=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	cluster, err := core.Launch(core.Options{
		CacheBytes: 8 << 20,
		// freshness far beyond the test's lifetime: every coherent
		// response below is coherent because a purge made it so
		CacheOptions: respcache.Options{FreshTTL: time.Hour, StaleTTL: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	if cluster.Cache == nil {
		t.Fatal("CacheBytes did not enable the response cache")
	}
	ids := cluster.Spec.NodeIDs()

	const paths = 10
	var mu sync.Mutex // guards model
	model := make([]pathModel, paths)
	pathOf := func(i int) string { return fmt.Sprintf("/prop/%d.html", i) }
	for i := 0; i < paths; i++ {
		p := pathOf(i)
		nodes := ids[:1+rng.Intn(len(ids))]
		obj := content.Object{Path: p, Size: int64(len(propBody(p, 0))), Class: content.ClassHTML}
		if err := cluster.Controller.Insert(obj, propBody(p, 0), nodes...); err != nil {
			t.Fatal(err)
		}
	}

	// readers: snapshot the model, fetch, then verify the response could
	// not predate the snapshot
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rrng := rand.New(rand.NewSource(seed + int64(r) + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rrng.Intn(paths)
				p := pathOf(i)
				mu.Lock()
				m0 := model[i]
				mu.Unlock()
				resp, err := cluster.Get(p)
				if err != nil {
					t.Errorf("reader %d: GET %s: %v", r, p, err)
					return
				}
				mu.Lock()
				m1 := model[i]
				mu.Unlock()
				switch resp.StatusCode {
				case 200:
					if m0.deleted && m1.deleted && m0.insEpoch == m1.insEpoch {
						t.Errorf("reader %d: %s served %q while deleted", r, p, resp.Body)
						return
					}
					if v := propVersion(t, resp.Body); v < m0.version {
						t.Errorf("reader %d: %s observed v%d after v%d was committed (stale cache)",
							r, p, v, m0.version)
						return
					}
				case 404:
					if !m0.deleted && !m1.deleted && m0.delEpoch == m1.delEpoch &&
						!m0.busy && !m1.busy && m0.muts == m1.muts {
						t.Errorf("reader %d: %s 404 while the path existed", r, p)
						return
					}
				default:
					t.Errorf("reader %d: %s unexpected status %d", r, p, resp.StatusCode)
					return
				}
			}
		}(r)
	}

	// mutator: one mutation at a time through the controller, committing
	// the model only after the call returns
	const mutations = 60
	versionCounter := make([]int, paths)
	setBusy := func(i int, b bool) {
		mu.Lock()
		model[i].busy = b
		mu.Unlock()
	}
	for m := 0; m < mutations; m++ {
		i := rng.Intn(paths)
		p := pathOf(i)
		mu.Lock()
		deleted := model[i].deleted
		model[i].busy = true
		model[i].muts++
		mu.Unlock()
		switch op := rng.Intn(6); {
		case deleted || (op == 0):
			// (re-)insert at a strictly higher version
			if !deleted {
				if err := cluster.Controller.Delete(p); err != nil {
					t.Fatalf("delete %s: %v", p, err)
				}
				mu.Lock()
				model[i].deleted = true
				model[i].delEpoch++
				mu.Unlock()
			}
			versionCounter[i]++
			v := versionCounter[i]
			obj := content.Object{Path: p, Size: int64(len(propBody(p, v))), Class: content.ClassHTML}
			nodes := ids[:1+rng.Intn(len(ids))]
			if err := cluster.Controller.Insert(obj, propBody(p, v), nodes...); err != nil {
				t.Fatalf("insert %s v%d: %v", p, v, err)
			}
			mu.Lock()
			model[i].version = v
			model[i].deleted = false
			model[i].insEpoch++
			mu.Unlock()
		case op == 1:
			if err := cluster.Controller.Delete(p); err != nil {
				t.Fatalf("delete %s: %v", p, err)
			}
			mu.Lock()
			model[i].deleted = true
			model[i].delEpoch++
			mu.Unlock()
		case op == 2:
			versionCounter[i]++
			v := versionCounter[i]
			if err := cluster.Controller.Update(p, propBody(p, v)); err != nil {
				t.Fatalf("update %s v%d: %v", p, v, err)
			}
			mu.Lock()
			model[i].version = v
			mu.Unlock()
		case op == 3:
			rec, err := cluster.Table.Lookup(p)
			if err != nil {
				t.Fatalf("lookup %s: %v", p, err)
			}
			var target config.NodeID
			for _, id := range ids {
				if !rec.HasLocation(id) {
					target = id
					break
				}
			}
			if target == "" {
				break // fully replicated already
			}
			src := rec.Locations[rng.Intn(len(rec.Locations))]
			if err := cluster.Controller.Replicate(p, src, target); err != nil {
				t.Fatalf("replicate %s %s->%s: %v", p, src, target, err)
			}
		case op == 4:
			rec, err := cluster.Table.Lookup(p)
			if err != nil {
				t.Fatalf("lookup %s: %v", p, err)
			}
			if len(rec.Locations) < 2 {
				break // never offload the last copy
			}
			victim := rec.Locations[rng.Intn(len(rec.Locations))]
			if err := cluster.Controller.Offload(p, victim); err != nil {
				t.Fatalf("offload %s from %s: %v", p, victim, err)
			}
		default:
			nodes := append([]config.NodeID(nil), ids...)
			rng.Shuffle(len(nodes), func(a, b int) { nodes[a], nodes[b] = nodes[b], nodes[a] })
			nodes = nodes[:1+rng.Intn(len(nodes))]
			if err := cluster.Controller.Assign(p, nodes...); err != nil {
				t.Fatalf("assign %s: %v", p, err)
			}
		}
		setBusy(i, false)
	}
	// On a busy box the mutator can finish before a reader has fetched
	// anything twice; the readers run on until one of them has hit.
	testutil.Eventually(t, 5*time.Second, func() bool { return cluster.Cache.Stats().Hits > 0 },
		"readers never hit the cache — the property was not exercised")
	close(stop)
	readers.Wait()

	st := cluster.Cache.Stats()
	if st.Invalidations == 0 {
		t.Fatal("mutations never purged the cache — the hook is not wired")
	}
	t.Logf("coherence run: %d mutations, cache stats %+v", mutations, st)
}

// TestCacheRenamePurges: a rename must purge the cached entry under the
// old name (404 afterwards) and serve the body under the new one.
func TestCacheRenamePurges(t *testing.T) {
	testutil.NoLeaks(t)
	cluster, err := core.Launch(core.Options{
		CacheBytes:   4 << 20,
		CacheOptions: respcache.Options{FreshTTL: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()

	body := []byte("<html>movable</html>")
	obj := content.Object{Path: "/old.html", Size: int64(len(body)), Class: content.ClassHTML}
	if err := cluster.Controller.Insert(obj, body, cluster.Spec.NodeIDs()[0]); err != nil {
		t.Fatal(err)
	}
	if resp, err := cluster.Get("/old.html"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("warming fetch: %v %v", resp, err)
	}
	// cached now; the rename must not leave the old name servable
	if err := cluster.Controller.Rename("/old.html", "/new.html"); err != nil {
		t.Fatal(err)
	}
	resp, err := cluster.Get("/old.html")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 {
		t.Fatalf("old name served %d after rename (body %q)", resp.StatusCode, resp.Body)
	}
	resp, err = cluster.Get("/new.html")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("new name: status=%d body=%q", resp.StatusCode, resp.Body)
	}
}

// TestConsolePurgeOp: the console `purge` verb drops cached entries and
// `cache-stats` reports the cache counters end to end.
func TestConsolePurgeOp(t *testing.T) {
	testutil.NoLeaks(t)
	cluster, err := core.Launch(core.Options{
		CacheBytes:   4 << 20,
		CacheOptions: respcache.Options{FreshTTL: time.Hour},
		ConsoleAddr:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()

	body := []byte("<html>purge me</html>")
	obj := content.Object{Path: "/purgeme.html", Size: int64(len(body)), Class: content.ClassHTML}
	if err := cluster.Controller.Insert(obj, body, cluster.Spec.NodeIDs()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Get("/purgeme.html"); err != nil {
		t.Fatal(err)
	}
	if st := cluster.Cache.Stats(); st.Entries != 1 {
		t.Fatalf("entry not cached: %+v", st)
	}
	if n, err := cluster.Controller.Purge("/purgeme.html"); err != nil || n != 1 {
		t.Fatalf("Purge = (%d, %v)", n, err)
	}
	if st := cluster.Cache.Stats(); st.Entries != 0 {
		t.Fatalf("purge left entries: %+v", st)
	}
	if st, ok := cluster.Controller.CacheStats(); !ok || st.Fills != 1 {
		t.Fatalf("CacheStats = (%+v, %v)", st, ok)
	}
	if _, err := cluster.Controller.Purge("*"); err != nil {
		t.Fatalf("purge *: %v", err)
	}
}
