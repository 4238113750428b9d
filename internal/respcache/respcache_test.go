package respcache

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"webcluster/internal/httpx"
)

// fakeClock is a manually-advanced cache clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2024, time.June, 1, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func storedBody(n int) httpx.Stored {
	body := make([]byte, n)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	return httpx.Stored{StatusCode: 200, ContentType: "text/html", Body: body}
}

// testCache builds a single-shard cache with a fake clock so recency,
// admission, and freshness are all deterministic.
func testCache(maxBytes int64) (*Cache, *fakeClock) {
	clk := newFakeClock()
	c := New(Options{
		MaxBytes: maxBytes,
		Shards:   1,
		FreshTTL: 10 * time.Second,
		StaleTTL: 20 * time.Second,
		Clock:    clk.now,
	})
	return c, clk
}

func TestSketchBumpEstimate(t *testing.T) {
	s := newSketch(16)
	h := hashKey("/a.html")
	if got := s.estimate(h); got != 0 {
		t.Fatalf("fresh sketch estimate = %d", got)
	}
	for i := 1; i <= 5; i++ {
		s.bump(h)
		if got := s.estimate(h); got != byte(i) {
			t.Fatalf("after %d bumps estimate = %d", i, got)
		}
	}
	// counters saturate at 15
	for i := 0; i < 40; i++ {
		s.bump(h)
	}
	if got := s.estimate(h); got != 15 {
		t.Fatalf("saturated estimate = %d, want 15", got)
	}
	// aging halves every counter
	s.age()
	if got := s.estimate(h); got != 7 {
		t.Fatalf("aged estimate = %d, want 7", got)
	}
	// an unrelated key stays near zero
	if got := s.estimate(hashKey("/never-seen")); got > 1 {
		t.Fatalf("cold key estimate = %d", got)
	}
}

func TestSketchAgingTriggers(t *testing.T) {
	s := newSketch(1) // 256 counters, sample window 2048
	hot := hashKey("/hot")
	for i := 0; i < 30; i++ {
		s.bump(hot)
	}
	// churn distinct keys until the sample window rolls the sketch over
	for i := 0; s.estimate(hot) == 15 && i < 4*s.sample; i++ {
		s.bump(hashKey(fmt.Sprintf("/churn/%d", i)))
	}
	if got := s.estimate(hot); got >= 15 {
		t.Fatalf("aging never decayed the hot key: estimate = %d", got)
	}
}

func TestGetStateTransitions(t *testing.T) {
	c, clk := testCache(1 << 20)
	const path = "/page.html"
	if e, st := c.Get(path); st != Miss || e != nil {
		t.Fatalf("empty cache Get = (%v, %v)", e, st)
	}
	e := NewEntry(storedBody(100), c.Now(), c.FreshFor())
	if !c.Put(path, e) {
		t.Fatal("Put into empty cache rejected")
	}
	if got, st := c.Get(path); st != Fresh || got != e {
		t.Fatalf("after Put Get = (%v, %v)", got, st)
	}
	clk.advance(11 * time.Second) // past FreshTTL
	if got, st := c.Get(path); st != Stale || got != e {
		t.Fatalf("after expiry Get = (%v, %v)", got, st)
	}
	if age := e.AgeSeconds(c.Now()); age != 11 {
		t.Fatalf("AgeSeconds = %d, want 11", age)
	}
	// a 304 revalidation restores freshness and resets Age
	c.Refresh(e)
	if _, st := c.Get(path); st != Fresh {
		t.Fatalf("after Refresh state = %v", st)
	}
	if age := e.AgeSeconds(c.Now()); age != 0 {
		t.Fatalf("AgeSeconds after Refresh = %d", age)
	}
	clk.advance(31 * time.Second) // past FreshTTL+StaleTTL
	if got, st := c.Get(path); st != Miss || got != nil {
		t.Fatalf("past stale horizon Get = (%v, %v)", got, st)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("expired entry still resident: %+v", st)
	}
}

func TestStateString(t *testing.T) {
	if Miss.String() != "miss" || Fresh.String() != "fresh" || Stale.String() != "stale" {
		t.Fatalf("State strings: %v %v %v", Miss, Fresh, Stale)
	}
}

func TestPutRejectsOversizedBody(t *testing.T) {
	clk := newFakeClock()
	c := New(Options{MaxBytes: 1 << 20, MaxEntryBytes: 512, Shards: 1, Clock: clk.now})
	e := NewEntry(storedBody(1024), c.Now(), c.FreshFor())
	if c.Put("/big", e) {
		t.Fatal("oversized body admitted")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Fills != 0 {
		t.Fatalf("stats after oversized put: %+v", st)
	}
}

// place runs the distributor's miss sequence: a Get (which records the
// path in the frequency sketch) followed by a Put.
func place(t *testing.T, c *Cache, path string, size int) *Entry {
	t.Helper()
	c.Get(path)
	e := NewEntry(storedBody(size), c.Now(), c.FreshFor())
	if !c.Put(path, e) {
		t.Fatalf("Put(%s) rejected", path)
	}
	return e
}

func TestAdmissionRejectsColdCandidate(t *testing.T) {
	// budget fits three ~1256-byte entries (1000 body + overhead)
	c, _ := testCache(4096)
	for _, p := range []string{"/a", "/b", "/c"} {
		place(t, c, p, 1000)
	}
	// heat the residents so the probation victim outranks a newcomer
	for i := 0; i < 5; i++ {
		for _, p := range []string{"/a", "/b", "/c"} {
			c.Get(p)
		}
	}
	// a one-hit-wonder must not displace them
	c.Get("/cold")
	cold := NewEntry(storedBody(1000), c.Now(), c.FreshFor())
	if c.Put("/cold", cold) {
		t.Fatal("cold candidate displaced a hot resident")
	}
	for _, p := range []string{"/a", "/b", "/c"} {
		if _, st := c.Get(p); st != Fresh {
			t.Fatalf("%s lost after rejected admission: %v", p, st)
		}
	}
	// once the candidate is requested often enough, it wins the duel
	for i := 0; i < 10; i++ {
		c.Get("/hot")
	}
	hot := NewEntry(storedBody(1000), c.Now(), c.FreshFor())
	if !c.Put("/hot", hot) {
		t.Fatal("hot candidate rejected")
	}
	if _, st := c.Get("/hot"); st != Fresh {
		t.Fatal("admitted entry not served")
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("admission evicted nothing: %+v", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("budget blown: %d > %d", st.Bytes, st.MaxBytes)
	}
}

func TestProtectedSegmentSurvivesEviction(t *testing.T) {
	c, _ := testCache(4096)
	place(t, c, "/keep", 1000)
	c.Get("/keep") // second hit promotes to protected
	place(t, c, "/b", 1000)
	place(t, c, "/c", 1000)
	// hot newcomer forces one eviction; the probation tail (/b) must go
	// before the protected entry
	for i := 0; i < 8; i++ {
		c.Get("/new")
	}
	if !c.Put("/new", NewEntry(storedBody(1000), c.Now(), c.FreshFor())) {
		t.Fatal("hot newcomer rejected")
	}
	if _, st := c.Get("/keep"); st != Fresh {
		t.Fatal("protected entry evicted while probation had a victim")
	}
	if _, st := c.Get("/b"); st != Miss {
		t.Fatal("probation tail survived eviction")
	}
}

func TestReplacementStaysInBudget(t *testing.T) {
	c, _ := testCache(4096)
	place(t, c, "/a", 1000)
	place(t, c, "/b", 1000)
	// replace /a with a much larger body: same key, so no admission
	// duel, but the budget must still hold afterwards
	big := NewEntry(storedBody(3000), c.Now(), c.FreshFor())
	if !c.Put("/a", big) {
		t.Fatal("replacement rejected")
	}
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("replacement blew the budget: %d > %d", st.Bytes, st.MaxBytes)
	}
	if got, state := c.Get("/a"); state != Fresh || got != big {
		t.Fatalf("replacement not visible: (%v, %v)", got, state)
	}
}

func TestInvalidate(t *testing.T) {
	c, _ := testCache(1 << 20)
	place(t, c, "/x", 100)
	place(t, c, "/y", 100)
	if n := c.Invalidate("/x"); n != 1 {
		t.Fatalf("Invalidate dropped %d", n)
	}
	if n := c.Invalidate("/x"); n != 0 {
		t.Fatalf("second Invalidate dropped %d", n)
	}
	if _, st := c.Get("/x"); st != Miss {
		t.Fatal("invalidated entry still served")
	}
	if _, st := c.Get("/y"); st != Fresh {
		t.Fatal("unrelated entry lost")
	}
	if n := c.InvalidateAll(); n != 1 {
		t.Fatalf("InvalidateAll dropped %d, want 1", n)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("cache not empty after InvalidateAll: %+v", st)
	}
}

func TestFlightCoalescing(t *testing.T) {
	c, _ := testCache(1 << 20)
	f1, leader := c.BeginFlight("/p")
	if !leader {
		t.Fatal("first flight not leader")
	}
	f2, leader2 := c.BeginFlight("/p")
	if leader2 || f2 != f1 {
		t.Fatal("second requester did not join the flight")
	}
	done := make(chan *Entry, 1)
	go func() {
		e, err := f2.Wait()
		if err != nil {
			t.Error(err)
		}
		done <- e
	}()
	e := NewEntry(storedBody(100), c.Now(), c.FreshFor())
	f1.Finish(e, nil)
	if got := <-done; got != e {
		t.Fatalf("follower got %v", got)
	}
	// the leader's result was stored
	if _, st := c.Get("/p"); st != Fresh {
		t.Fatal("coalesced fetch not cached")
	}
	if st := c.Stats(); st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", st.Coalesced)
	}
	// the flight is detached: a new miss starts a new fetch
	if _, leader := c.BeginFlight("/p"); !leader {
		t.Fatal("finished flight still registered")
	}
}

func TestFlightErrorShared(t *testing.T) {
	c, _ := testCache(1 << 20)
	f, _ := c.BeginFlight("/err")
	f2, _ := c.BeginFlight("/err")
	wantErr := fmt.Errorf("backend down")
	go f.Finish(nil, wantErr)
	if _, err := f2.Wait(); err != wantErr {
		t.Fatalf("follower err = %v", err)
	}
	if _, st := c.Get("/err"); st != Miss {
		t.Fatal("errored flight stored an entry")
	}
}

func TestInvalidateDoomsFlight(t *testing.T) {
	c, _ := testCache(1 << 20)
	f, _ := c.BeginFlight("/doomed")
	waiter, _ := c.BeginFlight("/doomed")
	c.Invalidate("/doomed")
	if !f.Doomed() {
		t.Fatal("invalidation did not doom the in-flight fetch")
	}
	// the doomed flight was detached: a post-purge requester gets a
	// fresh flight, not the pre-mutation response
	f2, leader := c.BeginFlight("/doomed")
	if !leader || f2 == f {
		t.Fatal("post-invalidate requester adopted the doomed flight")
	}
	// the doomed leader's result reaches its own waiters but is never
	// stored, and finishing must not unregister the successor flight
	e := NewEntry(storedBody(100), c.Now(), c.FreshFor())
	f.Finish(e, nil)
	if got, err := waiter.Wait(); got != e || err != nil {
		t.Fatalf("doomed flight Wait = (%v, %v)", got, err)
	}
	if _, st := c.Get("/doomed"); st != Miss {
		t.Fatal("doomed flight stored its pre-mutation entry")
	}
	c.flightMu.Lock()
	cur := c.flights["/doomed"]
	c.flightMu.Unlock()
	if cur != f2 {
		t.Fatalf("successor flight lost: %v", cur)
	}
	f2.Finish(nil, nil)
}

func TestStatsCounters(t *testing.T) {
	c, clk := testCache(1 << 20)
	c.Get("/s") // miss
	e := NewEntry(storedBody(64), c.Now(), c.FreshFor())
	c.Put("/s", e)
	c.Get("/s") // hit
	clk.advance(11 * time.Second)
	c.Get("/s") // stale (neither hit nor miss)
	c.CountStale()
	c.CountNotModified()
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fills != 1 ||
		st.StaleServed != 1 || st.NotModified != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Entries != 1 || st.Bytes != e.Size() || st.MaxBytes != 1<<20 {
		t.Fatalf("residency = %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	clk := newFakeClock()
	c := New(Options{MaxBytes: 64 << 10, Shards: 4, FreshTTL: time.Hour, Clock: clk.now})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				path := fmt.Sprintf("/obj/%d", i%17)
				switch {
				case i%31 == 0:
					c.Invalidate(path)
				case i%7 == 0:
					f, leader := c.BeginFlight(path)
					if leader {
						f.Finish(NewEntry(storedBody(128), c.Now(), c.FreshFor()), nil)
					} else {
						_, _ = f.Wait()
					}
				default:
					if _, st := c.Get(path); st == Miss {
						c.Put(path, NewEntry(storedBody(128), c.Now(), c.FreshFor()))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("budget blown under concurrency: %d > %d", st.Bytes, st.MaxBytes)
	}
}

// Finish stores only an entry its flight produced: re-finishing with the
// resident entry a leader's double-check Peek found, or with the entry a
// 304 revalidated, counts no fill and takes no second cache reference; a
// revalidated entry evicted meanwhile is re-inserted and counted once.
func TestFinishStoresOnlyNewFills(t *testing.T) {
	c, clk := testCache(1 << 20)
	e := place(t, c, "/p", 100)
	fills := func() int64 { return c.Stats().Fills }

	f, leader := c.BeginFlight("/p")
	if !leader {
		t.Fatal("no leader")
	}
	peeked := c.Peek("/p")
	if peeked != e {
		t.Fatalf("Peek = %v, want the resident entry", peeked)
	}
	f.Finish(peeked, nil)
	c.Release(peeked)
	if got := fills(); got != 1 {
		t.Fatalf("double-check re-finish: fills = %d, want 1", got)
	}

	clk.advance(11 * time.Second) // expire; the stale window keeps it
	stale, st := c.Get("/p")
	if st != Stale {
		t.Fatalf("state = %v, want stale", st)
	}
	f, _ = c.BeginFlight("/p")
	c.Refresh(stale)
	f.Finish(stale, nil)
	if got := fills(); got != 1 {
		t.Fatalf("304 revalidation: fills = %d, want 1", got)
	}
	// the caller's reference, the cache's own, and NewEntry's
	if got := stale.refs.Load(); got != 3 {
		t.Fatalf("refs after revalidation = %d, want 3", got)
	}

	// evicted while the revalidation was in flight (not invalidated,
	// which would doom the flight): Finish puts it back, once
	f, _ = c.BeginFlight("/p")
	if !c.shardFor(hashKey("/p")).invalidate("/p") {
		t.Fatal("entry was not resident")
	}
	c.Refresh(stale)
	f.Finish(stale, nil)
	if got := fills(); got != 2 {
		t.Fatalf("revalidated after eviction: fills = %d, want 2", got)
	}
	if got, st := c.Get("/p"); got != stale || st != Fresh {
		t.Fatalf("re-inserted entry: (%v, %v)", got, st)
	}
}

// fillEntry acquires an entry for body, fills it the way the distributor
// does and returns it with the caller's one reference.
func fillEntry(c *Cache, body string) *Entry {
	e := c.AcquireEntry(len(body))
	copy(e.Stored.Body, body)
	e.Fill(httpx.Stored{StatusCode: 200, ContentType: "text/html"}, c.Now(), c.FreshFor())
	return e
}

// An entry AcquireEntry allocated comes back to its size class when its
// last reference goes, and not before; one NewEntry built never does. The
// budget is charged by the capacity the entry holds.
func TestEntryRecycling(t *testing.T) {
	c, _ := testCache(1 << 20)
	e := fillEntry(c, strings.Repeat("a", 1000))
	if cap(e.Stored.Body) != 1024 {
		t.Fatalf("body capacity %d, want the 1024-byte class", cap(e.Stored.Body))
	}
	if want := int64(1024+len("text/html")) + entryOverhead; e.Size() != want {
		t.Fatalf("Size = %d, want %d (capacity, not length)", e.Size(), want)
	}
	if !c.Put("/a", e) {
		t.Fatal("Put rejected")
	}
	hit, _ := c.Get("/a")
	c.Invalidate("/a") // the cache lets go; the fill and the hit still hold it
	if other := c.AcquireEntry(900); other == e {
		t.Fatal("an entry still referenced was handed out again")
	}
	c.Release(e)
	c.Release(hit)
	reused := c.AcquireEntry(900)
	if reused != e {
		t.Fatal("a released entry was not reused by the next fill of its class")
	}
	if len(reused.Stored.Body) != 900 || cap(reused.Stored.Body) != 1024 {
		t.Fatalf("reused body len %d cap %d, want 900 and 1024", len(reused.Stored.Body), cap(reused.Stored.Body))
	}
	if got := reused.refs.Load(); got != 1 {
		t.Fatalf("reused entry refs = %d, want the caller's 1", got)
	}
	c.Release(reused)

	caller := NewEntry(storedBody(1000), c.Now(), c.FreshFor())
	c.Put("/b", caller)
	c.Release(caller)
	c.Invalidate("/b")
	if got := c.AcquireEntry(1000); got == caller {
		t.Fatal("an entry built from caller bytes was recycled")
	}
}

// Every way out of the cache releases the cache's reference: eviction,
// replacement, expiry, invalidation and purge each return an entry
// nobody else holds to the free lists.
func TestEveryRemovalReleases(t *testing.T) {
	c, clk := testCache(4096)
	resident := func(path string) *Entry {
		c.Get(path)
		e := fillEntry(c, strings.Repeat("x", 1000))
		if !c.Put(path, e) {
			t.Fatalf("Put(%s) rejected", path)
		}
		c.Release(e)
		return e
	}
	freed := func(e *Entry, how string) {
		t.Helper()
		if got := e.refs.Load(); got != 0 {
			t.Fatalf("%s: refs = %d, want 0", how, got)
		}
		if got := c.AcquireEntry(1000); got != e {
			t.Fatalf("%s: the entry did not reach the free list", how)
		}
		c.Release(e)
	}
	a := resident("/a")
	c.Invalidate("/a")
	freed(a, "invalidate")

	a = resident("/a")
	c.InvalidateAll()
	freed(a, "purge")

	a = resident("/a")
	b := fillEntry(c, strings.Repeat("y", 1000))
	c.Put("/a", b)
	c.Release(b)
	freed(a, "replacement")
	c.InvalidateAll()

	a = resident("/a")
	clk.advance(31 * time.Second) // past the stale horizon
	if _, st := c.Get("/a"); st != Miss {
		t.Fatalf("expired entry state %v", st)
	}
	freed(a, "expiry")

	victim := resident("/a") // the probation tail
	resident("/b")
	resident("/c")
	for i := 0; i < 8; i++ {
		c.Get("/hot")
	}
	resident("/hot")
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("nothing evicted: %+v", st)
	}
	freed(victim, "eviction")
}

// Finish hands each follower its own reference to the result.
func TestFlightFollowersHoldReferences(t *testing.T) {
	c, _ := testCache(1 << 20)
	f, _ := c.BeginFlight("/p")
	var wg sync.WaitGroup
	got := make([]*Entry, 2)
	for i := range got {
		if g, leader := c.BeginFlight("/p"); leader || g != f {
			t.Fatal("follower did not join")
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = f.Wait()
		}(i)
	}
	e := fillEntry(c, "body")
	f.Finish(e, nil)
	wg.Wait()
	if got[0] != e || got[1] != e {
		t.Fatalf("followers got %v", got)
	}
	// the leader's, the cache's, one per follower
	if n := e.refs.Load(); n != 4 {
		t.Fatalf("refs = %d, want 4", n)
	}
	c.Release(got[0])
	c.Release(got[1])
	c.Release(e)
	if n := e.refs.Load(); n != 1 {
		t.Fatalf("refs after the readers left = %d, want the cache's 1", n)
	}
}

// A finished flight no follower joined waits for reuse holding nothing:
// its entry, evicted or rejected, must not stay reachable from it.
func TestSpareFlightHoldsNoEntry(t *testing.T) {
	c, _ := testCache(1 << 20)
	f, _ := c.BeginFlight("/p")
	e := fillEntry(c, "body")
	f.Finish(e, errors.New("late"))
	c.Release(e)
	if c.spare != f {
		t.Fatal("the finished flight is not the spare")
	}
	if f.entry != nil || f.err != nil {
		t.Fatalf("spare flight keeps entry %p, err %v", f.entry, f.err)
	}
}

// An uncontended miss allocates nothing in the cache: the flight no
// follower joined is reused, the entry comes off the free list, and the
// admission duel the candidate loses hands it straight back.
func TestUncontendedMissAllocFree(t *testing.T) {
	c, _ := testCache(4096)
	for _, p := range []string{"/a", "/b", "/c"} {
		c.Get(p)
		e := fillEntry(c, strings.Repeat("h", 1000))
		c.Put(p, e)
		c.Release(e)
		for i := 0; i < 5; i++ {
			c.Get(p)
		}
	}
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = fmt.Sprintf("/cold/%d", i)
	}
	body := strings.Repeat("c", 1000)
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		p := paths[i%len(paths)]
		i++
		c.Get(p)
		f, _ := c.BeginFlight(p)
		e := c.AcquireEntry(len(body))
		copy(e.Stored.Body, body)
		e.Fill(httpx.Stored{StatusCode: 200}, c.Now(), c.FreshFor())
		f.Finish(e, nil)
		c.Release(e)
	})
	if allocs != 0 {
		t.Fatalf("uncontended miss: %.1f allocations, want 0", allocs)
	}
	if st := c.Stats(); st.Rejected == 0 {
		t.Fatalf("no candidate lost its duel: %+v", st)
	}
}

// Up to 32 KiB the size classes are the allocator's own: a body made at
// a class's capacity occupies exactly that, so recycling by class holds
// no memory a fresh allocation would not.
func TestSizeClassesMatchAllocator(t *testing.T) {
	for i, class := range sizeClasses {
		if i > 0 && class <= sizeClasses[i-1] {
			t.Fatalf("classes not ascending at %d: %d after %d", i, class, sizeClasses[i-1])
		}
		if class > 32<<10 {
			if class%(8<<10) != 0 {
				t.Fatalf("class %d is not whole pages", class)
			}
			continue
		}
		if got := cap(append([]byte(nil), make([]byte, class)...)); got != class {
			t.Fatalf("class %d: the allocator rounds it to %d", class, got)
		}
	}
	for _, n := range []int{1, 8, 9, 1000, 1024, 1025, 32 << 10, 33 << 10, maxEntryLimit} {
		c := classOf(n)
		if sizeClasses[c] < n || (c > 0 && sizeClasses[c-1] >= n) {
			t.Fatalf("classOf(%d) = %d", n, c)
		}
	}
	if last := sizeClasses[len(sizeClasses)-1]; last != maxEntryLimit {
		t.Fatalf("largest class %d, want the largest cacheable body %d", last, maxEntryLimit)
	}
}
