package respcache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"webcluster/internal/httpx"
	"webcluster/internal/workload"
)

// replayMiss is the distributor's miss leader in miniature: ask Admits at
// the response header, and only then acquire, fill and Put the body, with
// the header strings a back end's response leaves on the entry. It
// reports a body Admits passed and Put then refused: one buffered for
// nothing.
func replayMiss(c *Cache, path string, size int) (wasted bool) {
	if !c.Admits(path, int64(size)) {
		return false
	}
	e := c.AcquireEntry(size)
	e.Fill(httpx.Stored{
		StatusCode:  200,
		ContentType: "text/html",
		ETag:        `"0123456789abcdef"`,
		Date:        "Tue, 14 Nov 2023 22:13:20 GMT",
	}, c.Now(), c.FreshFor())
	wasted = !c.Put(path, e)
	c.Release(e)
	return wasted
}

// A request stream of churn_mixed's shape, replayed through the cache:
// 4 000 objects on the 512 B–8 KiB ladder by popularity rank, Zipf at
// s = 0.9, an 8 MiB cache with the default shards. The site is 12.1 MiB,
// so the cache holds two thirds of it and admission decides which two
// thirds. Weighing a candidate against all the victims its bytes displace
// keeps the many small hot bodies an 8 KiB one would push out; the
// per-victim duel read 0.912 here.
func TestReplayHitRatio(t *testing.T) {
	ladder := [...]int{512, 1 << 10, 2 << 10, 4 << 10, 8 << 10}
	const objects = 4000
	paths := make([]string, objects)
	for i := range paths {
		paths[i] = fmt.Sprintf("/docs/d%02d/p%06d.html", i%40, i)
	}
	epoch := time.Unix(1_700_000_000, 0)
	c := New(Options{MaxBytes: 8 << 20, FreshTTL: time.Hour, Clock: func() time.Time { return epoch }})
	z, err := workload.NewZipf(objects, workload.DefaultZipfS, 1)
	if err != nil {
		t.Fatal(err)
	}
	wasted := 0
	request := func() bool {
		r := z.Next()
		e, state := c.Get(paths[r])
		c.Release(e)
		if state == Fresh {
			return true
		}
		if replayMiss(c, paths[r], ladder[r%len(ladder)]) {
			wasted++
		}
		return false
	}
	// a churn_mixed run serves about three million requests; the first
	// million fill the cache and let the sketch learn the tail
	for i := 0; i < 1_000_000; i++ {
		request()
	}
	const measured = 1_000_000
	hits := 0
	for i := 0; i < measured; i++ {
		if request() {
			hits++
		}
	}
	ratio := float64(hits) / measured
	t.Logf("hit ratio %.3f, %+v", ratio, c.Stats())
	if ratio < 0.94 {
		t.Fatalf("static hit ratio %.3f, want ≥ 0.94", ratio)
	}
	if st := c.Stats(); st.Bytes > st.MaxBytes {
		t.Fatalf("budget blown: %d > %d", st.Bytes, st.MaxBytes)
	}
	// Admits weighs the charge Put does, so on one goroutine no body it
	// passed is refused after buffering.
	if wasted != 0 {
		t.Fatalf("Put refused %d bodies Admits had passed", wasted)
	}
}

// A candidate that loses its duel evicts nothing: the victims it beat on
// the way to the one it lost to stay resident.
func TestLostDuelEvictsNothing(t *testing.T) {
	c, _ := testCache(4096)
	place(t, c, "/cold", 1000) // the probation tail, requested once
	place(t, c, "/hot", 1000)
	for i := 0; i < 10; i++ {
		c.Get("/hot")
	}
	// requested twice: hotter than /cold, colder than /hot, and large
	// enough to need both of them gone
	c.Get("/big")
	c.Get("/big")
	if c.Admits("/big", 3000) {
		t.Fatal("Admits: the candidate outdrew /cold and /hot together")
	}
	if c.Put("/big", NewEntry(storedBody(3000), c.Now(), c.FreshFor())) {
		t.Fatal("Put: the candidate outdrew /cold and /hot together")
	}
	for _, p := range []string{"/cold", "/hot"} {
		e := c.Peek(p)
		if e == nil {
			t.Fatalf("%s was evicted by a duel the candidate lost", p)
		}
		c.Release(e)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 2 {
		t.Fatalf("after a lost duel: %d evictions, %d entries, want 0 and 2", st.Evictions, st.Entries)
	}
}

// Admits predicts Put: over a seeded stream of gets, misses, refills of
// resident paths, bodies too large for a shard and invalidations, every
// Put of an entry filled with a back end's header strings agrees with the
// Admits asked just before it.
func TestAdmitsAgreesWithPut(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := New(Options{MaxBytes: 64 << 10, Shards: 4, FreshTTL: time.Hour})
			sizes := [...]int{100, 512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 20 << 10}
			admitted, refused := 0, 0
			for i := 0; i < 20_000; i++ {
				p := fmt.Sprintf("/p%03d", int(rng.ExpFloat64()*40)%300)
				if rng.Intn(50) == 0 {
					c.Invalidate(p)
					continue
				}
				e, state := c.Get(p)
				c.Release(e)
				if state == Fresh && rng.Intn(4) != 0 {
					continue
				}
				n := sizes[rng.Intn(len(sizes))]
				want := c.Admits(p, int64(n))
				fill := c.AcquireEntry(n)
				fill.Fill(httpx.Stored{
					StatusCode:  200,
					ContentType: "text/html",
					ETag:        `"0123456789abcdef"`,
					Date:        "Tue, 14 Nov 2023 22:13:20 GMT",
				}, c.Now(), c.FreshFor())
				if got := c.Put(p, fill); got != want {
					t.Fatalf("request %d: Admits(%s, %d) = %v, Put = %v", i, p, n, want, got)
				}
				c.Release(fill)
				if want {
					admitted++
				} else {
					refused++
				}
			}
			if admitted == 0 || refused == 0 {
				t.Fatalf("%d admitted, %d refused: the stream never exercised both answers", admitted, refused)
			}
		})
	}
}
