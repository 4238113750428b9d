package cache

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	c := NewLRU(100)
	if !c.Put("a", Bytes("hello")) {
		t.Fatal("Put rejected a fitting value")
	}
	v, ok := c.Get("a")
	if !ok {
		t.Fatal("Get missed a stored value")
	}
	if string(v.(Bytes)) != "hello" {
		t.Fatalf("Get returned %q, want %q", v, "hello")
	}
}

func TestGetMissing(t *testing.T) {
	c := NewLRU(100)
	if _, ok := c.Get("nope"); ok {
		t.Fatal("Get hit on an empty cache")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 miss 0 hits", st)
	}
}

func TestEvictionOrder(t *testing.T) {
	c := NewLRU(3)
	var evicted []string
	c.SetEvictFunc(func(key string, _ Sizer) { evicted = append(evicted, key) })
	c.Put("a", Bytes("x"))
	c.Put("b", Bytes("x"))
	c.Put("c", Bytes("x"))
	// Touch "a" so "b" is the LRU entry.
	c.Get("a")
	c.Put("d", Bytes("x"))
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if !c.Contains("a") || !c.Contains("c") || !c.Contains("d") {
		t.Fatal("wrong survivors after eviction")
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := NewLRU(4)
	if c.Put("big", Bytes("12345")) {
		t.Fatal("Put accepted a value larger than capacity")
	}
	if c.Contains("big") {
		t.Fatal("oversized value resident")
	}
	if c.UsedBytes() != 0 {
		t.Fatalf("used = %d, want 0", c.UsedBytes())
	}
}

func TestOversizedReplacesDropsStale(t *testing.T) {
	c := NewLRU(4)
	c.Put("k", Bytes("12"))
	if c.Put("k", Bytes("123456")) {
		t.Fatal("oversized replacement retained")
	}
	if c.Contains("k") {
		t.Fatal("stale small entry survived an oversized replacement")
	}
}

func TestReplaceAdjustsUsed(t *testing.T) {
	c := NewLRU(10)
	c.Put("k", Bytes("1234"))
	c.Put("k", Bytes("12"))
	if got := c.UsedBytes(); got != 2 {
		t.Fatalf("used = %d, want 2", got)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestRemove(t *testing.T) {
	c := NewLRU(10)
	c.Put("k", Bytes("abc"))
	if !c.Remove("k") {
		t.Fatal("Remove missed a present key")
	}
	if c.Remove("k") {
		t.Fatal("Remove hit an absent key")
	}
	if c.UsedBytes() != 0 || c.Len() != 0 {
		t.Fatal("cache not empty after Remove")
	}
}

// sized is a pointer value: a Put of the same pointer displaces nothing.
type sized struct{ n int64 }

func (s *sized) SizeBytes() int64 { return s.n }

// A Put over an existing key hands the value it displaces to the evict
// func, which is where a value holding a resource lets go of it.
func TestPutReportsDisplacedValue(t *testing.T) {
	same := &sized{n: 2}
	for _, tc := range []struct {
		name       string
		old, new   Sizer
		wantReport bool
	}{
		{"different bytes", Bytes("ab"), Bytes("cd"), true},
		{"different pointer", &sized{n: 2}, &sized{n: 3}, true},
		{"same pointer", same, same, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewLRU(10)
			var got []Sizer
			c.SetEvictFunc(func(_ string, v Sizer) { got = append(got, v) })
			c.Put("k", tc.old)
			c.Put("k", tc.new)
			if tc.wantReport != (len(got) == 1) || len(got) > 1 {
				t.Fatalf("evict func saw %d values, want report %v", len(got), tc.wantReport)
			}
			if tc.wantReport && got[0].SizeBytes() != tc.old.SizeBytes() {
				t.Fatalf("evict func saw %v, want the displaced %v", got[0], tc.old)
			}
			if v, _ := c.Get("k"); v.SizeBytes() != tc.new.SizeBytes() || c.UsedBytes() != tc.new.SizeBytes() {
				t.Fatalf("after the Put: value %v, used %d", v, c.UsedBytes())
			}
		})
	}
}

func TestClear(t *testing.T) {
	c := NewLRU(10)
	evictions := 0
	c.SetEvictFunc(func(string, Sizer) { evictions++ })
	c.Put("a", Bytes("x"))
	c.Put("b", Bytes("y"))
	c.Clear()
	if c.Len() != 0 || c.UsedBytes() != 0 {
		t.Fatal("Clear left residue")
	}
	if evictions != 0 {
		t.Fatal("Clear invoked the eviction callback")
	}
}

func TestPurge(t *testing.T) {
	c := NewLRU(10)
	var evicted []string
	c.SetEvictFunc(func(k string, _ Sizer) { evicted = append(evicted, k) })
	c.Put("a", Bytes("x"))
	c.Put("b", Bytes("y"))
	c.Get("a")
	c.Purge()
	if c.Len() != 0 || c.UsedBytes() != 0 {
		t.Fatal("Purge left residue")
	}
	if strings.Join(evicted, ",") != "b,a" {
		t.Fatalf("evict func saw %v, want every entry, least recently used first", evicted)
	}
}

func TestZeroCapacityCachesNothing(t *testing.T) {
	c := NewLRU(0)
	if c.Put("a", Bytes("x")) {
		t.Fatal("zero-capacity cache retained a value")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("zero-capacity cache hit")
	}
}

func TestHitRate(t *testing.T) {
	c := NewLRU(100)
	c.Put("a", Bytes("x"))
	c.Get("a")
	c.Get("a")
	c.Get("b")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate = %g, want 2/3", got)
	}
}

func TestHitRateNoLookups(t *testing.T) {
	if got := (Stats{}).HitRate(); got != 0 {
		t.Fatalf("empty hit rate = %g, want 0", got)
	}
}

func TestResetStats(t *testing.T) {
	c := NewLRU(10)
	c.Put("a", Bytes("x"))
	c.Get("a")
	c.Get("b")
	c.ResetStats()
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
	if st.Entries != 1 {
		t.Fatal("ResetStats dropped contents")
	}
}

// TestPropertyNeverExceedsCapacity drives random operations and checks the
// byte bound and accounting invariants throughout.
func TestPropertyNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64, capSmall uint8) bool {
		capacity := int64(capSmall)%64 + 1
		c := NewLRU(capacity)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			key := strconv.Itoa(rng.Intn(20))
			switch rng.Intn(3) {
			case 0:
				size := rng.Intn(int(capacity) + 5)
				c.Put(key, Bytes(make([]byte, size)))
			case 1:
				c.Get(key)
			case 2:
				c.Remove(key)
			}
			if c.UsedBytes() > capacity {
				return false
			}
			if c.UsedBytes() < 0 {
				return false
			}
		}
		// Cross-check used bytes against summed entries.
		var sum int64
		for i := 0; i < 20; i++ {
			key := strconv.Itoa(i)
			if v, ok := c.Get(key); ok {
				sum += v.SizeBytes()
			}
		}
		return sum == c.UsedBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLRUKeepsHotKey: a key touched on every round survives any
// interleaving of other insertions that fit alongside it.
func TestPropertyLRUKeepsHotKey(t *testing.T) {
	f := func(seed int64) bool {
		c := NewLRU(10)
		c.Put("hot", Bytes("x"))
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			if _, ok := c.Get("hot"); !ok {
				return false
			}
			c.Put(fmt.Sprintf("cold%d", rng.Intn(100)), Bytes("abc"))
		}
		return c.Contains("hot")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewLRU(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				key := strconv.Itoa((g*1000 + i) % 64)
				c.Put(key, Bytes(make([]byte, i%128)))
				c.Get(key)
				if i%10 == 0 {
					c.Remove(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.UsedBytes() > c.Capacity() {
		t.Fatalf("used %d exceeds capacity %d", c.UsedBytes(), c.Capacity())
	}
}

func TestBytesSizer(t *testing.T) {
	if Bytes("abcd").SizeBytes() != 4 {
		t.Fatal("Bytes.SizeBytes wrong")
	}
	if Bytes(nil).SizeBytes() != 0 {
		t.Fatal("nil Bytes size wrong")
	}
}
