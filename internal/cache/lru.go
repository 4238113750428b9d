// Package cache provides a byte-bounded LRU cache.
//
// It is the storage substrate for two components of the system described in
// the paper: the per-node memory page cache of a back-end web server (whose
// hit rate drives the Figure 2 result) and the URL-table entry cache the
// distributor uses to speed up demultiplexing (§5.2).
package cache

import (
	"container/list"
	"reflect"
	"sync"
)

// Sizer reports the storage footprint of a cached value in bytes. Values
// stored in an LRU must have a stable size for the duration of their
// residency; mutating a cached value's size corrupts the accounting.
type Sizer interface {
	SizeBytes() int64
}

// Bytes is a convenience value type for caching raw content.
type Bytes []byte

// SizeBytes returns the length of the byte slice.
func (b Bytes) SizeBytes() int64 { return int64(len(b)) }

var _ Sizer = Bytes(nil)

// EvictFunc observes a value leaving the cache: an eviction, a Remove, or
// a Put that displaces a different value under the same key. It runs
// while the cache lock is held, so it must not call back into the cache.
type EvictFunc func(key string, value Sizer)

// LRU is a thread-safe, byte-capacity-bounded least-recently-used cache.
// The zero value is not usable; construct with NewLRU.
type LRU struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	onEvict  EvictFunc

	hits   int64
	misses int64
}

type lruEntry struct {
	key   string
	value Sizer
	size  int64
}

// NewLRU returns an LRU bounded to capacity bytes. A non-positive capacity
// yields a cache that stores nothing (every Get is a miss), which models a
// node with no memory available for caching.
func NewLRU(capacity int64) *LRU {
	return &LRU{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// SetEvictFunc registers a callback invoked for each value that leaves the
// cache (see EvictFunc).
func (c *LRU) SetEvictFunc(fn EvictFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onEvict = fn
}

// Get returns the cached value and whether it was present, promoting the
// entry to most recently used.
func (c *LRU) Get(key string) (Sizer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	ent, _ := el.Value.(*lruEntry)
	return ent.value, true
}

// Contains reports whether key is cached without promoting it or touching
// hit/miss accounting.
func (c *LRU) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Key returns the cache's own string for the key spelled by b, without
// promoting it or touching hit/miss accounting: a parser that resolves a
// request target through it holds no copy of a key the cache has.
func (c *LRU) Key(b []byte) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(b)]
	if !ok {
		return "", false
	}
	return el.Value.(*lruEntry).key, true
}

// Put inserts or replaces the value for key and evicts least-recently-used
// entries until the cache fits its capacity. Values larger than the whole
// capacity are not cached at all (matching the behaviour of an OS page cache
// asked to hold a file bigger than memory: it thrashes rather than pins, so
// we model it as an unconditional miss). It reports whether the value was
// retained. A value it displaces goes to the evict func, unless it is the
// value being put.
func (c *LRU) Put(key string, value Sizer) bool {
	size := value.SizeBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.capacity {
		// Too big to ever fit; also drop any stale smaller entry.
		if el, ok := c.items[key]; ok {
			c.removeElement(el)
		}
		return false
	}
	if el, ok := c.items[key]; ok {
		ent, _ := el.Value.(*lruEntry)
		old := ent.value
		c.used += size - ent.size
		ent.value = value
		ent.size = size
		c.ll.MoveToFront(el)
		if c.onEvict != nil && !sameValue(old, value) {
			c.onEvict(key, old)
		}
	} else {
		el := c.ll.PushFront(&lruEntry{key: key, value: value, size: size})
		c.items[key] = el
		c.used += size
	}
	for c.used > c.capacity {
		c.removeElement(c.ll.Back())
	}
	return true
}

// sameValue reports whether a and b are one value. Values of an
// uncomparable type, such as Bytes, never are.
func sameValue(a, b Sizer) bool {
	return reflect.TypeOf(a) == reflect.TypeOf(b) && reflect.TypeOf(a).Comparable() && a == b
}

// Remove deletes key from the cache, reporting whether it was present.
func (c *LRU) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.removeElement(el)
	return true
}

// removeElement unlinks el. Caller holds c.mu; el must be non-nil.
func (c *LRU) removeElement(el *list.Element) {
	ent, _ := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.used -= ent.size
	if c.onEvict != nil {
		c.onEvict(ent.key, ent.value)
	}
}

// Purge drops every entry, handing each to the evict func, least recently
// used first.
func (c *LRU) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.ll.Len() > 0 {
		c.removeElement(c.ll.Back())
	}
}

// Clear drops every entry without invoking the eviction callback.
func (c *LRU) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.used = 0
}

// Len returns the number of cached entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// UsedBytes returns the summed size of resident entries.
func (c *LRU) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Capacity returns the configured byte bound.
func (c *LRU) Capacity() int64 { return c.capacity }

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits     int64
	Misses   int64
	Entries  int
	Used     int64
	Capacity int64
}

// HitRate returns hits/(hits+misses), or 0 when no lookups have occurred.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:     c.hits,
		Misses:   c.misses,
		Entries:  c.ll.Len(),
		Used:     c.used,
		Capacity: c.capacity,
	}
}

// ResetStats zeroes the hit/miss counters, leaving contents intact.
func (c *LRU) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses = 0, 0
}
