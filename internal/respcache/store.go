package respcache

// Sharded segmented-LRU store. Each shard owns a map plus two intrusive
// recency lists — probation for entries seen once, protected for entries
// hit again — under a per-shard byte budget. Eviction always claims the
// probation tail first, and a candidate only displaces it when the
// frequency sketch says the candidate is the hotter key (TinyLFU
// admission). Protected overflow demotes back to probation rather than
// straight to eviction, which is what gives SLRU its scan resistance.
//
// The list elements are embedded in the entries, so storing an entry
// allocates nothing, and the shard holds one reference to every entry it
// links: unlinking one — eviction, invalidation, expiry, replacement,
// purge — releases it.

import (
	"slices"
	"sync"
)

// node is an intrusive doubly-linked list element, embedded in its entry:
// in one of the two recency segments while the entry is resident, on its
// size class's free list (next only) after its last release.
type node struct {
	key        string
	hash       uint64
	entry      *Entry
	prev, next *node
	protected  bool
}

// lruList is a circular intrusive list with a sentinel root; root.next is
// the most recent element, root.prev the eviction candidate.
type lruList struct {
	root node
	len  int
}

func (l *lruList) init() {
	l.root.prev = &l.root
	l.root.next = &l.root
}

func (l *lruList) pushFront(n *node) {
	n.prev = &l.root
	n.next = l.root.next
	n.prev.next = n
	n.next.prev = n
	l.len++
}

func (l *lruList) remove(n *node) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
	l.len--
}

func (l *lruList) moveFront(n *node) {
	l.remove(n)
	l.pushFront(n)
}

// back returns the least-recently-used element, nil when empty.
func (l *lruList) back() *node {
	if l.len == 0 {
		return nil
	}
	return l.root.prev
}

// protectedShare is the fraction of a shard's budget the protected
// segment may hold before demoting back into probation.
const protectedShare = 0.8

type shard struct {
	mu        sync.Mutex
	items     map[string]*node
	probation lruList
	protected lruList
	sketch    *sketch
	free      *freeLists // where an unlinked entry's last release goes
	bytes     int64      // bytes used across both segments
	maxBytes  int64
	protBytes int64 // bytes in the protected segment
	protCap   int64
}

func newShard(maxBytes int64, sketchKeys int, free *freeLists) *shard {
	s := &shard{
		items:    make(map[string]*node),
		sketch:   newSketch(sketchKeys),
		free:     free,
		maxBytes: maxBytes,
		protCap:  int64(float64(maxBytes) * protectedShare),
	}
	s.probation.init()
	s.protected.init()
	return s
}

// get returns the live entry for key with a reference for the caller,
// recording the lookup in the frequency sketch (for hits and misses both)
// and adjusting recency: a probation hit promotes to protected, a
// protected hit refreshes recency. Entries past the stale horizon are
// removed and reported as absent.
func (s *shard) get(key string, hash uint64, nowNanos int64, staleTTL int64) *Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sketch.bump(hash)
	n, ok := s.items[key]
	if !ok {
		return nil
	}
	if nowNanos > n.entry.expires.Load()+staleTTL {
		s.removeLocked(n)
		return nil
	}
	if n.protected {
		s.protected.moveFront(n)
	} else {
		// second hit: promote, demoting protected overflow back into
		// probation so hot-but-idle entries face eviction honestly
		s.probation.remove(n)
		n.protected = true
		s.protected.pushFront(n)
		s.protBytes += n.entry.size
		for s.protBytes > s.protCap {
			v := s.protected.back()
			if v == nil || v == n {
				break
			}
			s.protected.remove(v)
			v.protected = false
			s.probation.pushFront(v)
			s.protBytes -= v.entry.size
		}
	}
	// the shard's own reference keeps the count above zero while the
	// lock is held, so this never revives a released entry
	n.entry.refs.Add(1)
	return n.entry
}

// peek returns key's entry, with a reference for the caller, if it is
// resident and fresh at nowNanos, touching neither the sketch nor recency.
func (s *shard) peek(key string, nowNanos int64) *Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.items[key]
	if !ok || nowNanos > n.entry.expires.Load() {
		return nil
	}
	n.entry.refs.Add(1)
	return n.entry
}

// putResult is what put did with a candidate.
type putResult int

const (
	putRejected putResult = iota
	putInserted           // linked, replacing any other entry under the key
	putResident           // already linked under the key: nothing to do
)

// put links the entry under key, applying TinyLFU admission when the
// shard is full: the candidate is dropped unless the sketch estimates it
// at least as popular as each probation victim it would evict. Linking
// takes the shard's reference; a rejected candidate stays the caller's
// alone.
func (s *shard) put(key string, hash uint64, e *Entry, evictions *int64) putResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := e.node()
	old, ok := s.items[key]
	if ok && old == n {
		return putResident
	}
	if ok {
		// replacement keeps the old entry's segment but counts as a
		// touch, so a reclaim triggered by a grown body victimizes colder
		// keys first
		protected := old.protected
		s.removeLocked(old)
		s.linkLocked(e.link(key, hash), protected)
		s.reclaimLocked(hash, true, evictions)
		return putInserted
	}
	if e.size > s.maxBytes {
		return putRejected
	}
	if !s.reclaimNeededLocked(e.size) {
		// full: admission duel against the probation victim
		if !s.admitLocked(hash, e.size, evictions) {
			return putRejected
		}
	}
	s.linkLocked(e.link(key, hash), false)
	return putInserted
}

// linkLocked makes n resident at the front of a segment, taking the
// shard's reference to its entry.
func (s *shard) linkLocked(n *node, protected bool) {
	n.entry.refs.Add(1)
	s.items[n.key] = n
	n.protected = protected
	if protected {
		s.protected.pushFront(n)
		s.protBytes += n.entry.size
	} else {
		s.probation.pushFront(n)
	}
	s.bytes += n.entry.size
}

// reclaimNeededLocked reports whether size fits without eviction.
func (s *shard) reclaimNeededLocked(size int64) bool {
	return s.bytes+size <= s.maxBytes
}

// admitLocked makes room for a candidate of the given frequency and size,
// evicting probation victims only while the candidate's estimated
// frequency is at least each victim's. Returns whether the candidate won.
func (s *shard) admitLocked(hash uint64, size int64, evictions *int64) bool {
	candFreq := s.sketch.estimate(hash)
	for s.bytes+size > s.maxBytes {
		v := s.probation.back()
		if v == nil {
			v = s.protected.back()
		}
		if v == nil {
			return false
		}
		if s.sketch.estimate(v.hash) > candFreq {
			return false
		}
		s.removeLocked(v)
		*evictions++
	}
	return true
}

// reclaimLocked evicts unconditionally until the budget holds (used after
// an in-place replacement grew an entry; the key is already resident so
// admission does not apply, but it must not blow the budget).
func (s *shard) reclaimLocked(self uint64, force bool, evictions *int64) {
	for s.bytes > s.maxBytes {
		v := s.probation.back()
		if v == nil {
			v = s.protected.back()
		}
		if v == nil || (v.hash == self && !force) {
			return
		}
		s.removeLocked(v)
		*evictions++
		force = false
		// never evict more than the whole shard chasing one oversized
		// replacement; removeLocked shrank bytes, loop re-checks
		if s.probation.len == 0 && s.protected.len == 0 {
			return
		}
	}
}

// removeLocked unlinks n from whichever segment holds it and releases the
// shard's reference to its entry.
func (s *shard) removeLocked(n *node) {
	if n.protected {
		s.protected.remove(n)
		s.protBytes -= n.entry.size
	} else {
		s.probation.remove(n)
	}
	delete(s.items, n.key)
	s.bytes -= n.entry.size
	s.free.release(n.entry)
}

// invalidate removes key, reporting whether an entry was present.
func (s *shard) invalidate(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.items[key]
	if !ok {
		return false
	}
	s.removeLocked(n)
	return true
}

// purgeAll empties the shard, returning how many entries it dropped.
func (s *shard) purgeAll() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := len(s.items)
	for _, n := range s.items {
		n.prev, n.next = nil, nil
		s.free.release(n.entry)
	}
	clear(s.items)
	s.probation.init()
	s.protected.init()
	s.bytes = 0
	s.protBytes = 0
	return dropped
}

// usage returns the shard's entry count and resident bytes.
func (s *shard) usage() (entries int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items), s.bytes
}

// sizeClasses are the body capacities entries are recycled by, ascending.
// Up to 32 KiB they are the Go allocator's own size classes — make
// already rounds a body up to one, so recycling by them costs no memory a
// fresh allocation would not — and past that eight steps per doubling in
// whole 8 KiB pages, up to maxEntryLimit, the largest cacheable body.
var sizeClasses = func() []int {
	classes := []int{
		8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224,
		240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768,
		896, 1024, 1152, 1280, 1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200,
		3456, 4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472, 9728,
		10240, 10880, 12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760,
		24576, 27264, 28672, 32768,
	}
	for base := 32 << 10; base < maxEntryLimit; base <<= 1 {
		step := max(8<<10, base/8)
		for c := base + step; c <= 2*base; c += step {
			classes = append(classes, c)
		}
	}
	return classes
}()

// classOf returns the index of the smallest class holding n bytes, which
// are at most maxEntryLimit.
func classOf(n int) int {
	i, _ := slices.BinarySearch(sizeClasses, n)
	return i
}

// freeLists holds entries whose last reference was released, by size
// class, for the next fill of that class to reuse. It keeps at most max
// bytes of them; a release past that is left to the garbage collector.
type freeLists struct {
	mu    sync.Mutex
	heads []*node // per class, chained through node.next
	bytes int64
	max   int64
}

func newFreeLists(max int64) *freeLists {
	return &freeLists{heads: make([]*node, len(sizeClasses)), max: max}
}

// take pops a spare entry of the class, nil when there is none.
func (f *freeLists) take(class int) *Entry {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.heads[class]
	if n == nil {
		return nil
	}
	f.heads[class], n.next = n.next, nil
	f.bytes -= n.entry.held()
	return n.entry
}

// release drops one reference to e. The last one returns an entry the
// cache allocated to its class's free list; an entry NewEntry built from
// caller bytes is left alone.
func (f *freeLists) release(e *Entry) {
	refs := e.refs.Add(-1)
	if refs < 0 {
		panic("respcache: entry released more often than it was referenced")
	}
	if refs > 0 || e.class < 0 {
		return
	}
	held := e.held()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.bytes+held > f.max {
		return
	}
	n := e.node()
	n.next, f.heads[e.class] = f.heads[e.class], n
	f.bytes += held
}
