package respcache

// Sharded segmented-LRU store. Each shard owns a map plus two intrusive
// recency lists — probation for entries seen once, protected for entries
// hit again — under a per-shard byte budget. Eviction always claims the
// probation tail first, and a candidate only displaces it when the
// frequency sketch says the candidate is the hotter key (TinyLFU
// admission). Protected overflow demotes back to probation rather than
// straight to eviction, which is what gives SLRU its scan resistance.

import "sync"

// node is an intrusive doubly-linked list element in one of the two
// recency segments.
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
	bytes     int64 // bytes used across both segments
	maxBytes  int64
	protBytes int64 // bytes in the protected segment
	protCap   int64
}

func newShard(maxBytes int64, sketchKeys int) *shard {
	s := &shard{
		items:    make(map[string]*node),
		sketch:   newSketch(sketchKeys),
		maxBytes: maxBytes,
		protCap:  int64(float64(maxBytes) * protectedShare),
	}
	s.probation.init()
	s.protected.init()
	return s
}

// get returns the live entry for key, recording the lookup in the
// frequency sketch (for hits and misses both) and adjusting recency: a
// probation hit promotes to protected, a protected hit refreshes
// recency. Entries past the stale horizon are removed and reported as
// absent.
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
	return n.entry
}

// peek returns key's entry, if resident, touching neither the sketch nor
// recency.
func (s *shard) peek(key string) *Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.items[key]; ok {
		return n.entry
	}
	return nil
}

// put inserts or replaces the entry, applying TinyLFU admission when the
// shard is full: the candidate is dropped unless the sketch estimates it
// at least as popular as each probation victim it would evict. Returns
// false when admission rejected the entry.
func (s *shard) put(key string, hash uint64, e *Entry, evictions *int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.items[key]; ok {
		// replacement keeps the node's segment but counts as a touch, so
		// a reclaim triggered by a grown body victimizes colder keys first
		s.bytes += e.size - old.entry.size
		if old.protected {
			s.protBytes += e.size - old.entry.size
			s.protected.moveFront(old)
		} else {
			s.probation.moveFront(old)
		}
		old.entry = e
		s.reclaimLocked(hash, true, evictions)
		return true
	}
	if e.size > s.maxBytes {
		return false
	}
	if !s.reclaimNeededLocked(e.size) {
		// full: admission duel against the probation victim
		if !s.admitLocked(hash, e.size, evictions) {
			return false
		}
	}
	n := &node{key: key, hash: hash, entry: e}
	s.items[key] = n
	s.probation.pushFront(n)
	s.bytes += e.size
	return true
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

// removeLocked unlinks n from whichever segment holds it.
func (s *shard) removeLocked(n *node) {
	if n.protected {
		s.protected.remove(n)
		s.protBytes -= n.entry.size
	} else {
		s.probation.remove(n)
	}
	delete(s.items, n.key)
	s.bytes -= n.entry.size
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
	s.items = make(map[string]*node)
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
