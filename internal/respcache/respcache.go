// Package respcache is the distributor-side hot-content cache: a sharded
// segmented-LRU response store with size-aware TinyLFU frequency
// admission, singleflight miss coalescing, and explicit management-plane
// invalidation.
//
// The paper's content-aware front end (§2.2) relays every request to a
// back end, so even the hottest static objects pay a full backend round
// trip. This package lets the distributor answer cacheable GET/HEAD
// requests itself: responses are stored under a byte budget, admission is
// gated on a count-min frequency sketch, weighed against every victim a
// candidate's bytes displace, so one-hit-wonders cannot evict hot objects
// and one large body cannot evict many small hot ones, concurrent misses
// on one path coalesce into a single backend fetch, and every management-plane mutation that changes content
// or placement synchronously purges the affected entries — the cache
// never serves what the doctree no longer holds. Expired entries remain
// usable for conditional revalidation and, within a stale window, for
// stale-on-error service when every replica of a path is down.
package respcache

import (
	"sync"
	"sync/atomic"
	"time"

	"webcluster/internal/httpx"
)

// State classifies a lookup result.
type State int

const (
	// Miss: no usable entry; the caller must fetch from a back end.
	Miss State = iota
	// Fresh: the entry is within its freshness lifetime and may be
	// served without contacting a back end.
	Fresh
	// Stale: the entry's freshness lapsed but it is within the stale
	// window — usable as a revalidation base and for stale-on-error.
	Stale
)

func (s State) String() string {
	switch s {
	case Fresh:
		return "fresh"
	case Stale:
		return "stale"
	default:
		return "miss"
	}
}

// entryOverhead approximates per-entry bookkeeping (the entry itself with
// its list node, the map slot, its few short header strings) charged
// against the byte budget on top of the body's capacity.
const entryOverhead = 256

// charge is what an entry whose body has capacity bodyCap weighs against
// the byte budget, resident or on a free list. Admits weighs a body's
// charge before it is read and Put the filled entry's, so the two agree.
func charge(bodyCap int) int64 { return int64(bodyCap) + entryOverhead }

// Entry is one cached response. The Stored payload and its size are
// immutable once the entry is published; freshness fields are atomics so
// a revalidation can extend an entry's life while other goroutines serve
// from it.
//
// Every pointer to an entry the cache hands out is a counted reference:
// Get, Peek, Flight.Wait and AcquireEntry each return one, and its holder
// gives it back with Release after its last use of the entry. The cache
// holds one more of its own while the entry is resident. The last release
// of an entry AcquireEntry allocated returns its memory — body, strings
// slot, list node — to the free list of its size class, where the next
// fill of that class picks it up. A reference never released only leaves
// the entry to the garbage collector, so a forgotten Release costs
// garbage, never wrong bytes; a Release too early or twice does risk
// them, which is why distlint's pooledescape tracks entry references like
// pooled values.
//
// distlint:cow — entries are shared snapshots once published; the
// cowdiscipline analyzer rejects field assignments through them
// (freshness updates go through the atomic setters, recycling through
// Entry's own methods).
//
// distlint:refcounted — every *Entry a call returns is a reference that
// pooledescape holds to one Release, after its last use, on every path.
type Entry struct {
	Stored httpx.Stored
	// storedAt is the unix-nano time the response was stored or last
	// successfully revalidated; Age is measured from it.
	storedAt atomic.Int64
	// expires is the unix-nano end of the freshness lifetime.
	expires atomic.Int64
	size    int64
	refs    atomic.Int64
	// class indexes sizeClasses for an entry AcquireEntry allocated; -1
	// marks NewEntry's, which is never recycled.
	class int
	elem  node
}

// NewEntry builds an entry from a stored response, fresh for ttl from now.
// The entry keeps the caller's bytes and is never recycled: the caller
// holds one reference and may Release it or simply drop the entry.
func NewEntry(s httpx.Stored, now time.Time, ttl time.Duration) *Entry {
	e := &Entry{class: -1}
	e.elem.entry = e
	e.refs.Store(1)
	e.seal(s, now, ttl)
	return e
}

// Fill stamps an entry from AcquireEntry, whose Stored.Body the caller
// has read the response into, with the response's status and header
// fields (st.Body is ignored) and starts its freshness lifetime at now.
// It is the last write before the entry is published with Put or shared
// through a Flight.
func (e *Entry) Fill(st httpx.Stored, now time.Time, ttl time.Duration) {
	st.Body = e.Stored.Body
	e.seal(st, now, ttl)
}

func (e *Entry) seal(s httpx.Stored, now time.Time, ttl time.Duration) {
	e.Stored = s
	e.size = charge(cap(s.Body))
	e.storedAt.Store(now.UnixNano())
	e.expires.Store(now.Add(ttl).UnixNano())
}

// open readies a spare entry for a fill of n bytes, with one reference
// for the caller.
func (e *Entry) open(n int) {
	e.Stored.Body = e.Stored.Body[:n]
	e.refs.Store(1)
}

// node is the entry's list element.
func (e *Entry) node() *node { return &e.elem }

// link names the entry's list element for key before it is linked.
func (e *Entry) link(key string, hash uint64) *node {
	e.elem.key, e.elem.hash = key, hash
	return &e.elem
}

// held is what the entry's memory weighs on a free list.
func (e *Entry) held() int64 { return charge(cap(e.Stored.Body)) }

// AgeSeconds is the RFC 7234 Age of the entry at now: seconds since it
// was stored or last revalidated.
func (e *Entry) AgeSeconds(now time.Time) int64 {
	age := (now.UnixNano() - e.storedAt.Load()) / int64(time.Second)
	if age < 0 {
		age = 0
	}
	return age
}

// Size is the budget charge for this entry: its body's capacity and a
// fixed overhead.
func (e *Entry) Size() int64 { return e.size }

// Options configures a Cache.
type Options struct {
	// MaxBytes is the total byte budget across shards (default 64 MiB),
	// charged by what resident entries hold. Released entries kept for
	// reuse add at most an eighth of it, or two MaxEntryBytes bodies if
	// that is more.
	MaxBytes int64
	// Shards is the shard count, rounded up to a power of two
	// (default 8).
	Shards int
	// FreshTTL is how long a stored response serves without
	// revalidation (default 5s).
	FreshTTL time.Duration
	// StaleTTL is how long past expiry an entry remains usable for
	// revalidation and stale-on-error (default 30s).
	StaleTTL time.Duration
	// MaxEntryBytes caps a single cacheable body (default and at most
	// 1 MiB, the largest size class entries are recycled by).
	MaxEntryBytes int64
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Revalidated   int64 `json:"revalidated"`
	StaleServed   int64 `json:"staleServed"`
	NotModified   int64 `json:"notModified"`
	Coalesced     int64 `json:"coalesced"`
	Fills         int64 `json:"fills"`
	Rejected      int64 `json:"rejected"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	MaxBytes      int64 `json:"maxBytes"`
}

// Cache is the distributor-side response cache. All methods are safe for
// concurrent use.
type Cache struct {
	shards    []*shard
	shardMask uint64
	opts      Options
	free      *freeLists

	flightMu sync.Mutex
	flights  map[string]*Flight
	spare    *Flight // finished flights no follower saw, for reuse

	hits          atomic.Int64
	misses        atomic.Int64
	revalidated   atomic.Int64
	staleServed   atomic.Int64
	notModified   atomic.Int64
	coalesced     atomic.Int64
	fills         atomic.Int64
	rejected      atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

// New builds a cache; zero option fields take the documented defaults.
func New(opts Options) *Cache {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 64 << 20
	}
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	shards := 1
	for shards < opts.Shards {
		shards <<= 1
	}
	if opts.FreshTTL <= 0 {
		opts.FreshTTL = 5 * time.Second
	}
	if opts.StaleTTL <= 0 {
		opts.StaleTTL = 30 * time.Second
	}
	if opts.MaxEntryBytes <= 0 || opts.MaxEntryBytes > maxEntryLimit {
		opts.MaxEntryBytes = maxEntryLimit
	}
	if opts.MaxEntryBytes > opts.MaxBytes {
		opts.MaxEntryBytes = opts.MaxBytes
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	c := &Cache{
		shards:    make([]*shard, shards),
		shardMask: uint64(shards - 1),
		opts:      opts,
		free:      newFreeLists(max(opts.MaxBytes/freeShare, 2*opts.MaxEntryBytes)),
		flights:   make(map[string]*Flight),
	}
	perShard := opts.MaxBytes / int64(shards)
	// size each sketch for the number of small entries the shard could
	// hold (1 KiB per object): admission ranks the tail it evicts, so the
	// sketch must tell those keys apart, not only the hot ones
	sketchKeys := int(perShard / 1024)
	for i := range c.shards {
		c.shards[i] = newShard(perShard, sketchKeys, c.free)
	}
	return c
}

// maxEntryLimit is the default and largest MaxEntryBytes.
const maxEntryLimit = 1 << 20

// freeShare is the fraction of MaxBytes, as a divisor, that released
// entries kept for reuse may hold — or room for two of the largest
// cacheable bodies, if that is more, so a small cache recycles too.
const freeShare = 8

// hashKey is FNV-1a over the path.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return h
}

func (c *Cache) shardFor(h uint64) *shard {
	// fold the high bits in so shard index and sketch rows (which use
	// the low bits) stay decorrelated
	return c.shards[(h^h>>32)&c.shardMask]
}

// Now returns the cache clock's current time.
func (c *Cache) Now() time.Time { return c.opts.Clock() }

// FreshFor returns the configured freshness lifetime.
func (c *Cache) FreshFor() time.Duration { return c.opts.FreshTTL }

// MaxEntryBytes returns the per-entry body cap.
func (c *Cache) MaxEntryBytes() int64 { return c.opts.MaxEntryBytes }

// Get looks the path up, recording the access in the frequency sketch
// either way, and classifies the result by freshness at the cache clock.
// A non-nil entry is a reference the caller releases.
func (c *Cache) Get(path string) (*Entry, State) {
	h := hashKey(path)
	now := c.opts.Clock().UnixNano()
	e := c.shardFor(h).get(path, h, now, int64(c.opts.StaleTTL))
	if e == nil {
		c.misses.Add(1)
		return nil, Miss
	}
	if now <= e.expires.Load() {
		c.hits.Add(1)
		return e, Fresh
	}
	return e, Stale
}

// Peek returns path's entry if it is fresh, recording nothing: no hit or
// miss, no sketch bump, no recency change. A miss leader's double-check
// uses it, so the request its Get already counted is not counted twice.
// A non-nil entry is a reference the caller releases.
func (c *Cache) Peek(path string) *Entry {
	h := hashKey(path)
	return c.shardFor(h).peek(path, c.opts.Clock().UnixNano())
}

// Admits reports whether Put would now store a fresh body of
// contentLength bytes for path, so a miss leader can relay a body the
// cache would refuse instead of buffering it. It applies Put's rule under
// the shard lock and evicts nothing, weighing the charge Put will: that of
// the body's size class. A refusal counts as rejected, as Put's does.
func (c *Cache) Admits(path string, contentLength int64) bool {
	if contentLength <= c.opts.MaxEntryBytes {
		h := hashKey(path)
		if c.shardFor(h).admits(path, h, charge(sizeClasses[classOf(int(contentLength))])) {
			return true
		}
	}
	c.rejected.Add(1)
	return false
}

// Put stores the entry for path, subject to size and frequency admission.
// Returns whether the entry is resident afterwards. Storing an entry that
// is already resident under path does nothing and counts no fill; a
// rejected entry stays the caller's, to release like any other reference.
func (c *Cache) Put(path string, e *Entry) bool {
	if int64(len(e.Stored.Body)) > c.opts.MaxEntryBytes {
		c.rejected.Add(1)
		return false
	}
	h := hashKey(path)
	var ev int64
	res := c.shardFor(h).put(path, h, e, &ev)
	c.evictions.Add(ev)
	switch res {
	case putInserted:
		c.fills.Add(1)
	case putRejected:
		c.rejected.Add(1)
	}
	return res != putRejected
}

// AcquireEntry returns an unpublished entry whose Stored.Body is n bytes
// long, n at most MaxEntryBytes, for the caller to read a response body
// into and Fill. Its memory is a spare of n's size class when the free
// lists hold one. The caller holds the entry's one reference.
func (c *Cache) AcquireEntry(n int) *Entry {
	if int64(n) > c.opts.MaxEntryBytes {
		panic("respcache: AcquireEntry past MaxEntryBytes")
	}
	class := classOf(n)
	if e := c.free.take(class); e != nil {
		e.open(n)
		return e
	}
	e := &Entry{class: class}
	e.elem.entry = e
	e.Stored.Body = make([]byte, n, sizeClasses[class])
	e.refs.Store(1)
	return e
}

// Release gives back one reference to e (nil is a no-op). The last
// release of an entry AcquireEntry allocated recycles its memory, so the
// caller must not touch e afterwards.
func (c *Cache) Release(e *Entry) {
	if e != nil {
		c.free.release(e)
	}
}

// Refresh extends e's freshness lifetime from now (a 304 revalidation
// confirmed the stored body is still current).
func (c *Cache) Refresh(e *Entry) {
	now := c.opts.Clock()
	e.storedAt.Store(now.UnixNano())
	e.expires.Store(now.Add(c.opts.FreshTTL).UnixNano())
	c.revalidated.Add(1)
}

// Invalidate removes the entry for path and dooms any in-flight fetch so
// a response read before the mutation can never be stored after it.
// Returns the number of entries dropped (0 or 1).
func (c *Cache) Invalidate(path string) int {
	c.invalidations.Add(1)
	c.flightMu.Lock()
	defer c.flightMu.Unlock()
	if f, ok := c.flights[path]; ok {
		f.doomed.Store(true)
		// detach so post-purge requesters start a clean fetch instead
		// of adopting the doomed flight's pre-mutation response
		delete(c.flights, path)
	}
	// the shard removal stays under flightMu so it serializes against
	// Finish's doomed-check-then-store: either Finish stored first and the
	// entry is removed here, or the doom is visible and Finish skips the
	// store — a purged body can never be re-inserted afterwards
	h := hashKey(path)
	if c.shardFor(h).invalidate(path) {
		return 1
	}
	return 0
}

// InvalidateAll empties the cache (console `purge *`), dooming every
// in-flight fetch. Returns the number of entries dropped.
func (c *Cache) InvalidateAll() int {
	c.invalidations.Add(1)
	c.flightMu.Lock()
	defer c.flightMu.Unlock()
	for path, f := range c.flights {
		f.doomed.Store(true)
		delete(c.flights, path)
	}
	dropped := 0
	for _, s := range c.shards {
		dropped += s.purgeAll()
	}
	return dropped
}

// CountStale records one stale-on-error service.
func (c *Cache) CountStale() { c.staleServed.Add(1) }

// CountNotModified records one 304 served to a client conditional.
func (c *Cache) CountNotModified() { c.notModified.Add(1) }

// Stats snapshots the counters and current residency.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Revalidated:   c.revalidated.Load(),
		StaleServed:   c.staleServed.Load(),
		NotModified:   c.notModified.Load(),
		Coalesced:     c.coalesced.Load(),
		Fills:         c.fills.Load(),
		Rejected:      c.rejected.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		MaxBytes:      c.opts.MaxBytes,
	}
	for _, s := range c.shards {
		n, b := s.usage()
		st.Entries += n
		st.Bytes += b
	}
	return st
}

// Flight is one coalesced backend fetch. The leader performs the fetch
// and calls Finish; followers block in Wait and share the result. An
// Invalidate racing the fetch dooms the flight: its response is still
// returned to the requesters that were already waiting (it was valid when
// they asked) but it is not stored, and the flight is detached so later
// requesters refetch.
//
// An uncontended flight costs no allocation: the wake-up channel is made
// when the first follower joins, and a flight no follower joined is
// reused by a later BeginFlight once its leader has finished it.
type Flight struct {
	c       *Cache
	key     string
	done    chan struct{} // nil until a follower joins
	waiters int64         // followers joined, under flightMu
	doomed  atomic.Bool
	entry   *Entry
	err     error
	next    *Flight // Cache.spare chain
}

// BeginFlight joins or creates the in-flight fetch for path. leader is
// true when the caller created the flight and must Finish it; a follower
// must Wait on it once.
func (c *Cache) BeginFlight(path string) (f *Flight, leader bool) {
	c.flightMu.Lock()
	defer c.flightMu.Unlock()
	if f, ok := c.flights[path]; ok {
		c.coalesced.Add(1)
		if f.done == nil {
			f.done = make(chan struct{})
		}
		f.waiters++
		return f, false
	}
	if f = c.spare; f != nil {
		c.spare, f.next = f.next, nil
		f.key, f.done, f.waiters, f.entry, f.err = path, nil, 0, nil, nil
		f.doomed.Store(false)
	} else {
		f = &Flight{c: c, key: path}
	}
	c.flights[path] = f
	return f, true
}

// Doomed reports whether an invalidation raced this flight.
func (f *Flight) Doomed() bool { return f.doomed.Load() }

// Finish resolves the flight: detaches it, stores the entry (unless the
// flight was doomed or errored, or the entry is already resident — a
// revalidated or double-checked entry the leader found in the cache is
// not a new fill), hands each follower a reference to it and wakes them.
// Exactly one call, by the leader, which keeps its own reference to e and
// must not use f afterwards.
func (f *Flight) Finish(e *Entry, err error) {
	c := f.c
	f.entry, f.err = e, err
	c.flightMu.Lock()
	// an Invalidate may already have detached us; only remove our own
	// registration, never a successor flight
	if cur, ok := c.flights[f.key]; ok && cur == f {
		delete(c.flights, f.key)
	}
	// doomed-check and store happen under flightMu, which Invalidate also
	// holds across its doom+remove: the two are serialized, so a response
	// read before a purge cannot land in the cache after it
	if e != nil && err == nil && !f.doomed.Load() {
		c.Put(f.key, e)
	}
	// detached, so no follower can join any more: the count is final
	if e != nil {
		e.refs.Add(f.waiters)
	}
	done := f.done
	if done == nil {
		// no follower reads the result, and a spare must not keep an
		// entry reachable outside the budget and the free lists
		f.entry, f.err = nil, nil
		f.next, c.spare = c.spare, f
	}
	c.flightMu.Unlock()
	if done != nil {
		close(done)
	}
}

// Wait blocks until the leader finishes and returns the shared result. A
// non-nil entry is the follower's own reference, to release.
func (f *Flight) Wait() (*Entry, error) {
	if f.done != nil {
		<-f.done
	}
	return f.entry, f.err
}
