// Package urltable implements the distributor's URL table (§2.2): the data
// structure consulted on every incoming request to find which back-end
// node(s) hold the requested content, plus the content metadata (size,
// class, priority, hit counts) that routing and load-balancing decisions
// read.
//
// Per §5.2 the table is a multi-level hash: each level of the structure
// corresponds to one level of the content tree, so a lookup walks the URL's
// path segments through nested hash maps. The paper fronts the walk with a
// cache of recently accessed entries; here the walk itself is ~0.2 µs, so
// there is none (DESIGN.md §2).
//
// Reads are lock-free: the trie is copy-on-write behind an atomic root
// pointer. Management mutations (§3: insert/delete/rename/replicate) build
// a new root by path-copying the affected spine — everything off the spine
// is shared — and publish it with one atomic swap, serialized by a writer
// mutex. Route therefore takes no lock and scales with distributor cores.
// Published nodes, entries and their location slices are immutable; the
// only mutable cell an entry carries is its hit counter, an atomic shared
// across copies of the same logical entry. See DESIGN.md §2 ("fast path")
// for the invariants.
package urltable

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"webcluster/internal/config"
	"webcluster/internal/content"
)

// Errors returned by table operations.
var (
	// ErrNotFound reports a path with no table entry.
	ErrNotFound = errors.New("urltable: path not found")
	// ErrExists reports an insert of an already-present path.
	ErrExists = errors.New("urltable: path already present")
	// ErrNoLocation reports an entry with no remaining replica.
	ErrNoLocation = errors.New("urltable: entry has no locations")
	// ErrBadPath reports a path that is not absolute.
	ErrBadPath = errors.New("urltable: path must begin with '/'")
)

// Record is an immutable snapshot of one URL-table entry. Locations
// aliases the table's internal slice, which is never mutated after
// publication — callers must treat it as read-only.
type Record struct {
	Path     string
	Size     int64
	Class    content.Class
	Priority int
	// Pinned marks content whose placement is administratively fixed
	// (§4: mutable documents dedicated to one node so consistency can
	// be managed centrally). The auto-replicator never moves pinned
	// content.
	Pinned    bool
	Hits      int64
	Locations []config.NodeID
}

// Dynamic reports whether the record's class requires execution.
func (r Record) Dynamic() bool { return r.Class.Dynamic() }

// HasLocation reports whether node holds a copy.
func (r Record) HasLocation(node config.NodeID) bool {
	for _, loc := range r.Locations {
		if loc == node {
			return true
		}
	}
	return false
}

// entry is the stored form of a record. Published entries are immutable:
// mutations clone the entry (and the trie spine above it) and swap the
// root. The hit counter is a shared pointer so every copy of the same
// logical entry — including ones read before a mutation — counts into
// the same accumulator.
type entry struct {
	path      string
	size      int64
	class     content.Class
	priority  int
	pinned    bool
	hits      *atomic.Int64
	locations []config.NodeID
}

// clone returns a copy sharing the hit counter and location slice; the
// caller replaces whichever field it is mutating.
func (e *entry) clone() *entry {
	return &entry{
		path:      e.path,
		size:      e.size,
		class:     e.class,
		priority:  e.priority,
		pinned:    e.pinned,
		hits:      e.hits,
		locations: e.locations,
	}
}

// record snapshots the entry. The location slice is aliased, not copied:
// published entries never mutate it (AddLocation/RemoveLocation build a
// fresh slice on a fresh entry).
func (e *entry) record() Record {
	return Record{
		Path:      e.path,
		Size:      e.size,
		Class:     e.class,
		Priority:  e.priority,
		Pinned:    e.pinned,
		Hits:      e.hits.Load(),
		Locations: e.locations,
	}
}

// node is one level of the multi-level hash. A node may simultaneously be
// an interior directory and hold a leaf entry (e.g. /docs and /docs/a.html).
// Published nodes are immutable; mutations clone the affected spine.
type node struct {
	children map[string]*node
	leaf     *entry
}

// cloneNode returns a shallow copy of n with its own children map, the
// path-copy step of every mutation.
func cloneNode(n *node) *node {
	nn := &node{leaf: n.leaf}
	if len(n.children) > 0 {
		nn.children = make(map[string]*node, len(n.children))
		for k, v := range n.children {
			nn.children[k] = v
		}
	}
	return nn
}

// Per-entry and per-node bookkeeping constants for the memory footprint
// estimate reported by the §5.2 experiment. The constants approximate Go
// runtime overheads: map header+bucket share, string headers, slice
// headers, and the entry struct itself.
const (
	entryOverheadBytes    = 96
	locationBytes         = 24
	interiorOverheadBytes = 64
)

// stripeCount is the number of cache-line-padded stripes in the hot
// counters; must be a power of two.
const stripeCount = 16

// stripedCounter spreads increments across padded stripes indexed by the
// request's path hash, so the counters the read path bumps on every route
// don't put every core on one contended cache line. load sums the stripes
// and is exact once concurrent writers quiesce.
type stripedCounter struct {
	stripes [stripeCount]struct {
		v atomic.Int64
		_ [56]byte // pad to a cache line so stripes don't false-share
	}
}

func (c *stripedCounter) add(h uint32, d int64) {
	c.stripes[h&(stripeCount-1)].v.Add(d)
}

func (c *stripedCounter) load() int64 {
	var total int64
	for i := range c.stripes {
		total += c.stripes[i].v.Load()
	}
	return total
}

// fnv32 is FNV-1a over the path bytes, shared by the counter stripes.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// Table is the URL table. The zero value is not usable; construct with New.
type Table struct {
	// root is the current published trie; readers Load it once and walk
	// an immutable snapshot.
	root atomic.Pointer[node]
	// writeMu serializes mutators (management operations are rare; reads
	// never take it).
	writeMu sync.Mutex

	size     atomic.Int64
	memBytes atomic.Int64

	lookups    stripedCounter
	walkDepths stripedCounter // summed segment counts, for diagnostics
}

// Options configures table construction.
type Options struct {
	// CacheEntries is ignored.
	//
	// Deprecated: it sized the recently-accessed-entry cache, which was
	// deleted (parity single-threaded, 2.3× slower in parallel). The field
	// stays because the frozen benchmark harness (bench/walk.go) sets it.
	CacheEntries int
}

// New returns an empty table.
func New(Options) *Table {
	t := &Table{}
	t.root.Store(&node{})
	return t
}

// splitPath slices an absolute URL path into segments, ignoring empty
// segments from duplicate slashes. Mutators use it; the read path walks
// the string in place (findPath) to avoid the allocation.
func splitPath(p string) ([]string, error) {
	if !strings.HasPrefix(p, "/") {
		return nil, fmt.Errorf("%w: %q", ErrBadPath, p)
	}
	raw := strings.Split(p[1:], "/")
	segs := raw[:0]
	for _, s := range raw {
		if s != "" {
			segs = append(segs, s)
		}
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("%w: %q has no segments", ErrBadPath, p)
	}
	return segs, nil
}

// findPath walks root to the entry for path without allocating, segmenting
// it in place; a []byte path indexes the maps without a string copy. It
// returns the entry (nil when absent) and the number of segments walked,
// 0 for a non-absolute or empty path.
func findPath[P string | []byte](root *node, path P) (*entry, int) {
	if len(path) == 0 || path[0] != '/' {
		return nil, 0
	}
	cur := root
	depth := 0
	for start, i := 1, 1; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			continue
		}
		if i > start {
			depth++
			if cur != nil {
				cur = cur.children[string(path[start:i])]
			}
		}
		start = i + 1
	}
	if cur == nil || depth == 0 {
		return nil, depth
	}
	return cur.leaf, depth
}

// findSegs walks root by pre-split segments (the mutator path).
func findSegs(root *node, segs []string) *entry {
	cur := root
	for _, seg := range segs {
		next, ok := cur.children[seg]
		if !ok {
			return nil
		}
		cur = next
	}
	return cur.leaf
}

// insertAt returns a new root with e stored at segs, sharing every node
// off the walked spine with the old root. memDelta counts interior nodes
// created. ok is false when a leaf already exists at segs.
func insertAt(root *node, segs []string, e *entry) (newRoot *node, memDelta int64, ok bool) {
	newRoot = cloneNode(root)
	cur := newRoot
	for _, seg := range segs {
		var next *node
		if child, exists := cur.children[seg]; exists {
			next = cloneNode(child)
		} else {
			next = &node{}
			memDelta += interiorOverheadBytes + int64(len(seg))
		}
		if cur.children == nil {
			cur.children = make(map[string]*node, 4)
		}
		cur.children[seg] = next
		cur = next
	}
	if cur.leaf != nil {
		return nil, 0, false
	}
	cur.leaf = e
	return newRoot, memDelta, true
}

// removeAt returns a new root with the leaf at segs removed and now-empty
// interior nodes pruned. memDelta is the (negative) footprint change. ok
// is false when no leaf exists at segs.
func removeAt(root *node, segs []string) (newRoot *node, removed *entry, memDelta int64, ok bool) {
	newRoot = cloneNode(root)
	spine := make([]*node, 0, len(segs)+1)
	spine = append(spine, newRoot)
	cur := newRoot
	for _, seg := range segs {
		child, exists := cur.children[seg]
		if !exists {
			return nil, nil, 0, false
		}
		next := cloneNode(child)
		cur.children[seg] = next
		cur = next
		spine = append(spine, next)
	}
	if cur.leaf == nil {
		return nil, nil, 0, false
	}
	removed = cur.leaf
	memDelta -= entryOverheadBytes + int64(len(removed.path)) +
		int64(len(removed.locations))*locationBytes
	cur.leaf = nil
	for i := len(segs) - 1; i >= 0; i-- {
		child := spine[i+1]
		if child.leaf != nil || len(child.children) > 0 {
			break
		}
		delete(spine[i].children, segs[i])
		memDelta -= interiorOverheadBytes + int64(len(segs[i]))
	}
	return newRoot, removed, memDelta, true
}

// replaceAt returns a new root with e substituted for the existing leaf at
// segs. The caller must have verified the leaf exists under this root.
func replaceAt(root *node, segs []string, e *entry) *node {
	newRoot := cloneNode(root)
	cur := newRoot
	for _, seg := range segs {
		next := cloneNode(cur.children[seg])
		cur.children[seg] = next
		cur = next
	}
	cur.leaf = e
	return newRoot
}

// Insert adds a new entry for obj placed at locations. The object's path
// must not already be present.
func (t *Table) Insert(obj content.Object, locations ...config.NodeID) error {
	segs, err := splitPath(obj.Path)
	if err != nil {
		return err
	}
	e := &entry{
		path:      obj.Path,
		size:      obj.Size,
		class:     obj.Class,
		priority:  obj.Priority,
		hits:      new(atomic.Int64),
		locations: append([]config.NodeID(nil), locations...),
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	newRoot, memDelta, ok := insertAt(t.root.Load(), segs, e)
	if !ok {
		return fmt.Errorf("%w: %q", ErrExists, obj.Path)
	}
	memDelta += entryOverheadBytes + int64(len(obj.Path)) +
		int64(len(locations))*locationBytes
	t.root.Store(newRoot)
	t.size.Add(1)
	t.memBytes.Add(memDelta)
	return nil
}

// lookupEntry resolves path to its stored entry by a lock-free walk of
// the current root, so a mutation that has returned is visible to the very
// next lookup.
func (t *Table) lookupEntry(path string) (*entry, error) {
	h := fnv32(path)
	t.lookups.add(h, 1)
	e, depth := findPath(t.root.Load(), path)
	if depth == 0 {
		if !strings.HasPrefix(path, "/") {
			return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
		}
		return nil, fmt.Errorf("%w: %q has no segments", ErrBadPath, path)
	}
	t.walkDepths.add(h, int64(depth))
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	return e, nil
}

// PlacedPath returns the path string of the entry whose path is
// byte-for-byte target, and false when there is none — including a target
// that only routes to an entry, with a doubled or trailing '/' or a query.
// The string is the entry's own (immutable, already on the heap), so a
// request parser can adopt it instead of copying target. PlacedPath walks
// the current root lock-free and counts nothing: no hit, no lookup.
func (t *Table) PlacedPath(target []byte) (string, bool) {
	e, _ := findPath(t.root.Load(), target)
	if e == nil || e.path != string(target) {
		return "", false
	}
	return e.path, true
}

// Hint is an empty placeholder.
//
// Deprecated: it was a per-connection memo of the last route, which almost
// never hit and cost more than the walk it saved. The type stays because
// the frozen benchmark harness (bench/walk.go) declares one.
type Hint struct{}

// RouteHinted is Route; the hint is unused.
//
// Deprecated: call Route. The method stays because the frozen benchmark
// harness (bench/walk.go) times it.
func (t *Table) RouteHinted(path string, _ *Hint) (Record, error) {
	return t.Route(path)
}

// Lookup returns the record for path without counting a hit.
func (t *Table) Lookup(path string) (Record, error) {
	e, err := t.lookupEntry(path)
	if err != nil {
		return Record{}, err
	}
	return e.record(), nil
}

// Route resolves path for request routing: it increments the entry's hit
// counter (the access-frequency input to §3.3 load balancing) and returns
// the snapshot. Route takes no lock.
func (t *Table) Route(path string) (Record, error) {
	e, err := t.lookupEntry(path)
	if err != nil {
		return Record{}, err
	}
	e.hits.Add(1)
	return e.record(), nil
}

// Remove deletes the entry at path, pruning now-empty interior nodes.
func (t *Table) Remove(path string) error {
	segs, err := splitPath(path)
	if err != nil {
		return err
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	newRoot, _, memDelta, ok := removeAt(t.root.Load(), segs)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	t.root.Store(newRoot)
	t.size.Add(-1)
	t.memBytes.Add(memDelta)
	return nil
}

// Rename moves the entry at oldPath to newPath, preserving metadata, hit
// count and locations. Both the insert and the delete land in one atomic
// root swap: no reader ever observes the table without exactly one of the
// two paths.
func (t *Table) Rename(oldPath, newPath string) error {
	oldSegs, err := splitPath(oldPath)
	if err != nil {
		return err
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	root := t.root.Load()
	e := findSegs(root, oldSegs)
	if e == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, oldPath)
	}
	newSegs, err := splitPath(newPath)
	if err != nil {
		return fmt.Errorf("rename to %q: %w", newPath, err)
	}
	ne := e.clone()
	ne.path = newPath
	r1, insDelta, ok := insertAt(root, newSegs, ne)
	if !ok {
		return fmt.Errorf("rename to %q: %w: %q", newPath, ErrExists, newPath)
	}
	r2, _, remDelta, ok := removeAt(r1, oldSegs)
	if !ok {
		return fmt.Errorf("rename from %q: %w", oldPath, ErrNotFound)
	}
	insDelta += entryOverheadBytes + int64(len(newPath)) +
		int64(len(ne.locations))*locationBytes
	t.root.Store(r2)
	t.memBytes.Add(insDelta + remDelta)
	return nil
}

// mutateEntry applies fn to a clone of path's entry and publishes the
// result, the shared shape of every entry-level mutation.
func (t *Table) mutateEntry(path string, fn func(*entry) error) error {
	segs, err := splitPath(path)
	if err != nil {
		return err
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	root := t.root.Load()
	e := findSegs(root, segs)
	if e == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	ne := e.clone()
	if err := fn(ne); err != nil {
		return err
	}
	t.root.Store(replaceAt(root, segs, ne))
	return nil
}

// AddLocation registers node as an additional replica holder for path.
// Adding an existing location is a no-op.
func (t *Table) AddLocation(path string, node config.NodeID) error {
	return t.mutateEntry(path, func(ne *entry) error {
		for _, loc := range ne.locations {
			if loc == node {
				return nil
			}
		}
		locs := make([]config.NodeID, len(ne.locations)+1)
		copy(locs, ne.locations)
		locs[len(locs)-1] = node
		ne.locations = locs
		t.memBytes.Add(locationBytes)
		return nil
	})
}

// RemoveLocation drops node from path's replica set. Removing the last
// location fails with ErrNoLocation: content must live somewhere.
func (t *Table) RemoveLocation(path string, node config.NodeID) error {
	return t.mutateEntry(path, func(ne *entry) error {
		idx := -1
		for i, loc := range ne.locations {
			if loc == node {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("%w: %q not at %s", ErrNotFound, path, node)
		}
		if len(ne.locations) == 1 {
			return fmt.Errorf("%w: %q", ErrNoLocation, path)
		}
		locs := make([]config.NodeID, 0, len(ne.locations)-1)
		locs = append(locs, ne.locations[:idx]...)
		locs = append(locs, ne.locations[idx+1:]...)
		ne.locations = locs
		t.memBytes.Add(-locationBytes)
		return nil
	})
}

// SetSize updates the content length recorded for path's entry, after an
// update has replaced the bytes on every replica.
func (t *Table) SetSize(path string, size int64) error {
	return t.mutateEntry(path, func(ne *entry) error {
		ne.size = size
		return nil
	})
}

// SetPriority updates the priority of path's entry.
func (t *Table) SetPriority(path string, priority int) error {
	return t.mutateEntry(path, func(ne *entry) error {
		ne.priority = priority
		return nil
	})
}

// SetPinned marks or unmarks path's placement as administratively fixed.
func (t *Table) SetPinned(path string, pinned bool) error {
	return t.mutateEntry(path, func(ne *entry) error {
		ne.pinned = pinned
		return nil
	})
}

// ResetHits zeroes every entry's hit counter, starting a new accounting
// interval for the load balancer. Counters are shared across entry copies,
// so resetting the current snapshot resets every copy.
func (t *Table) ResetHits() {
	walkNodes(t.root.Load(), func(e *entry) { e.hits.Store(0) })
}

// Walk invokes fn for a snapshot of every entry, in unspecified order. The
// walk runs over one immutable root: concurrent mutations affect neither
// coverage nor safety.
func (t *Table) Walk(fn func(Record)) {
	walkNodes(t.root.Load(), func(e *entry) { fn(e.record()) })
}

// walkNodes visits every leaf entry below n.
func walkNodes(n *node, fn func(*entry)) {
	if n.leaf != nil {
		fn(n.leaf)
	}
	for _, child := range n.children {
		walkNodes(child, fn)
	}
}

// EntriesAt returns snapshots of all entries replicated on node, sorted by
// descending hits (hottest first), the order the offloader inspects them.
func (t *Table) EntriesAt(node config.NodeID) []Record {
	var out []Record
	t.Walk(func(r Record) {
		if r.HasLocation(node) {
			out = append(out, r)
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// Len returns the number of entries.
func (t *Table) Len() int {
	return int(t.size.Load())
}

// MemoryBytes returns the estimated resident size of the table, the
// quantity the §5.2 experiment reports (~260 KB for ~8700 objects in the
// paper's C implementation).
func (t *Table) MemoryBytes() int64 {
	return t.memBytes.Load()
}

// Stats reports table counters.
type Stats struct {
	Lookups int64
	// CacheHits is always 0.
	//
	// Deprecated: it counted entry-cache hits; the cache was deleted. The
	// field stays because the frozen benchmark harness (bench/walk.go)
	// reads it.
	CacheHits int64
	Entries   int
	MemBytes  int64
}

// Stats returns a snapshot of table counters.
func (t *Table) Stats() Stats {
	return Stats{
		Lookups:  t.lookups.load(),
		Entries:  int(t.size.Load()),
		MemBytes: t.memBytes.Load(),
	}
}
