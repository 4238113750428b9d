// Package ring is the fixed-memory record store the telemetry span ring
// and the decision journal share, and the ID source that numbers their
// spans and incidents.
package ring

import (
	"sync"
	"sync/atomic"
)

// Ring keeps the newest Cap() values put into it, overwriting the oldest.
// A writer claims a sequence number with one atomic increment and copies
// its value into that number's slot under the slot's mutex; a snapshot
// copies out under the same mutex, so no reader sees a torn value. All
// memory is allocated by New, and Put allocates nothing.
type Ring[T any] struct {
	mask  uint64
	seq   atomic.Uint64
	slots []slot[T]
}

type slot[T any] struct {
	mu sync.Mutex
	// seq numbers the value held; 0 while the slot is empty.
	seq uint64
	v   T
}

// New returns a ring that holds the newest n values, n rounded up to a
// power of two.
func New[T any](n int) *Ring[T] {
	size := 1
	for size < n {
		size <<= 1
	}
	return &Ring[T]{mask: uint64(size - 1), slots: make([]slot[T], size)}
}

// Next claims the next sequence number, 1 for the first value. The caller
// stamps it where it needs it and hands it to Put.
func (r *Ring[T]) Next() uint64 { return r.seq.Add(1) }

// Put copies *v into the slot of seq, a number Next returned. A writer
// that lost a whole lap to faster ones leaves the newer value in place.
func (r *Ring[T]) Put(seq uint64, v *T) {
	s := &r.slots[(seq-1)&r.mask]
	s.mu.Lock()
	if seq > s.seq {
		s.seq, s.v = seq, *v
	}
	s.mu.Unlock()
}

// Claimed is how many sequence numbers Next has handed out.
func (r *Ring[T]) Claimed() uint64 { return r.seq.Load() }

// Cap is how many values the ring holds once full.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Snapshot returns up to limit of the newest values, newest first; limit
// <= 0 means all the ring holds. A slot whose writer has not finished, or
// that a writer refilled during the walk, is left out, so the values come
// back in strictly descending sequence order.
func (r *Ring[T]) Snapshot(limit int) []T {
	head := r.seq.Load()
	n := uint64(len(r.slots))
	if head < n {
		n = head
	}
	if limit <= 0 || uint64(limit) > n {
		limit = int(n)
	}
	out := make([]T, 0, limit)
	for seq := head; seq > head-n && len(out) < limit; seq-- {
		s := &r.slots[(seq-1)&r.mask]
		s.mu.Lock()
		if s.seq == seq {
			out = append(out, s.v)
		}
		s.mu.Unlock()
	}
	return out
}

// IDs hands out non-zero, well-distributed 64-bit IDs: the SplitMix64
// output function over a counter started at Seed. It is safe for
// concurrent use.
type IDs struct {
	Seed uint64
	n    atomic.Uint64
}

// Next returns the next ID.
func (g *IDs) Next() uint64 {
	if id := splitmix64(g.Seed + g.n.Add(1)); id != 0 {
		return id
	}
	return 1
}

// splitmix64 is one multiply-xor-shift chain that turns a sequential
// counter into a well-distributed 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
