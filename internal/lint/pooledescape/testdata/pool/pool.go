// Package pool is the helper side of the pooledescape cross-package
// fixture. Lease and Recycle deliberately avoid the Acquire*/Release*
// spellings the pre-v2 engine keyed on: that engine only recognized
// acquisitions written Acquire*/pool.Get and releases written
// Release*/pool.Put inside the body under analysis, so a pooled value
// obtained through pool.Lease from another package was provably
// untracked. v2 computes this package's escape summaries, which callers
// consult.
package pool

import "sync"

// Buf is a reusable scratch buffer.
type Buf struct{ b []byte }

var bufs = sync.Pool{New: func() any { return new(Buf) }}

// Lease hands out a pooled buffer; the caller owns the release.
func Lease() *Buf { return bufs.Get().(*Buf) }

// Recycle returns a leased buffer to the pool.
func Recycle(b *Buf) { bufs.Put(b) }

// Fill copies p into the buffer and reports the bytes taken.
func (b *Buf) Fill(p []byte) int {
	b.b = append(b.b[:0], p...)
	return len(p)
}
