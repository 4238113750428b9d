// Cross-package fixture for pooledescape: every obligation here flows
// through testdata/pool, whose helpers avoid the Acquire*/Release*
// naming. The pre-v2 engine matched only those spellings in the body
// being analyzed, so neither the acquisition via pool.Lease nor the
// discharge via pool.Recycle was visible from this package — the leak
// below was provably unreportable. v2 resolves both through the
// helpers' summaries.
package fixture

import "webcluster/internal/lint/pooledescape/testdata/pool"

// --- flagged ---

func leak(p []byte) int {
	b := pool.Lease()
	n := b.Fill(p)
	return n // want `pooled value "b" is not released on this return path`
}

func doubleRelease(p []byte) {
	b := pool.Lease()
	b.Fill(p)
	pool.Recycle(b)
	pool.Recycle(b) // want `pooled value "b" released twice`
}

// --- allowed ---

func roundTrip(p []byte) int {
	b := pool.Lease()
	defer pool.Recycle(b)
	return b.Fill(p)
}

func releaseOnEveryPath(p []byte) int {
	b := pool.Lease()
	if len(p) == 0 {
		pool.Recycle(b)
		return 0
	}
	n := b.Fill(p)
	pool.Recycle(b)
	return n
}
