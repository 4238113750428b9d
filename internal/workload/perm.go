package workload

import (
	"fmt"
	"math/rand"
)

// Permutation remaps popularity ranks so scenario events can reshape a
// site's popularity without touching per-class Zipf samplers: a sampler
// keeps drawing rank r, the permutation decides which object currently
// *holds* rank r. A flash crowd promotes previously cold objects into the
// top ranks; popularity churn reshuffles a fraction of the ranking.
// Deterministic for a given seed; single-goroutine. Construct with
// NewPermutation.
type Permutation struct {
	fwd []int // fwd[rank] = object index occupying that rank
	pos []int // pos[object] = rank currently held (inverse of fwd)
	rng *rand.Rand
}

// NewPermutation returns the identity permutation over n objects.
func NewPermutation(n int, seed int64) (*Permutation, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: non-positive permutation size %d", n)
	}
	p := &Permutation{
		fwd: make([]int, n),
		pos: make([]int, n),
		rng: rand.New(rand.NewSource(seed)),
	}
	for i := range p.fwd {
		p.fwd[i] = i
		p.pos[i] = i
	}
	return p, nil
}

// Apply maps a drawn rank to the object index currently holding it.
func (p *Permutation) Apply(rank int) int { return p.fwd[rank] }

// swap exchanges the objects holding ranks a and b.
func (p *Permutation) swap(a, b int) {
	p.fwd[a], p.fwd[b] = p.fwd[b], p.fwd[a]
	p.pos[p.fwd[a]] = a
	p.pos[p.fwd[b]] = b
}

// PromoteRandom models a flash crowd's hot-object shift: k objects drawn
// uniformly from outside the current top-k move into ranks 0..k-1 (the
// displaced former leaders take the vacated ranks). It returns the
// promoted objects' indices.
func (p *Permutation) PromoteRandom(k int) []int {
	n := len(p.fwd)
	if k > n {
		k = n
	}
	promoted := make([]int, 0, k)
	for i := 0; i < k; i++ {
		// Pick a victim rank at or beyond k so each promotion brings in
		// genuinely cold content rather than reshuffling the head.
		from := i
		if k < n {
			from = k + p.rng.Intn(n-k)
		}
		p.swap(i, from)
		promoted = append(promoted, p.fwd[i])
	}
	return promoted
}

// Shuffle models popularity churn: a Fisher–Yates pass re-ranks the whole
// site when fraction ≥ 1, or swaps fraction×n random rank pairs for
// partial churn.
func (p *Permutation) Shuffle(fraction float64) {
	n := len(p.fwd)
	if fraction >= 1 {
		for i := n - 1; i > 0; i-- {
			p.swap(i, p.rng.Intn(i+1))
		}
		return
	}
	if fraction <= 0 {
		return
	}
	swaps := int(fraction * float64(n))
	for i := 0; i < swaps; i++ {
		p.swap(p.rng.Intn(n), p.rng.Intn(n))
	}
}
