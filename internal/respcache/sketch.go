package respcache

// TinyLFU-style frequency sketch: a 4-bit count-min sketch with periodic
// aging. The cache records every lookup's key here — hits and misses alike
// — so at admission time it can compare how often the candidate has been
// requested against the victims its bytes would displace, together.
// One-hit-wonder bodies never displace a popular object because their
// estimated frequency stays at 1.
//
// Counters saturate at 15; once the total number of recorded increments
// reaches ~8x the table width every counter is halved, so the sketch
// tracks recent popularity rather than all-time popularity (the "aging" or
// "reset" operation from the TinyLFU paper).

type sketch struct {
	// rows are four independent hash rows packed two counters per byte.
	rows [4][]byte
	mask uint64
	// additions counts increments since the last aging pass.
	additions int
	sample    int
}

// newSketch sizes the sketch for roughly n distinct keys (rounded up to a
// power of two, minimum 256 counters per row).
func newSketch(n int) *sketch {
	w := 256
	for w < n {
		w <<= 1
	}
	s := &sketch{mask: uint64(w - 1), sample: 8 * w}
	for i := range s.rows {
		s.rows[i] = make([]byte, w/2)
	}
	return s
}

// spread mixes one 64-bit hash into four row indexes.
func (s *sketch) spread(h uint64, row int) uint64 {
	// distinct odd multipliers per row decorrelate the indexes
	const (
		m0 = 0x9e3779b97f4a7c15
		m1 = 0xc2b2ae3d27d4eb4f
		m2 = 0x165667b19e3779f9
		m3 = 0xff51afd7ed558ccd
	)
	switch row {
	case 0:
		h *= m0
	case 1:
		h *= m1
	case 2:
		h *= m2
	default:
		h *= m3
	}
	h ^= h >> 32
	return h & s.mask
}

func (s *sketch) get(row int, idx uint64) byte {
	b := s.rows[row][idx>>1]
	if idx&1 == 1 {
		return b >> 4
	}
	return b & 0x0f
}

func (s *sketch) set(row int, idx uint64, v byte) {
	p := &s.rows[row][idx>>1]
	if idx&1 == 1 {
		*p = (*p & 0x0f) | (v << 4)
	} else {
		*p = (*p & 0xf0) | v
	}
}

// bump records one occurrence of the key hash, aging the sketch when the
// sample window fills.
func (s *sketch) bump(h uint64) {
	bumped := false
	for row := 0; row < 4; row++ {
		idx := s.spread(h, row)
		if v := s.get(row, idx); v < 15 {
			s.set(row, idx, v+1)
			bumped = true
		}
	}
	if bumped {
		s.additions++
		if s.additions >= s.sample {
			s.age()
		}
	}
}

// estimate returns the minimum counter across rows — the classic
// count-min upper bound on the key's recent request count.
func (s *sketch) estimate(h uint64) byte {
	min := byte(15)
	for row := 0; row < 4; row++ {
		if v := s.get(row, s.spread(h, row)); v < min {
			min = v
		}
	}
	return min
}

// age halves every counter, decaying old popularity.
func (s *sketch) age() {
	for row := range s.rows {
		for i := range s.rows[row] {
			// halve both packed counters in one shift: clearing the bits
			// that would leak between nibbles first
			s.rows[row][i] = (s.rows[row][i] >> 1) & 0x77
		}
	}
	s.additions /= 2
}
