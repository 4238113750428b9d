package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule: the smallest value with at least q of the sample at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle value of vs (mean of the middle two for an
// even count) without reordering the caller's slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is (max - min) / median of vs: how far the slices of one window
// disagree.
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) == 0 || m == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return (hi - lo) / m
}

func durationsToMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// sample is one completed request as the load generator saw it.
type sample struct {
	done    time.Duration // completion, since the window opened
	latency time.Duration
	bytes   int // verified body bytes; 0 for a failed request
	ok      bool
}

// sliceStats is one time slice of a window.
type sliceStats struct {
	rps, mbps, p50us, p90us float64
}

// sliceCount is how many equal slices a measured window is cut into;
// rate and latency metrics are the median over slices, which is what
// lets them repeat on a shared box.
const sliceCount = 10

// cutSlices buckets samples by completion time into n equal slices of
// window and reduces each.
func cutSlices(samples []sample, window time.Duration, n int) []sliceStats {
	width := window / time.Duration(n)
	lat := make([][]float64, n)
	bytes := make([]int64, n)
	count := make([]int, n)
	for _, s := range samples {
		i := int(s.done / width)
		if i < 0 || i >= n || !s.ok {
			continue
		}
		count[i]++
		bytes[i] += int64(s.bytes)
		lat[i] = append(lat[i], float64(s.latency)/float64(time.Microsecond))
	}
	out := make([]sliceStats, n)
	for i := range out {
		sort.Float64s(lat[i])
		out[i] = sliceStats{
			rps:   float64(count[i]) / width.Seconds(),
			mbps:  float64(bytes[i]) / 1e6 / width.Seconds(),
			p50us: percentile(lat[i], 0.50),
			p90us: percentile(lat[i], 0.90),
		}
	}
	return out
}

// column extracts one field of every slice.
func column(slices []sliceStats, f func(sliceStats) float64) []float64 {
	out := make([]float64, len(slices))
	for i, s := range slices {
		out[i] = f(s)
	}
	return out
}

// span is one timed interval of the traced run: a client-side phase of a
// live request, or a batch of calls into one layer during the walk.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Run    string `json:"run"`    // workload-run id shared by every span of a run
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's epoch
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"` // layer calls covered (walk batches)
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover, keyed by span ID. Children are clipped to the parent and
// overlapping children are not double-counted.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}
