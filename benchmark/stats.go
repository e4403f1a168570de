package main

import (
	"math"
	"sort"
)

// median returns the middle of v (the mean of the two middle values for an
// even count) without reordering it; 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// minTailSamples is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is one slow op, not a distribution.
const minTailSamples = 10

// tailPercentile returns the highest percentile of sorted, no higher than
// limit (0..1), that still has minTailSamples samples beyond it, by the
// nearest-rank rule, together with the percentile it used. With
// minTailSamples samples or fewer no percentile qualifies and ok is false.
func tailPercentile(sorted []float64, limit float64) (value, pct float64, ok bool) {
	n := len(sorted)
	rank := int(math.Ceil(limit*float64(n) - 1e-9)) // 0.99*n can land a hair above a whole number
	if most := n - minTailSamples; rank > most {
		rank = most
	}
	if rank < 1 {
		return 0, 0, false
	}
	return sorted[rank-1], float64(rank) / float64(n), true
}

// betterQuartile reduces one value per round to the reported figure: the
// quartile on the metric's better side (the third for a rate, the first for
// a latency). Interference from the host only ever makes a round worse, and
// on the shared sandbox it comes in bursts that can cover more than half of
// a run, which a median over rounds does not ride out: over ten runs, some
// of them hit, the median of twenty rounds spread 20-25 % on serve_small
// and serve_64k throughput where the better quartile spread 14-15 %.
func betterQuartile(perRound []float64, higherIsBetter bool) float64 {
	if len(perRound) < 2 {
		return median(perRound)
	}
	q1, q3 := quartiles(sortedCopy(perRound))
	if higherIsBetter {
		return q3
	}
	return q1
}

// pairedDiffMedian is the median of a[k]-b[k]: both sides of a pair were
// measured back to back in iteration k, so slow drift of the host cancels
// inside each pair, which it does not between two unpaired medians.
func pairedDiffMedian(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := make([]float64, n)
	for k := 0; k < n; k++ {
		d[k] = a[k] - b[k]
	}
	return median(d)
}

// spreadOverMedian is the distance between the first and third quartile as
// a share of the median (the figure the repeatability rule is stated in);
// 0 when fewer than two values or a zero median make it meaningless.
func spreadOverMedian(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	m := median(s)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(s)
	return (q3 - q1) / math.Abs(m)
}

// quartiles follows Python's statistics.quantiles(v, n=4) (the exclusive
// method), so the spreads printed here match the ones the driver computes.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(3)
}

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one op share Trace; Parent names the
// rung above (the layer whose work contains this layer's work).
type span struct {
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// selfTimes returns, per span name, the self time in nanoseconds of that
// layer in every trace, in trace order: the span's duration minus the
// durations of the spans that name it as Parent. The ladder calls the rungs
// back to back on one payload instead of nesting them (spans inside the
// program are a later change), so a child's duration stands for the part of
// the parent's interval spent in the layers beneath.
func selfTimes(spans []span) map[string][]float64 {
	type key struct {
		trace int
		name  string
	}
	dur := make(map[key]float64, len(spans))
	covered := make(map[key]float64)
	var order []key
	for _, s := range spans {
		k := key{s.Trace, s.Name}
		if _, seen := dur[k]; !seen {
			order = append(order, k)
		}
		d := float64(s.End - s.Start)
		dur[k] += d
		if s.Parent != "" {
			covered[key{s.Trace, s.Parent}] += d
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].trace < order[j].trace })
	out := make(map[string][]float64)
	for _, k := range order {
		out[k.name] = append(out[k.name], dur[k]-covered[k])
	}
	return out
}
