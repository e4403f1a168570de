package main

import (
	"math"
	"reflect"
	"testing"
)

func TestMedian(t *testing.T) {
	rounds := []float64{70.1, 53.5, 77.4, 76.3, 69.9} // one round hit by a neighbour's burst
	if got := median(rounds); got != 70.1 {
		t.Errorf("median of five rounds = %v, want 70.1", got)
	}
	if rounds[1] != 53.5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestBetterQuartileOfRounds(t *testing.T) {
	// Twenty rounds, half of them inside a slow stretch of the host: the
	// quartile on the better side still reads a quiet round.
	var mbps, p50 []float64
	for i := 0; i < 10; i++ {
		mbps = append(mbps, 60+0.1*float64(i), 41+float64(i))
		p50 = append(p50, 2+0.01*float64(i), 2.6+0.05*float64(i))
	}
	if got := betterQuartile(mbps, true); got < 60 || got > 61 {
		t.Errorf("better quartile of throughput = %v, want a quiet round's 60-61", got)
	}
	if got := betterQuartile(p50, false); got < 2 || got > 2.1 {
		t.Errorf("better quartile of latency = %v, want a quiet round's 2-2.1", got)
	}
	if got := median(mbps); got >= 60 {
		t.Errorf("median of the same rounds = %v: it should sit between the two stretches", got)
	}
	if got := betterQuartile([]float64{7}, true); got != 7 {
		t.Errorf("better quartile of one round = %v, want 7", got)
	}
	if got := betterQuartile(nil, true); got != 0 {
		t.Errorf("better quartile of no rounds = %v, want 0", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n         int
		wantValue float64
		wantPct   float64
		wantOK    bool
	}{
		{1000, 990, 0.99, true}, // p99 needs a thousand samples
		{5000, 4950, 0.99, true},
		{999, 989, 989.0 / 999, true}, // one short: the percentile drops below 99
		{100, 90, 0.90, true},
		{11, 1, 1.0 / 11, true},
		{10, 0, 0, false},
		{0, 0, 0, false},
	} {
		v, pct, ok := tailPercentile(seq(c.n), 0.99)
		if v != c.wantValue || math.Abs(pct-c.wantPct) > 1e-12 || ok != c.wantOK {
			t.Errorf("n=%d: got (%v, %v, %v), want (%v, %v, %v)", c.n, v, pct, ok, c.wantValue, c.wantPct, c.wantOK)
		}
		if ok {
			if beyond := c.n - int(math.Round(pct*float64(c.n))); beyond < minTailSamples {
				t.Errorf("n=%d: only %d samples beyond p%.1f", c.n, beyond, pct*100)
			}
		}
	}
}

func TestPairedDiffMedianCancelsDrift(t *testing.T) {
	// The host slows down steadily; the upper rung always costs 5 more.
	var lower, upper []float64
	for k := 0; k < 101; k++ {
		drift := float64(k)
		lower = append(lower, 100+drift)
		upper = append(upper, 105+drift)
	}
	if got := pairedDiffMedian(upper, lower); got != 5 {
		t.Errorf("paired difference = %v, want 5", got)
	}
	// Unequal lengths pair up to the shorter one.
	if got := pairedDiffMedian([]float64{3, 4, 100}, []float64{1, 1}); got != 2.5 {
		t.Errorf("paired difference over the shorter side = %v, want 2.5", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(sortedCopy(v))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got, want := spreadOverMedian(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spreadOverMedian([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsTheRungBeneath(t *testing.T) {
	spans := []span{
		// trace 2 is recorded first: the result is in trace order.
		{Trace: 2, Name: "machine", Parent: "sched", Start: 0, End: 110},
		{Trace: 2, Name: "sched", Parent: "udp", Start: 200, End: 350},
		{Trace: 2, Name: "udp", Start: 400, End: 560},
		{Trace: 1, Name: "machine", Parent: "sched", Start: 0, End: 100},
		{Trace: 1, Name: "sched", Parent: "udp", Start: 100, End: 230},
		{Trace: 1, Name: "udp", Start: 230, End: 370},
		{Trace: 1, Name: "server.bare", Start: 370, End: 400}, // no parent: subtracts from nothing
	}
	got := selfTimes(spans)
	want := map[string][]float64{
		"machine":     {100, 110},
		"sched":       {30, 40},
		"udp":         {10, 10},
		"server.bare": {30},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestWorseByFollowsTheMetricDirection(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	for _, c := range []struct {
		d             metricDef
		first, second float64
		want          float64
	}{
		{lower, 100, 110, 0.10},
		{lower, 100, 90, -0.10},
		{higher, 100, 90, 0.10},
		{higher, 100, 120, -0.20},
		{lower, 0, 5, 0},
	} {
		if got := worseBy(c.d, c.first, c.second); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worseBy(%s, %v, %v) = %v, want %v", c.d.Better, c.first, c.second, got, c.want)
		}
	}
}

func TestOutputsEqualWalksShards(t *testing.T) {
	want := []byte("abcdef")
	if !outputsEqual([][]byte{[]byte("ab"), nil, []byte("cdef")}, want) {
		t.Error("matching shards reported unequal")
	}
	for _, outs := range [][][]byte{
		{[]byte("abc")},
		{[]byte("abcdef"), []byte("g")},
		{[]byte("abx"), []byte("def")},
	} {
		if outputsEqual(outs, want) {
			t.Errorf("%q reported equal to %q", outs, want)
		}
	}
}
