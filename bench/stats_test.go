package main

import (
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	// The highest percentile that leaves at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, {40, 0.75, true}, {99, 0.75, true}, {100, 0.90, true}, {199, 0.90, true},
		{200, 0.95, true}, {999, 0.95, true}, {1000, 0.99, true}, {10000, 0.999, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSummarizeStatesCountAndTail(t *testing.T) {
	ms := make([]float64, 200)
	for i := range ms {
		ms[i] = float64(200 - i) // unsorted on purpose
	}
	got := summarize(ms)
	if got.N != 200 || got.P50 != 100.5 || got.TailPct != 0.95 || got.Tail != 190 {
		t.Errorf("summarize = %+v", got)
	}
	if ms[0] != 200 {
		t.Error("summarize reordered its input")
	}
	if small := summarize(ms[:20]); small.Tail != 0 || small.TailPct != 0 || small.N != 20 {
		t.Errorf("a 20-sample timing claims a tail: %+v", small)
	}
	if p90(ms[:99]) != 0 || p90(ms) != 180 {
		t.Errorf("p90 = %v below 100 samples, %v at 200", p90(ms[:99]), p90(ms))
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	for _, tc := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
	if spread([]float64{3}) != 0 || spread(nil) != 0 {
		t.Error("spread of fewer than two values must be 0")
	}
}

func TestBlockRateIgnoresAStall(t *testing.T) {
	steady := make([]float64, 100)
	for i := range steady {
		steady[i] = 20 // ms: 50 rounds per second
	}
	if got := blockRate(steady); got != 50 {
		t.Errorf("steady rate = %v, want 50", got)
	}
	stalled := append([]float64(nil), steady...)
	for i := 30; i < 60; i++ {
		stalled[i] = 60 // the host stalls for three blocks of ten
	}
	if got := blockRate(stalled); got != 50 {
		t.Errorf("rate with a stall = %v, want 50", got)
	}
	// One slow round in every block is the program's own cost and is paid for.
	spiky := append([]float64(nil), steady...)
	for i := 0; i < len(spiky); i += rateBlock {
		spiky[i] = 120
	}
	if got := blockRate(spiky); got >= 40 {
		t.Errorf("rate with a slow round in every block = %v, want 10/0.3 = 33.3", got)
	}
	if got := blockRate(steady[:4]); got != 50 {
		t.Errorf("a run shorter than a block = %v, want 50", got)
	}
	if got := blockRate(append(steady[:20:20], 1000)); got != 50 {
		t.Errorf("a trailing partial block counted: %v", got)
	}
}
