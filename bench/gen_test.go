package main

import "testing"

func TestTrajectoryIsAPureFunctionOfSeedRoundClient(t *testing.T) {
	const n = 4096
	g := make([]float64, n)
	for i := range g {
		g[i] = float64(i%13) * 0.125
	}
	a, b := make([]float64, n), make([]float64, n)
	newTrajectory(7).local(a, g, 5, 2)
	newTrajectory(7).local(b, g, 5, 2)
	if !sameBits(a, b) || fingerprint(a) != fingerprint(b) {
		t.Fatal("the same (seed, round, client) gave different bits")
	}
	for _, other := range []struct {
		name          string
		seed          int64
		round, client int
	}{{"seed", 8, 5, 2}, {"round", 7, 6, 2}, {"client", 7, 5, 3}} {
		newTrajectory(other.seed).local(b, g, other.round, other.client)
		if sameBits(a, b) || fingerprint(a) == fingerprint(b) {
			t.Errorf("changing the %s left the vector unchanged", other.name)
		}
	}
}

func TestTrajectoryClasses(t *testing.T) {
	const n = 1000
	g, out := make([]float64, n), make([]float64, n)
	for i := range g {
		g[i] = 1
	}
	newTrajectory(1).local(out, g, 0, 0)
	for i, x := range out {
		d := x - g[i]
		switch i % 10 {
		case 6, 7: // mean-reverting: half way back to zero, plus noise
			if d > -0.2 || d < -0.8 {
				t.Fatalf("parameter %d (mean-reverting) moved by %v", i, d)
			}
		case 8, 9: // random walk: noise only
			if d > 0.3 || d < -0.3 {
				t.Fatalf("parameter %d (random walk) moved by %v", i, d)
			}
		default: // linear drift: its own constant step, almost no noise
			want := 0.01 * float64(i%7+1)
			if d < want-1e-4 || d > want+1e-4 {
				t.Fatalf("parameter %d (linear) moved by %v, want about %v", i, d, want)
			}
		}
	}
}

func TestFingerprintSeesEveryBit(t *testing.T) {
	a := []float64{1, 2, 3}
	if fingerprint(a) != fingerprint([]float64{1, 2, 3}) {
		t.Error("equal vectors, different fingerprints")
	}
	negZero := []float64{1, 2, 3}
	negZero[1] = -negZero[1] * 0 // -0, which == 0 but is a different bit pattern from +0
	if fingerprint([]float64{1, 0, 3}) == fingerprint(negZero) || sameBits([]float64{1, 0, 3}, negZero) {
		t.Error("+0 and -0 must differ")
	}
	if sameBits(a, a[:2]) {
		t.Error("different lengths compared equal")
	}
}
