package core

import (
	"math"
	"testing"

	"fedsu/internal/par"
)

// runDiagnoseTrajectory drives rounds of Sync over a vector large enough
// that the commit fans out across the worker pool (size > diagnoseGrain) and
// returns every round's output concatenated, plus the final speculative
// mask. Trajectories mix linear parameters (which promote), oscillating
// ones (which never do), and stagnating ones, so the scan exercises every
// diagnose branch.
func runDiagnoseTrajectory(t *testing.T, opts Options, rounds int) ([]float64, []bool) {
	t.Helper()
	const size = 3*diagnoseGrain + 17 // several chunks + unaligned tail
	m, err := NewManager(0, size, &reuseAgg{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	local := make([]float64, size)
	var outs []float64
	for k := 0; k < rounds; k++ {
		for i := range local {
			switch i % 3 {
			case 0: // linear: slope grows with index
				local[i] = float64(i) + 0.01*float64(i%97+1)*float64(k)
			case 1: // oscillating
				local[i] = math.Sin(float64(k)) * float64(i%13+1)
			default: // stagnating
				local[i] = float64(i % 7)
			}
		}
		out, _, err := m.Sync(k, local, true)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out...)
	}
	return outs, m.PredictableMask()
}

// TestDiagnoseParallelDeterminism pins the bit-identity contract of the
// parallelized O(d) commit pass (diagnosis included): serial (1 worker) and
// fanned-out execution must produce byte-for-byte the same sync outputs and
// the same final speculative mask — for full FedSU and for v2, whose launch
// lottery is a hash of (seed, round, parameter) and so owes nothing to the
// order chunks run in. This mirrors the serial-vs-parallel determinism
// pattern of internal/tensor.
func TestDiagnoseParallelDeterminism(t *testing.T) {
	const rounds = 9
	variants := []Options{
		DefaultOptions(),
		func() Options {
			o := DefaultOptions()
			o.Variant = VariantV2
			o.FixedPeriod = 3
			o.LaunchProb = 0.2
			return o
		}(),
	}
	for _, opts := range variants {
		opts := opts
		t.Run(opts.Variant.String(), func(t *testing.T) {
			defer par.SetWorkers(par.SetWorkers(1))
			serialOut, serialMask := runDiagnoseTrajectory(t, opts, rounds)
			promoted := 0
			for _, sp := range serialMask {
				if sp {
					promoted++
				}
			}
			if promoted == 0 {
				t.Fatal("trajectory never promoted a parameter; test would be vacuous")
			}
			for _, workers := range []int{2, 5} {
				par.SetWorkers(workers)
				out, mask := runDiagnoseTrajectory(t, opts, rounds)
				for i := range serialOut {
					if serialOut[i] != out[i] {
						t.Fatalf("workers=%d: output %d diverges: serial=%v parallel=%v",
							workers, i, serialOut[i], out[i])
					}
				}
				for i := range serialMask {
					if serialMask[i] != mask[i] {
						t.Fatalf("workers=%d: mask %d diverges", workers, i)
					}
				}
			}
		})
	}
}
