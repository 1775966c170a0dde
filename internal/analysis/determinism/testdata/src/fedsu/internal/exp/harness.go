// Package exp is the experiment-harness half of the determinism corpus:
// run logic must be a pure function of (Config, seed), so wall-clock and
// the global rand source are flagged here exactly as in the kernels.
package exp

import (
	"math/rand"
	"time"
)

// Harness mimics the grid harness: wall-clock enters only through the
// injected Clock, wired by the binary.
type Harness struct {
	Clock func() time.Time
}

// runTimed stamps a run with the injected clock — the sanctioned pattern.
func runTimed(h Harness, seed int64) float64 {
	start := h.Clock()
	rng := rand.New(rand.NewSource(seed))
	_ = rng.Float64()
	return h.Clock().Sub(start).Seconds()
}

// wallClock reads ambient time inside run logic: unreproducible.
func wallClock() float64 {
	t := time.Now()                // want `call to time.Now in deterministic kernel package`
	return time.Since(t).Seconds() // want `call to time.Since in deterministic kernel package`
}

// globalRand draws client participation from the process-wide source.
func globalRand(n int) int {
	return rand.Intn(n) // want `global math/rand source \(rand.Intn\)`
}

// schemeOrderSum folds per-scheme traffic in map iteration order —
// run-to-run bit drift in an aggregate result row.
func schemeOrderSum(traffic map[string]float64) float64 {
	total := 0.0
	for _, v := range traffic {
		total += v // want `numeric accumulation into "total" inside map iteration is order-dependent`
	}
	return total
}

// selfTiming is Table II's sanctioned exception: the measurement IS the
// result, suppressed in place.
func selfTiming() float64 {
	//lint:allow determinism -- overhead measurement is the reported result
	start := time.Now()
	//lint:allow determinism -- overhead measurement is the reported result
	return time.Since(start).Seconds()
}
