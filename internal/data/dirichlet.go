package data

import (
	"fmt"
	"math"
	"math/rand"
)

// PartitionDirichlet splits a dataset across numClients clients with
// label-distribution skew controlled by a symmetric Dirichlet(α) prior, the
// non-IID model of Hsu et al. used by the paper (α=1 emulates a modest
// non-IID level; α→∞ approaches IID; α→0 approaches one-class clients).
//
// Every sample is assigned to exactly one client. For each class, the class
// samples are divided according to a fresh Dirichlet draw over clients.
func PartitionDirichlet(d *Dataset, numClients int, alpha float64, seed int64) []*Subset {
	if numClients <= 0 {
		panic(fmt.Sprintf("data: numClients = %d", numClients))
	}
	if alpha <= 0 {
		panic(fmt.Sprintf("data: Dirichlet alpha = %v must be positive", alpha))
	}
	rng := rand.New(rand.NewSource(seed))

	// Group sample indices by class.
	byClass := make([][]int, d.Classes)
	for i := 0; i < d.Len(); i++ {
		c := d.Label(i)
		byClass[c] = append(byClass[c], i)
	}

	assigned := make([][]int, numClients)
	for _, samples := range byClass {
		if len(samples) == 0 {
			continue
		}
		rng.Shuffle(len(samples), func(i, j int) {
			samples[i], samples[j] = samples[j], samples[i]
		})
		w := dirichlet(rng, numClients, alpha)
		// Convert weights to integer counts that sum exactly to len(samples).
		counts := apportion(w, len(samples))
		off := 0
		for ci, n := range counts {
			assigned[ci] = append(assigned[ci], samples[off:off+n]...)
			off += n
		}
	}

	subsets := make([]*Subset, numClients)
	for i := range subsets {
		subsets[i] = NewSubset(d, assigned[i])
	}
	return subsets
}

// dirichlet draws one sample from a symmetric Dirichlet(α) over n bins via
// normalized Gamma(α, 1) variates.
func dirichlet(rng *rand.Rand, n int, alpha float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = gammaSample(rng, alpha)
		sum += w[i]
	}
	if sum == 0 {
		// Degenerate draw (possible only for pathological α); fall back to
		// uniform.
		for i := range w {
			w[i] = 1.0 / float64(n)
		}
		return w
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// gammaSample draws Gamma(shape, 1) using Marsaglia–Tsang, with the
// standard boost for shape < 1.
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) · U^{1/a}.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// apportion converts fractional weights into non-negative integer counts
// summing exactly to total, using largest-remainder rounding.
func apportion(w []float64, total int) []int {
	counts := make([]int, len(w))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(w))
	used := 0
	for i, wi := range w {
		exact := wi * float64(total)
		c := int(exact)
		counts[i] = c
		used += c
		rems[i] = rem{idx: i, frac: exact - float64(c)}
	}
	// Distribute the remainder to the largest fractional parts.
	for used < total {
		best := 0
		for i := 1; i < len(rems); i++ {
			if rems[i].frac > rems[best].frac {
				best = i
			}
		}
		counts[rems[best].idx]++
		rems[best].frac = -1
		used++
	}
	return counts
}
