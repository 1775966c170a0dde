package sparse

import (
	"context"
	"fmt"
	"math"
)

// APF implements Adaptive Parameter Freezing (Chen et al., ICDCS 2021): a
// parameter whose global trajectory has stabilized (its per-round updates
// oscillate around zero with no net movement) is frozen — excluded from
// synchronization and pinned at its converged value — for a freezing period
// that grows additively while the parameter remains stable and resets when
// it reactivates. APF exploits the stagnating special case of the linear
// pattern FedSU generalizes.
//
// Stability is diagnosed with the effective-perturbation ratio
//
//	EP = |Σ g| / Σ |g|
//
// over the per-round global updates g accumulated since the parameter last
// looked unstable (net movement over path length, following the APF
// paper). Values below the stability threshold (0.05 by default) mark the
// parameter as converged. The accumulating window makes the ratio of a
// genuinely-converged noisy parameter decay as 1/√rounds, so freezing is
// conservative early and increasingly confident later — which is why APF's
// sparsification ratio is far below FedSU's in the paper's comparison.
type APF struct {
	id   int
	size int
	agg  Aggregator
	wire Wire

	stability  float64
	minHistory int

	prevGlobal []float64
	sumG       []float64
	sumAbsG    []float64
	obs        []int32

	frozen       []bool
	frozenValue  []float64
	freezeLeft   []int // rounds of freezing remaining
	freezePeriod []int // current per-parameter freezing period length
}

var _ ContextSyncer = (*APF)(nil)

// NewAPF constructs an APF strategy with the given stability threshold.
func NewAPF(clientID, size int, agg Aggregator, stability float64) *APF {
	return &APF{
		id: clientID, size: size, agg: agg,
		stability:    stability,
		minHistory:   2,
		sumG:         make([]float64, size),
		sumAbsG:      make([]float64, size),
		obs:          make([]int32, size),
		frozen:       make([]bool, size),
		frozenValue:  make([]float64, size),
		freezeLeft:   make([]int, size),
		freezePeriod: make([]int, size),
	}
}

// APFFactory returns a Factory using the paper's default stability
// threshold 0.05.
func APFFactory(clientID, size int, agg Aggregator) Syncer {
	return NewAPF(clientID, size, agg, 0.05)
}

// Name implements Syncer.
func (a *APF) Name() string { return "apf" }

// SetWire implements WireSetter.
func (a *APF) SetWire(w Wire) { a.wire = w }

// FrozenCount returns the number of currently-frozen parameters.
func (a *APF) FrozenCount() int {
	n := 0
	for _, f := range a.frozen {
		if f {
			n++
		}
	}
	return n
}

// EffectivePerturbation returns the current stability ratio of parameter i
// (1 when the parameter lacks history).
func (a *APF) EffectivePerturbation(i int) float64 {
	if a.sumAbsG[i] == 0 {
		if a.obs[i] > 0 {
			return 0 // never moved at all
		}
		return 1
	}
	return math.Abs(a.sumG[i]) / a.sumAbsG[i]
}

// Sync implements Syncer.
func (a *APF) Sync(round int, local []float64, contributor bool) ([]float64, Traffic, error) {
	return a.SyncCtx(context.Background(), round, local, contributor)
}

// SyncCtx implements ContextSyncer.
func (a *APF) SyncCtx(ctx context.Context, round int, local []float64, contributor bool) ([]float64, Traffic, error) {
	if len(local) != a.size {
		return nil, Traffic{}, fmt.Errorf("apf: vector length %d, want %d", len(local), a.size)
	}

	// Gather the active (unfrozen) parameter values for aggregation.
	active := make([]int, 0, a.size)
	for i := 0; i < a.size; i++ {
		if !a.frozen[i] {
			active = append(active, i)
		}
	}
	// Under a lossy chain the collective runs in the delta domain against
	// the shared previous global (see the FedSU manager for the argument);
	// the first sync has no reference yet and ships values.
	delta := a.wire.Enabled() && a.prevGlobal != nil
	var send []float64
	if contributor {
		send = make([]float64, len(active))
		for j, i := range active {
			if delta {
				send[j] = local[i] - a.prevGlobal[i]
			} else {
				send[j] = local[i]
			}
		}
	}
	agg, up, down, err := a.wire.Collect(ctx, AggModel, a.agg, a.id, round, send, nil, nil)
	if err != nil {
		return nil, Traffic{}, fmt.Errorf("apf: aggregate round %d: %w", round, err)
	}

	out := make([]float64, a.size)
	for i := 0; i < a.size; i++ {
		if a.frozen[i] {
			out[i] = a.frozenValue[i]
		}
	}
	if agg == nil {
		for _, i := range active {
			out[i] = local[i]
		}
	} else {
		if len(agg) != len(active) {
			return nil, Traffic{}, fmt.Errorf("apf: aggregate returned %d values for %d active params", len(agg), len(active))
		}
		for j, i := range active {
			if delta {
				out[i] = a.prevGlobal[i] + agg[j]
			} else {
				out[i] = agg[j]
			}
		}
	}

	// Update stability diagnostics for active parameters and make
	// freeze/thaw decisions; frozen parameters tick down their period.
	if a.prevGlobal != nil {
		for _, i := range active {
			g := out[i] - a.prevGlobal[i]
			a.sumG[i] += g
			a.sumAbsG[i] += math.Abs(g)
			a.obs[i]++
			if int(a.obs[i]) < a.minHistory {
				continue
			}
			if a.EffectivePerturbation(i) < a.stability {
				// Converged: freeze for an additively-grown period.
				a.frozen[i] = true
				a.frozenValue[i] = out[i]
				a.freezePeriod[i]++
				a.freezeLeft[i] = a.freezePeriod[i]
			} else if a.EffectivePerturbation(i) > 0.5 {
				// Decisively moving again: restart the stability window and
				// the period growth.
				a.freezePeriod[i] = 0
				a.sumG[i], a.sumAbsG[i], a.obs[i] = 0, 0, 0
			}
		}
	}
	for i := 0; i < a.size; i++ {
		if a.frozen[i] && !contains(active, i) {
			a.freezeLeft[i]--
			if a.freezeLeft[i] <= 0 {
				// Thaw for a probe round; stability is re-evaluated on the
				// next synchronization with the accumulated history intact,
				// so a still-stable parameter re-freezes with a longer
				// period.
				a.frozen[i] = false
			}
		}
	}

	if a.prevGlobal == nil {
		a.prevGlobal = make([]float64, a.size)
	}
	copy(a.prevGlobal, out)

	// Shipped bytes of the compacted active-parameter vectors; an
	// abstaining client or an empty collective costs framing only.
	return out, Traffic{
		UpBytes:      up,
		DownBytes:    down,
		SyncedParams: len(active),
		TotalParams:  a.size,
		FullBytes:    a.wire.FullRef(a.size),
	}, nil
}

func contains(sorted []int, v int) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case sorted[mid] == v:
			return true
		case sorted[mid] < v:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}
