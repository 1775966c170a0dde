package fl

import (
	"context"
	"fmt"
	"math"

	"fedsu/internal/par"
	"fedsu/internal/sparse"
)

// AsyncConfig parameterizes the buffered-async aggregation mode
// (SetAsync). Instead of a per-round barrier, the server folds model
// submissions into a weighted accumulator as they arrive and applies a new
// global every K contributions — FedBuff-style buffered asynchrony.
//
// Staleness is measured in *versions* (global applications), never
// wall-clock: a submission's staleness is the number of globals applied
// since the submitting client last pulled one. Version counting keeps the
// fold seed-deterministic — the same arrival sequence produces the same
// weights regardless of real elapsed time.
type AsyncConfig struct {
	// K is the buffer size: the global applies after every K buffered
	// contributions. K <= 0 leaves async mode disabled; K == 1 is fully
	// asynchronous (every contribution applies immediately).
	K int

	// MaxStaleness drops contributions more than this many versions
	// behind the current global (they count toward StaleDropCount and
	// return the current global without folding). Negative means
	// unlimited; zero means only perfectly fresh contributions fold.
	MaxStaleness int

	// StalenessWeight is the per-version decay base: a contribution s
	// versions behind folds with weight StalenessWeight^s and the apply
	// step divides by the sum of folded weights. Must be in (0, 1]; zero
	// selects the default 0.5. 1.0 disables decay (plain buffered mean).
	StalenessWeight float64
}

// Enabled reports whether the config describes an active async mode.
func (c AsyncConfig) Enabled() bool { return c.K > 0 }

// withDefaults resolves zero values to their documented defaults.
func (c AsyncConfig) withDefaults() AsyncConfig {
	if c.StalenessWeight == 0 {
		c.StalenessWeight = 0.5
	}
	return c
}

// asyncChan is one async accumulation channel (one per sparse.Leg),
// guarded by Server.amu. It is the async counterpart
// of an op: a running weighted sum that applies every K contributions.
type asyncChan struct {
	// ver counts applied globals; it is the staleness clock.
	ver int

	// base[id] is the version the client last synchronized against (the
	// global it was handed on its previous submission). A client's
	// staleness is ver - base[id]. First contact seeds base at the current
	// version: a brand-new client trained against the freshest state it
	// could have pulled.
	base map[int]int

	// Accumulator state. sumLen is -1 until the first contribution fixes
	// the element count; sum/wsum/buf reset after every apply.
	sumLen int
	sum    []float64
	wsum   float64
	buf    int

	// global is the last applied result; nil until the first apply.
	// Apply allocates a fresh slice every time so a slice handed to an
	// earlier caller is never mutated behind its back.
	global []float64

	// applies counts globals produced on this channel (== ver, kept
	// separate for clarity at call sites).
	applies int

	// Persistent parallel kernels over the current fold parameters, like
	// op.foldFn/scaleFn: created once so steady-state folds allocate
	// nothing but the apply-step global. Inputs are published before the
	// par dispatch (channel send / WaitGroup synchronize them).
	foldVals []float64
	foldW    float64
	applyDst []float64
	applyInv float64
	foldFn   func(lo, hi int)
	applyFn  func(lo, hi int)
}

func newAsyncChan() *asyncChan {
	c := &asyncChan{base: map[int]int{}, sumLen: -1}
	c.foldFn = func(lo, hi int) {
		dst := c.sum[lo:hi]
		src := c.foldVals[lo:hi]
		w := c.foldW
		for i := range dst {
			dst[i] += w * src[i]
		}
	}
	c.applyFn = func(lo, hi int) {
		dst := c.applyDst[lo:hi]
		src := c.sum[lo:hi]
		inv := c.applyInv
		for i := range dst {
			dst[i] = src[i] * inv
		}
	}
	return c
}

// SetAsync switches the server into buffered-async aggregation (cfg.K >= 1)
// or back to barrier mode (zero cfg). In async mode Aggregate* calls never
// block on a barrier: a submission folds into the per-leg accumulator
// immediately, weighted by StalenessWeight^staleness, and returns the
// current global (nil before the first apply — strategies treat a nil
// global as "keep local", exactly the bootstrap contract of the barrier
// path). An abstention (nil values) from a client that already holds the
// current global is answered with nil too: no contributor since its pull
// means nothing to pull, the barrier path's contract for a round nobody
// contributed to, so the client keeps its local progress. BeginRound/SetRoster participant sets are ignored: any
// non-evicted client that submits non-nil values contributes.
//
// Determinism contract: the fold is bit-identical across par worker counts
// (element-sharded, so per-element addition order never depends on
// chunking), but — unlike the barrier, which reorders a round's
// submissions into client-id order — the async fold is order-sensitive
// across *arrival order*. Seed-determinism therefore requires the caller
// to serialize submissions in a seeded order, which the netem-driven
// engine event loop does; see DESIGN.md §5i.
//
// The mode table decides which topologies take it (its Async×tree row). It
// must not be called while collectives are in flight.
func (s *Server) SetAsync(cfg AsyncConfig) error {
	if err := CheckMode(Config{Async: cfg, Fanout: s.fanout}, "SetAsync"); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !cfg.Enabled() {
		s.async = false
		s.acfg = AsyncConfig{}
		return nil
	}
	if cfg.StalenessWeight < 0 || cfg.StalenessWeight > 1 {
		return fmt.Errorf("fl: async staleness weight must be in (0, 1], got %g", cfg.StalenessWeight)
	}
	s.async = true
	s.acfg = cfg.withDefaults()
	return nil
}

// asyncSubmit folds one submission into the leg's channel. Caller has
// already cleared the eviction check under s.mu and released it.
func (s *Server) asyncSubmit(ctx context.Context, clientID int, leg sparse.Leg, values []float64) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.amu.Lock()
	defer s.amu.Unlock()
	ch := s.achan[leg]

	base, seen := ch.base[clientID]
	if values == nil && seen && base == ch.ver {
		// An abstention with a current pull: nothing applied since, so
		// nothing to hand back. Reloading the global it already holds
		// would discard the client's local progress, and an event-gated
		// client whose drift never accumulates never contributes again.
		return nil, nil
	}
	stale := ch.ver - base
	if !seen {
		// First contact: the client trained from the freshest pull it
		// could have made, so it folds at full weight.
		stale = 0
	}

	if values != nil {
		if s.acfg.MaxStaleness >= 0 && stale > s.acfg.MaxStaleness {
			// Too far behind: the contribution is discarded, not folded.
			// The client still resynchronizes to the current global below.
			s.astale++
		} else if err := ch.fold(values, math.Pow(s.acfg.StalenessWeight, float64(stale))); err != nil {
			return nil, err
		} else if ch.buf >= s.acfg.K {
			ch.apply()
		}
	}

	// Whether it contributed, abstained (nil values), or was dropped for
	// staleness, the client leaves synchronized to the version it is
	// being handed.
	ch.base[clientID] = ch.ver
	return ch.global, nil
}

// fold accumulates one weighted contribution.
func (c *asyncChan) fold(values []float64, w float64) error {
	if c.sumLen == -1 {
		c.sumLen = len(values)
		if cap(c.sum) >= c.sumLen {
			c.sum = c.sum[:c.sumLen]
			clear(c.sum)
		} else {
			c.sum = make([]float64, c.sumLen)
		}
	}
	if len(values) != c.sumLen {
		return fmt.Errorf("fl: async contribution has %d values, accumulator holds %d", len(values), c.sumLen)
	}
	c.foldVals, c.foldW = values, w
	par.ParallelizeGrain(c.sumLen, foldGrain, c.foldFn)
	c.foldVals = nil
	c.wsum += w
	c.buf++
	return nil
}

// apply produces a new global from the buffered weighted sum and resets
// the buffer. The result is a fresh allocation: globals already handed to
// callers stay immutable.
func (c *asyncChan) apply() {
	c.applyDst = make([]float64, c.sumLen)
	c.applyInv = 1 / c.wsum
	par.ParallelizeGrain(c.sumLen, foldGrain, c.applyFn)
	c.global = c.applyDst
	c.applyDst = nil
	c.ver++
	c.applies++
	clear(c.sum)
	c.wsum = 0
	c.buf = 0
}

// AsyncVersion returns the number of globals applied on the model channel.
func (s *Server) AsyncVersion() int {
	s.amu.Lock()
	defer s.amu.Unlock()
	return s.achan[sparse.ModelLeg].ver
}

// AsyncGlobal returns the current async global model (nil before the first
// apply). The returned slice is immutable by contract — apply always
// allocates fresh.
func (s *Server) AsyncGlobal() []float64 {
	s.amu.Lock()
	defer s.amu.Unlock()
	return s.achan[sparse.ModelLeg].global
}

// StaleDropCount reports contributions discarded for exceeding
// MaxStaleness, across all channels.
func (s *Server) StaleDropCount() int {
	s.amu.Lock()
	defer s.amu.Unlock()
	return s.astale
}
