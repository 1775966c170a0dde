package fl

import (
	"context"
	"fmt"
)

// Remote tiers. A Tree normally folds every tier in-process, but the
// flrpc deployment splits the tree across machines: a leaf aggregator
// (relay) folds its aligned block of the cohort roster locally and ships
// ONE (sum, weight) partial to the coordinator, which injects it here in
// place of the block's member submissions. Two pieces make that work:
//
//   - AggregatePartial, the receiving side: the partial resolves the
//     whole leaf block at once — its members are marked submitted, the
//     partial is staged into the leaf's parent at the leaf's child rank,
//     and the caller blocks until the root publishes, exactly like a
//     member submission would.
//   - SetUpstream, the sending side: a tree covering one aligned block of
//     a larger roster completes its root WITHOUT scaling and forwards the
//     raw partial through the hook; the global the hook returns is what
//     the local waiters receive.
//
// Because the relay's block is an aligned rank block and its local fold
// is the same canonical pairwise order, the partial it ships is
// bit-identical to the leaf fold the coordinator would have computed
// itself — the distributed tree and the in-process tree agree to the
// last bit (TestTreePartialBitIdentity).

// UpstreamFunc forwards a subtree's completed root partial to the
// enclosing tree and returns the published global. rankLo is the
// subtree's first rank in the enclosing roster; sum is the raw canonical
// sum over weight contributors (nil sum with zero weight when every
// member was evicted). sum is not retained past the call: its buffer is
// recycled when the hook returns. The hook runs on the completing submitter's
// goroutine with no Tree lock held, so it may block on network I/O.
type UpstreamFunc func(round int, kind string, rankLo int, sum []float64, weight int) ([]float64, error)

// SetUpstream switches the tree into subtree (relay) mode: the root
// forwards its raw partial through fn instead of scaling a mean, and
// publishes fn's return to every local waiter. rankLo is this subtree's
// first rank within the enclosing roster (it must be leaf-aligned there).
// Must be set before the first collective and not changed while
// collectives are in flight.
func (t *Tree) SetUpstream(rankLo int, fn UpstreamFunc) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.upstream = fn
	t.upstreamBase = rankLo
}

// AggregatePartial is AggregatePartialCtx without cancellation.
func (t *Tree) AggregatePartial(round int, kind string, rankLo int, sum []float64, weight int) ([]float64, error) {
	return t.AggregatePartialCtx(context.Background(), round, kind, rankLo, sum, weight)
}

// AggregatePartialCtx stages an already-folded partial for the aligned
// leaf block starting at roster rank rankLo, resolving that block's
// members in one message, and blocks until the collective's global is
// published. weight is the contributor count folded into sum; weight 0
// (nil sum) reports an empty block (every member evicted at the remote
// leaf). sum is not retained past the call.
//
// With SetIdempotent, a resubmission of a block that was already resolved
// by a remote partial waits and returns the published global (the
// retry-after-reconnect contract of flrpc); otherwise it is an error, as is
// a partial for a block with direct member submissions or one that
// expired.
func (t *Tree) AggregatePartialCtx(ctx context.Context, round int, kind string, rankLo int, sum []float64, weight int) ([]float64, error) {
	t.mu.Lock()
	n := len(t.roster)
	if n == 0 {
		t.mu.Unlock()
		return nil, fmt.Errorf("fl: partial submitted before SetRoster")
	}
	if t.fanout == 0 || n <= t.fanout {
		t.mu.Unlock()
		return nil, fmt.Errorf("fl: roster of %d fits a single tier at fanout %d; submit members directly", n, t.fanout)
	}
	if rankLo < 0 || rankLo >= n || rankLo%t.fanout != 0 {
		t.mu.Unlock()
		return nil, fmt.Errorf("fl: partial rank %d is not an aligned leaf block of a %d-member roster (fanout %d)", rankLo, n, t.fanout)
	}
	c, ready := t.colLocked(opKey{round: round, kind: kind})
	c.holders.Add(1)
	defer c.holders.Add(-1)
	leaf := t.leafLocked(c, rankLo)
	var err error
	switch {
	case leaf.done && leaf.remote && t.idempotent:
		// Resubmission after a transport retry: the first copy already
		// resolved the block; hand back the same global.
		t.mu.Unlock()
		return t.wait(ctx, c, nil, -1)
	case leaf.done:
		err = fmt.Errorf("fl: leaf block at rank %d already resolved (by a partial, by expiry, or folded locally)", rankLo)
	case leaf.subs > 0:
		err = fmt.Errorf("fl: leaf block at rank %d has %d resolved members; a remote partial cannot replace a partially folded block", rankLo, leaf.subs)
	case weight < 0 || weight > leaf.need:
		err = fmt.Errorf("fl: partial weight %d outside the block's %d members", weight, leaf.need)
	case weight > 0 && len(sum) == 0:
		err = fmt.Errorf("fl: partial weight %d with empty sum", weight)
	}
	if err != nil {
		t.mu.Unlock()
		t.cascade(ready)
		return nil, err
	}
	// The partial speaks for every member of the block: they are submitted
	// (a later direct submission is a double-submit) and no longer pending
	// (deadline expiry must not evict them).
	for _, id := range t.roster[rankLo:min(rankLo+t.fanout, n)] {
		c.submitted[id] = true
		delete(c.pending, id)
	}
	leaf.done = true
	leaf.remote = true
	parent := c.tiers[1][leaf.index/t.fanout]
	if weight > 0 {
		t.partials++
	} else {
		sum = nil
		t.tierEvictions[1]++
	}
	t.mu.Unlock()

	// Stage outside the lock, by reference — this handler blocks inside
	// wait until the collective closes, exactly the Aggregate ownership
	// contract, so the caller's buffer is recyclable on return. An
	// abandoned wait detaches it from the parent fold first.
	detach := parent.fold.stageWeighted(leaf.index%t.fanout, sum, nil, weight)
	t.mu.Lock()
	parent.subs++
	var closing *tierNode
	if t.nodeReadyLocked(parent) {
		closing = parent
	}
	t.mu.Unlock()
	t.cascade(ready)
	t.climb(closing)
	return t.wait(ctx, c, parent, detach)
}
