package fl

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fedsu/internal/par"
	"fedsu/internal/sparse/codec"
	"fedsu/internal/tensor"
)

// This file holds the streaming fold node: the component that accepts
// contributions for an ordered roster of positions, folds them
// incrementally as the resolution frontier advances, and produces the
// collective sum. The collective (tree.go) composes one per tier node —
// the flat collective is the topology with a single node — which is what
// makes a multi-tier run bit-identical to the flat one.
//
// # Canonical pairwise fold order
//
// Contributions combine in a FIXED balanced binary tree over roster ranks
// (the position of each id in the ascending roster), padded to the next
// power of two, with absent ranks (abstentions, non-participants, evicted
// clients, the pad tail) acting as the identity: merge(x, ⊥) = x performs
// no arithmetic. The value of any aligned power-of-two rank range is
// therefore well-defined independently of how the range is split across
// fold nodes — a leaf aggregator covering an aligned rank block computes
// exactly the canonical subtree sum, and every tier above merges sibling
// subtrees in the same canonical order. This grouping independence is the
// property the hierarchical tree's bit-identity bar requires; a left fold
// (the historical order) cannot provide it, because float64 addition is
// not associative. The pairwise order also grows rounding error O(log n)
// instead of the left fold's O(n).
//
// IEEE-754 addition commutes bitwise except when both operands are NaN:
// x86 then returns the first operand's payload, and only the canonical NaN
// Go arithmetic produces makes that moot. So every merge is also written
// left + right, lower ranks first, whichever side owns the destination.
//
// # Streaming implementation
//
// Ranks resolve in ascending order behind the frontier, exactly like the
// historical fold. The node runs a binary counter: levels[k] holds the
// canonical sum of the completed, aligned 2^k-rank subtree ending at the
// current frontier boundary (or nothing, when that subtree saw no
// contributions). Consuming rank r merges the trailing-one chain of r,
// costing amortized one vector addition per contribution — the same
// arithmetic volume as the left fold. Element work is batched into a
// fold *plan* (a short list of elementwise copy/add ops on staged slices
// and pooled level buffers) and executed with a single parallel pass per
// drain, sharded on the parameter index: every element observes the same
// merge sequence at every worker count and grain, which keeps the
// bit-determinism contract.
//
// Contributions are staged by reference (the submitting caller blocks
// until the barrier closes, so its slice is stable); merges write only
// into pooled buffers the node owns. A caller abandoning its wait detaches
// first — the contribution is copied and any level slot aliasing the
// caller's slice is repointed at the copy (see detach).

// Per-position submission status, published with atomic stores so the fold
// path can read it without the collective's mutex.
const (
	posPending uint32 = iota // not yet resolved
	posStaged                // contribution staged
	posSkip                  // resolved without contributing (abstain, non-participant, evicted)
)

// foldGrain aligns parallel fold chunks and is the block the plan kernel
// works at a time; any value works for bit-identity (the per-element
// addition order never depends on chunking), this one amortizes dispatch
// and keeps an op's three operands (8 KiB each) in L1.
const foldGrain = 1024

// drainMinBatch keeps opportunistic mid-barrier drains from paying a fold
// pass per contribution: a drain that would fold fewer staged buffers than
// this leaves them for a later, larger batch (the completion drain takes
// everything).
const drainMinBatch = 4

// foldPlan op kinds: elementwise ops executed grain by grain, in plan order
// within each, by the plan kernel. add2 is dst += a1; add3 is dst = a1 + a2 (dst disjoint, a2
// itself, or a previously freed buffer); add3To is dst += (a1 + a2), the
// fusion of an add3 into a buffer nothing else reads and the add2 consuming
// it; copyOp is dst = a1.
const (
	foldOpAdd2 = iota
	foldOpAdd3
	foldOpAdd3To
	foldOpCopy
)

// The plan's kernels, and whether mergeLocked fuses; only tests reassign them.
var (
	addTo, addPair, addPairTo, scaleBy = tensor.AddTo, tensor.AddPair, tensor.AddPairTo, tensor.Scale
	fusePairAdd                        = true
)

type foldOp struct {
	kind    int
	dst, a1 []float64
	a2      []float64
}

// levelSlot is one completed canonical subtree sum. vec == nil means the
// subtree saw no contributions (the ⊥ identity). owned points at the
// pooled buffer backing vec when the node owns the storage; otherwise vec
// aliases the staged contribution at position alias.
type levelSlot struct {
	vec   []float64
	owned *[]float64
	alias int
}

// foldNode is the reusable streaming fold component. All mutable fold
// state is guarded by mu (the per-collective fold lock); the status array
// is the atomic publish point between stagers and the drain path.
type foldNode struct {
	// Immutable after arm(): the roster in ascending id order and the
	// id → rank index.
	order []int
	pos   map[int]int

	// status[p] is written by stagers and evictions (atomic release) and
	// read by the fold path (atomic acquire); staged[p] is published by
	// the posStaged store and only read after the corresponding load.
	// staged[p] normally references the submitting caller's slice;
	// ownedPtr[p] is non-nil iff staged[p] is pooled storage the node owns:
	// a detach copy, or a child's partial handed up with its buffer.
	status   []atomic.Uint32
	staged   [][]float64
	ownedPtr []*[]float64

	// weights[p] scales position p's contribution count toward the mean
	// divisor (nil ⇒ every contribution weighs 1). Tree tiers stage child
	// partials whose weight is the child's own contributor count.
	weights []int

	mu       sync.Mutex
	frontier int
	folded   int // weighted contribution count (the mean divisor)
	sumLen   int
	lenFail  error
	strays   map[int]strayEntry

	// Binary-counter state: rank is the number of roster positions
	// consumed; levels[k] the pending 2^k-subtree sum.
	rank   int
	levels []levelSlot

	// Fold plan scratch plus persistent kernels (created once per node so
	// steady-state folds allocate nothing but level buffers, which are
	// pooled). spare recycles level buffers freed by merges within the
	// collective.
	plan     []foldOp
	spare    []*[]float64
	planFn   func(lo, hi int)
	scaleFn  func(lo, hi int)
	scaleInv float64

	// The finalized sum while complete scales it.
	result []float64
}

type strayEntry struct {
	buf    *[]float64
	weight int
}

// newFoldNode constructs a node with its persistent parallel kernels.
func newFoldNode() *foldNode {
	f := &foldNode{pos: map[int]int{}, sumLen: -1}
	f.planFn = func(lo, hi int) {
		// The whole plan on one grain before the next: a destination stays
		// in L1 from the op that writes it to the op that adds it on.
		for ; lo < hi; lo += foldGrain {
			end := min(lo+foldGrain, hi)
			for _, op := range f.plan {
				dst := op.dst[lo:end]
				switch op.kind {
				case foldOpAdd2:
					addTo(dst, op.a1[lo:end])
				case foldOpAdd3:
					addPair(dst, op.a1[lo:end], op.a2[lo:end])
				case foldOpAdd3To:
					addPairTo(dst, op.a1[lo:end], op.a2[lo:end])
				case foldOpCopy:
					copy(dst, op.a1[lo:end])
				}
			}
		}
	}
	f.scaleFn = func(lo, hi int) { scaleBy(f.result[lo:hi], f.scaleInv) }
	return f
}

// arm readies the node for a new collective over ids, the ascending slice
// of roster ids it covers (a leaf's rank block; the whole roster for the
// flat collective). ids is copied, so the caller may reuse it.
func (f *foldNode) arm(ids []int) {
	f.order = append(f.order[:0], ids...)
	for p, id := range f.order {
		f.pos[id] = p
	}
	f.armSlots(len(ids))
	f.weights = nil
}

// armRanks is arm for a roster that is already the dense rank sequence
// 0..n-1 (the tiers above the leaves), with per-rank weights: a child's
// partial counts its own contributor total toward the mean divisor.
func (f *foldNode) armRanks(n int) {
	f.order = f.order[:0]
	for id := 0; id < n; id++ {
		f.order = append(f.order, id)
		f.pos[id] = id
	}
	f.armSlots(n)
	if cap(f.weights) >= n {
		f.weights = f.weights[:n]
	} else {
		f.weights = make([]int, n)
	}
	for i := range f.weights {
		f.weights[i] = 1
	}
}

// armSlots sizes the per-position arrays for n pending positions,
// recycling their storage across collectives.
func (f *foldNode) armSlots(n int) {
	if cap(f.status) >= n {
		f.status = f.status[:n]
		f.staged = f.staged[:n]
		f.ownedPtr = f.ownedPtr[:n]
	} else {
		f.status = make([]atomic.Uint32, n)
		f.staged = make([][]float64, n)
		f.ownedPtr = make([]*[]float64, n)
	}
	for i := range f.status {
		f.status[i].Store(posPending)
		f.staged[i] = nil
		f.ownedPtr[i] = nil
	}
}

// reset clears per-collective fold state (called from arm sites and
// recycling). Caller must ensure no waiter still references the node.
func (f *foldNode) reset() {
	clear(f.pos)
	f.frontier, f.folded, f.rank = 0, 0, 0
	f.sumLen = -1
	f.lenFail = nil
	f.result = nil
	f.dropPlan()
	f.releaseStagedLocked()
}

// stage publishes the contribution (or, when not contributing, the skip)
// of roster member id and opportunistically drains. Returns the caller's
// detach position, -1 when nothing was reference-staged.
func (f *foldNode) stage(id int, values []float64, contributing bool) int {
	p := f.pos[id]
	if !contributing {
		f.status[p].Store(posSkip)
		f.tryDrain()
		return -1
	}
	f.staged[p] = values
	f.status[p].Store(posStaged)
	f.tryDrain()
	return p
}

// stageWeighted stages a tree-tier partial: the contribution counts
// weight toward the mean divisor. A non-nil own is the pooled buffer behind
// values, and the node takes it over. Caller must have armed with weights.
func (f *foldNode) stageWeighted(rank int, values []float64, own *[]float64, weight int) int {
	if values == nil || weight <= 0 {
		f.status[rank].Store(posSkip)
		f.tryDrain()
		return -1
	}
	f.weights[rank] = weight
	f.staged[rank], f.ownedPtr[rank] = values, own
	f.status[rank].Store(posStaged)
	f.tryDrain()
	return rank
}

// addStray records a contribution from an id that is not a pending member
// (readmitted mid-round, or a participant excluded from SetRoster). Its id
// can interleave anywhere in the fold order, so its presence forces a full
// ordered refold at completion. Strays are rare: copy eagerly rather than
// wiring them into the detach path.
func (f *foldNode) addStray(id int, values []float64, weight int) {
	buf := codec.GetVals(len(values))
	copy(*buf, values)
	f.mu.Lock()
	if f.strays == nil {
		f.strays = map[int]strayEntry{}
	}
	f.strays[id] = strayEntry{buf: buf, weight: weight}
	f.mu.Unlock()
}

// tryDrain folds whatever the frontier allows if the fold lock is free;
// otherwise the current holder (or the completion drain) picks the work up.
func (f *foldNode) tryDrain() {
	if !f.mu.TryLock() {
		return
	}
	f.drainLocked(false)
	f.mu.Unlock()
}

// drainLocked advances the frontier over resolved positions, consuming
// each rank into the binary counter in ascending order. With final set
// (completion), positions that never resolved — possible when stray
// submissions filled the quorum — consume their rank as the identity,
// matching the contributors-only mean. Caller holds mu.
func (f *foldNode) drainLocked(final bool) {
	for {
		fr := f.frontier
		contribs := 0
		for fr < len(f.order) {
			st := f.status[fr].Load()
			if st == posPending && !final {
				break
			}
			if st == posStaged {
				contribs++
			}
			fr++
		}
		if fr == f.frontier {
			return
		}
		if !final && contribs > 0 && contribs < drainMinBatch {
			// Not worth a fold pass yet; leave the run staged for a
			// larger batch. (Skip-only runs always advance, below.)
			if !f.advanceSkipsLocked(fr) {
				return
			}
			continue
		}
		f.consumeRunLocked(fr)
		f.execPlanLocked()
		if final {
			return
		}
	}
}

// advanceSkipsLocked consumes the leading run of skip positions up to
// limit (cheap pointer work, no element ops), stopping at the first
// staged contribution. Reports whether it advanced at all.
func (f *foldNode) advanceSkipsLocked(limit int) bool {
	advanced := false
	for f.frontier < limit && f.status[f.frontier].Load() == posSkip {
		f.insertLocked(nil, -1, 0, 0)
		f.frontier++
		advanced = true
	}
	return advanced
}

// consumeRunLocked consumes positions [frontier, fr) into the counter.
// Caller holds mu.
func (f *foldNode) consumeRunLocked(fr int) {
	for p := f.frontier; p < fr; p++ {
		if f.status[p].Load() == posStaged {
			w := 1
			if f.weights != nil {
				w = f.weights[p]
			}
			f.insertLocked(f.staged[p], p, w, f.order[p])
		} else {
			f.insertLocked(nil, -1, 0, 0)
		}
	}
	f.frontier = fr
}

// insertLocked consumes one rank: vec == nil is the ⊥ identity (the rank
// still advances the counter — alignment is rank-based). The trailing-one
// chain of the old rank index determines which pending subtrees merge.
// Caller holds mu.
func (f *foldNode) insertLocked(vec []float64, aliasPos, weight, id int) {
	r := f.rank
	f.rank++
	cur := levelSlot{alias: -1}
	if vec != nil && f.lenFail == nil {
		if f.sumLen < 0 {
			f.sumLen = len(vec)
		}
		if len(vec) != f.sumLen {
			f.lenFail = fmt.Errorf("fl: client %d submitted %d values, others %d", id, len(vec), f.sumLen)
		} else {
			cur = levelSlot{vec: vec, alias: aliasPos}
			if f.weights != nil && aliasPos >= 0 && f.ownedPtr[aliasPos] != nil {
				// A tier above the leaves never refolds (strays need the
				// spanning leaf), so a staged buffer it owns moves into the
				// counter and merges accumulate into it in place.
				cur = levelSlot{vec: vec, owned: f.ownedPtr[aliasPos], alias: -1}
				f.staged[aliasPos], f.ownedPtr[aliasPos] = nil, nil
			}
			f.folded += weight
		}
	}
	k := 0
	for c := r; c&1 == 1; c >>= 1 {
		f.ensureLevel(k)
		left := f.levels[k]
		f.levels[k] = levelSlot{alias: -1}
		switch {
		case left.vec == nil:
			// absent subtree: cur passes through unchanged
		case cur.vec == nil:
			cur = left
		default:
			cur = f.mergeLocked(left, cur)
		}
		k++
	}
	f.ensureLevel(k)
	f.levels[k] = cur
}

func (f *foldNode) ensureLevel(k int) {
	for len(f.levels) <= k {
		f.levels = append(f.levels, levelSlot{alias: -1})
	}
}

// mergeLocked plans the elementwise addition a + b of two non-⊥ subtree
// sums, preferring to accumulate into a buffer the node already owns.
// Caller holds mu.
func (f *foldNode) mergeLocked(a, b levelSlot) levelSlot {
	switch {
	case a.owned != nil:
		last := len(f.plan) - 1
		if fusePairAdd && b.owned != nil && f.sumLen > 0 && last >= 0 &&
			f.plan[last].kind == foldOpAdd3 && &f.plan[last].dst[0] == &b.vec[0] {
			// b is x + y from the op just planned and is read only here:
			// a += (x + y) in one pass, same grouping, b never written.
			f.plan[last].kind, f.plan[last].dst = foldOpAdd3To, a.vec
		} else {
			f.plan = append(f.plan, foldOp{kind: foldOpAdd2, dst: a.vec, a1: b.vec})
		}
		if b.owned != nil {
			f.spare = append(f.spare, b.owned)
		}
		return a
	case b.owned != nil:
		f.plan = append(f.plan, foldOp{kind: foldOpAdd3, dst: b.vec, a1: a.vec, a2: b.vec})
		return b
	default:
		buf := f.getBufLocked()
		dst := (*buf)[:f.sumLen]
		f.plan = append(f.plan, foldOp{kind: foldOpAdd3, dst: dst, a1: a.vec, a2: b.vec})
		return levelSlot{vec: dst, owned: buf, alias: -1}
	}
}

// getBufLocked reuses a buffer freed by an earlier merge of this
// collective, falling back to the pool. Reuse within one plan is safe:
// the plan kernel executes ops sequentially per grain, so a buffer read
// by an earlier op is only overwritten by a later op on the same grain.
func (f *foldNode) getBufLocked() *[]float64 {
	if n := len(f.spare); n > 0 {
		buf := f.spare[n-1]
		f.spare[n-1] = nil // see dropPlan
		f.spare = f.spare[:n-1]
		if cap(*buf) >= f.sumLen {
			return buf
		}
		codec.PutVals(buf)
	}
	return codec.GetVals(f.sumLen)
}

// dropPlan empties the plan and zeroes its ops: a truncated slice still
// references what its old elements named, and a node on the free list would
// pin those vectors — pooled buffers long since returned, callers' slices —
// past every collection.
func (f *foldNode) dropPlan() {
	clear(f.plan)
	f.plan = f.plan[:0]
}

// execPlanLocked runs the accumulated fold plan with one parallel pass
// over the parameter dimension. Every element receives the plan's merges
// in a single chunk, so the result is bit-identical at every worker count
// and grain. Caller holds mu.
func (f *foldNode) execPlanLocked() {
	if len(f.plan) == 0 {
		return
	}
	par.ParallelizeGrain(f.sumLen, foldGrain, f.planFn)
	f.dropPlan()
}

// finalizeLocked merges the residual counter levels into the collective
// sum. Merging low level to high reproduces the canonical tree: the
// virtual ⊥ ranks padding the roster to a power of two merge as the
// identity, leaving exactly the right-spine combination of the completed
// subtrees. The result is materialized into owned storage (never an
// aliased caller slice). Caller holds mu; returns the pooled buffer holding
// the sum (nil when nothing folded) and the weighted contribution count.
func (f *foldNode) finalizeLocked() (*[]float64, int) {
	if f.lenFail != nil {
		return nil, 0
	}
	res := levelSlot{alias: -1}
	for k := 0; k < len(f.levels); k++ {
		l := f.levels[k]
		if l.vec == nil {
			continue
		}
		f.levels[k] = levelSlot{alias: -1}
		if res.vec == nil {
			res = l
			continue
		}
		res = f.mergeLocked(l, res)
	}
	if res.vec == nil {
		return nil, 0
	}
	if res.owned == nil {
		// Single-contribution collectives end with the staged slice
		// itself: the result outlives the caller's barrier wait, so it
		// must be copied into owned storage.
		buf := f.getBufLocked()
		dst := (*buf)[:f.sumLen]
		f.plan = append(f.plan, foldOp{kind: foldOpCopy, dst: dst, a1: res.vec})
		res = levelSlot{vec: dst, owned: buf, alias: -1}
	}
	f.execPlanLocked()
	// The buffer leaves the node with the sum: complete's caller owns it.
	f.result, *res.owned = res.vec, res.vec
	return res.owned, f.folded
}

// scaleResultLocked scales the finalized sum in place by 1/weight with
// one parallel pass — the mean the root publishes. Caller holds mu.
func (f *foldNode) scaleResultLocked(weight int) {
	if f.result == nil || weight <= 0 {
		return
	}
	f.scaleInv = 1.0 / float64(weight)
	//lint:allow lockhold -- the fold mutex is the leaf lock of its collective: the completing goroutine is its sole holder after finish, and pool workers never take it, so the dispatch cannot deadlock
	par.ParallelizeGrain(f.sumLen, foldGrain, f.scaleFn)
}

// refoldLocked recomputes the fold from scratch over every retained
// contribution — roster positions and strays together, ascending by id —
// restoring the canonical rank order over the combined contributor list
// when stray ids would otherwise have interleaved below the already-
// consumed frontier. With strays present the rank structure is the dense
// index over the combined ascending contributors (single-leaf topologies
// only; aligned-block trees reject strays). Caller holds mu.
func (f *foldNode) refoldLocked() {
	// Drop counter state; owned buffers become spares for the replay.
	for i := range f.levels {
		if f.levels[i].owned != nil {
			f.spare = append(f.spare, f.levels[i].owned)
		}
		f.levels[i] = levelSlot{alias: -1}
	}
	f.levels = f.levels[:0]
	f.dropPlan()
	f.rank, f.folded = 0, 0
	f.sumLen = -1
	f.lenFail = nil

	ids := make([]int, 0, len(f.order)+len(f.strays))
	vecs := make(map[int][]float64, len(f.order)+len(f.strays))
	ws := make(map[int]int, len(f.strays))
	for p, id := range f.order {
		if f.status[p].Load() == posStaged {
			ids = append(ids, id)
			vecs[id] = f.staged[p]
			if f.weights != nil {
				ws[id] = f.weights[p]
			} else {
				ws[id] = 1
			}
		}
	}
	for id, s := range f.strays {
		ids = append(ids, id)
		vecs[id] = *s.buf
		ws[id] = s.weight
	}
	sortInts(ids)
	for _, id := range ids {
		f.insertLocked(vecs[id], -1, ws[id], id)
	}
	f.execPlanLocked()
}

// complete drains the remaining work and produces the collective result
// (the raw canonical sum, or the mean when scaleMean is set) plus the
// weighted contributor count, or the deterministic length-mismatch
// failure. res is a pooled buffer and the caller's from here on: a parent
// node takes it over (stageWeighted), a relay returns it once forwarded, and
// the root's published mean stays with its collective, which returns it when
// every reader was counted (Hold) and leaves it to the collector otherwise.
// It releases every staged reference before returning — caller
// slices go back to their owners, pooled copies and strays to the pool —
// so a post-completion detach sees nil and does nothing. It must run on
// exactly one goroutine per collective (the owner's finished flag).
func (f *foldNode) complete(scaleMean bool) (res *[]float64, weight int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.drainLocked(true)
	if len(f.strays) > 0 {
		f.refoldLocked()
	}
	if f.lenFail != nil {
		err = f.lenFail
	} else {
		res, weight = f.finalizeLocked()
		if scaleMean {
			f.scaleResultLocked(weight)
		}
	}
	f.releaseStagedLocked()
	return res, weight, err
}

// releaseStagedLocked is the one list of what a node gives back to the
// pool: it drops every staged reference and sweeps the counter levels
// (which still hold owned buffers when a length failure aborted the fold
// before finalize). Caller holds mu, or is reset.
func (f *foldNode) releaseStagedLocked() {
	for p := range f.staged {
		codec.PutVals(f.ownedPtr[p])
		f.ownedPtr[p] = nil
		f.staged[p] = nil
	}
	for id, s := range f.strays {
		codec.PutVals(s.buf)
		delete(f.strays, id)
	}
	for i := range f.levels {
		codec.PutVals(f.levels[i].owned)
		f.levels[i] = levelSlot{alias: -1}
	}
	f.levels = f.levels[:0]
	for i, p := range f.spare {
		codec.PutVals(p)
		f.spare[i] = nil
	}
	f.spare = f.spare[:0]
}

// detach replaces a reference-staged contribution with a pooled copy: the
// abandoning caller may legally reuse its slice the moment its wait
// returns, while the barrier is still open. The copy substitutes both in
// the staged slot (the refold path) and in any counter level that still
// aliases the caller's slice. After completion the staged slot is nil and
// the slice is no longer needed.
func (f *foldNode) detach(p int) {
	f.mu.Lock()
	if f.staged[p] != nil && f.ownedPtr[p] == nil {
		buf := codec.GetVals(len(f.staged[p]))
		copy(*buf, f.staged[p])
		f.staged[p] = *buf
		f.ownedPtr[p] = buf
		for k := range f.levels {
			if f.levels[k].alias == p {
				f.levels[k].vec = *buf
				f.levels[k].alias = -1
			}
		}
	}
	f.mu.Unlock()
}

// skip resolves an id's position without a contribution (eviction path).
// Safe to call from bookkeeping code; the next drain consumes the rank.
func (f *foldNode) skip(id int) {
	if p, ok := f.pos[id]; ok {
		f.status[p].Store(posSkip)
	}
}
