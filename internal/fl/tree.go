package fl

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fedsu/internal/sparse/codec"
)

// Tree is the aggregation service — Algorithm 1's Central_Server. Each
// collective (model-average or error-average, per round) is a barrier:
// every roster member must resolve (submit, abstain, or be evicted) before
// any waiter receives the element-wise mean over the contributing
// participants. There is ONE barrier state machine, built over tiers of
// fold nodes (fold.go); the topology decides everything else:
//
//   - NewServer(n), the flat collective, is the topology with a single leaf
//     spanning the whole roster, implied as {0..n-1} until SetRoster.
//   - NewTree(f) cuts the roster into ALIGNED blocks of f ranks (f rounded
//     up to a power of two), one leaf aggregator per block. Each leaf folds
//     its block locally and forwards ONE partial — (canonical sum,
//     contributor weight) — to its parent; tiers repeat until the root,
//     which scales the total by the total weight. Root work is O(fanout),
//     not O(participants), which is what lets a cohort sampled from a
//     10^5–10^6 population aggregate without one node folding every
//     submission.
//
// # Determinism and bit-identity across topologies
//
// Submission order across clients is arbitrary (clients run in
// goroutines), but results are deterministic: every fold node combines its
// inputs in the canonical rank-aligned pairwise order — a fixed balanced
// binary tree over ascending roster ranks — and the parallel fold shards
// over the parameter index, so every element sees the same addition
// sequence at every worker count. Because leaves cover aligned
// power-of-two rank blocks, a tree evaluates exactly the same balanced
// addition tree as the single leaf does: the global vector is identical to
// the last bit at any fanout (TestTreeFlatBitIdentity).
//
// # Streaming aggregation
//
// The collective never holds its mutex across O(model) work. A submission
// is staged by reference outside the lock and folded into its leaf's
// running sum as soon as every lower rank of the leaf has resolved — the
// "frontier" — on whichever client goroutine gets there first, so ingest
// overlaps with stragglers' uploads and closing a node only has to drain
// what is still staged.
//
// # Fault tolerance
//
// With a deadline set (SetDeadline), a barrier that does not fill within
// the deadline of its first submission closes with the submissions it has:
// the missing members are evicted, every tier completes with the partials
// it has (an empty leaf forwards the identity), the mean is over the
// actual contributors, and later submissions from evicted clients fail
// with ErrEvicted. An alive probe (SetAliveProbe) grants one deadline
// extension when a missing client still heartbeats — distinguishing slow
// from dead — so the worst-case barrier span is two deadlines. An eviction
// resolves the client in every in-flight collective at once, and in every
// collective armed later it keeps its rank slot, resolved as a skip, until
// the next SetRoster drops it: a dead client costs a round one deadline,
// and aligned blocks never shift mid-round. With no deadline (the default)
// barriers block until they fill.
//
// # What the topology enables
//
// Stray contributions (ids that are not pending members: outside the
// roster, or readmitted mid-round) fold only into a single spanning leaf,
// which can refold everything in id order at completion; an aligned-block
// tree cannot rank a stray and rejects it. Remote partials
// (AggregatePartial) need a parent tier to stage into, hence two tiers or
// more. The implied roster belongs to NewServer. Buffered-async mode
// (SetAsync, server_async.go) bypasses the barrier entirely and is offered
// on the flat collective only.
type Tree struct {
	mu sync.Mutex

	// fanout is the leaf block width in roster ranks; zero is the flat
	// collective, whose one leaf spans the roster whatever its length.
	fanout int

	// roster is the ascending list of ids expected at every barrier, and
	// pos its id → rank index.
	roster       []int
	pos          map[int]int
	participants map[int]bool
	cols         map[opKey]*treeCol

	deadline   time.Duration
	aliveProbe func(clientID int) bool
	idempotent bool
	evicted    map[int]bool

	// Cumulative fault counters (see EvictionCount / TimeoutCount).
	evictions int
	timeouts  int

	// Subtree (relay) mode: when upstream is non-nil this collective is one
	// aligned block of a larger roster — the root node forwards its raw
	// partial through upstream instead of scaling a mean, and publishes
	// whatever the upstream returns. upstreamBase is the block's first
	// rank in the enclosing roster.
	upstream     UpstreamFunc
	upstreamBase int

	// Cumulative per-tier telemetry (tier 0 = leaves). tierEvictions[0]
	// counts client evictions at the leaves; higher tiers count child
	// aggregators that contributed nothing to their parent.
	tierEvictions []int
	leafFolds     int
	partials      int

	// gen numbers the armed collectives; nodeFree and colFree recycle their
	// shells (maps, tier slices, fold scratch) across rounds so a
	// steady-state collective allocates nothing but its done channel and,
	// when a waiter took it without a Hold, the root's result.
	gen      uint64
	nodeFree []*tierNode
	colFree  []*treeCol

	// Buffered-async aggregation mode (see SetAsync / server_async.go).
	// When enabled, submissions bypass the barrier machinery entirely:
	// they fold into per-kind weighted accumulators as they arrive and the
	// global applies every acfg.K contributions.
	async  bool
	acfg   AsyncConfig
	amu    sync.Mutex
	achan  map[string]*asyncChan
	astale int
}

type opKey struct {
	round int
	kind  string
}

// treeCol is one collective (round, kind): the tier topology plus the
// barrier bookkeeping, all guarded by Tree.mu except the fold nodes.
type treeCol struct {
	// gen is the arming generation. A deadline timer captures the
	// generation it was armed for, and expire ignores a firing whose
	// generation no longer matches: a timer that outlives its barrier
	// (fires after the shell returned to the free list, or was recycled
	// into a new collective — even one at the same (round, kind) key,
	// which a checkpoint replay can produce) must be a no-op instead of
	// evicting the new barrier's clients.
	gen       uint64
	key       opKey
	tiers     [][]*tierNode
	pending   map[int]bool // roster members not yet resolved
	submitted map[int]bool
	finished  bool
	timer     *time.Timer
	extended  bool

	// Published before done closes; read by waiters after.
	result  []float64
	failure error
	done    chan struct{}
	// resultBuf is the pooled buffer under result, nil for a relayed global
	// (the upstream's slice). BeginRound returns it with the shell unless
	// escaped says a waiter took result without a Hold and may keep it.
	resultBuf *[]float64
	escaped   atomic.Bool
	// holders counts the Aggregate calls between looking the collective up
	// and returning, and the Holds not yet released: BeginRound recycles the
	// shell under none of them.
	holders atomic.Int32
}

// Hold is a counted reader's claim on one collective's result. A call made
// under WithHold reads the slice it returns only until Release; when every
// waiter of a collective held and released, the result's buffer is recycled
// with the collective instead of falling to the collector. A Hold that is
// never released only forfeits that.
type Hold struct{ col *treeCol }

type holdKey struct{}

// WithHold returns ctx carrying h for one Aggregate*Ctx or
// AggregatePartialCtx call.
func WithHold(ctx context.Context, h *Hold) context.Context {
	return context.WithValue(ctx, holdKey{}, h)
}

// Release ends the claim; the result must not be read afterwards.
func (h *Hold) Release() {
	if h.col != nil {
		h.col.holders.Add(-1)
		h.col = nil
	}
}

// tierNode is one aggregator of a collective. done flips under Tree.mu
// when the last expected input resolves; the flagged goroutine runs the
// node's fold completion outside the lock and forwards the partial.
type tierNode struct {
	fold    *foldNode
	col     *treeCol
	tier    int
	index   int // position within its tier == child rank at the parent
	need    int
	subs    int
	done    bool
	remote  bool // resolved by a remote partial (AggregatePartial)
	failure error
}

// NewTree builds a hierarchical aggregator with the given fanout (values
// below 2 default to 2; non-powers of two round up, preserving rank
// alignment). The roster is declared by SetRoster before the first
// collective of a round.
func NewTree(fanout int) *Tree {
	f := 2
	for f < fanout {
		f <<= 1
	}
	return newTree(f)
}

func newTree(fanout int) *Tree {
	return &Tree{
		fanout:       fanout,
		pos:          map[int]int{},
		participants: map[int]bool{},
		cols:         map[opKey]*treeCol{},
		evicted:      map[int]bool{},
	}
}

// Fanout returns the effective (power-of-two) leaf block width; zero for
// the flat collective, whose single leaf spans the whole roster.
func (t *Tree) Fanout() int { return t.fanout }

// SetDeadline bounds every collective barrier: d after the first submission
// arrives, the barrier closes with whoever has submitted and evicts the
// rest. Zero (the default) disables the bound and restores blocking
// barriers. It must not be called while collectives are in flight.
func (t *Tree) SetDeadline(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deadline = d
}

// SetAliveProbe installs a liveness oracle consulted when a deadline
// expires: a missing-but-alive client (a slow straggler, per its
// heartbeats) buys the barrier one extension of the same deadline before
// eviction proceeds. A nil probe (the default) treats every missing client
// as dead.
func (t *Tree) SetAliveProbe(probe func(clientID int) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.aliveProbe = probe
}

// SetIdempotent makes duplicate submissions benign: a client resubmitting
// to a collective it already joined, or a relay resubmitting a block's
// partial (a retry after a dropped connection), waits for and receives the
// collective result instead of an error. The first submission's values
// win. The default (false) keeps strict double-submit errors, which catch
// strategy bugs in-process.
func (t *Tree) SetIdempotent(v bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.idempotent = v
}

// SetRoster declares the client ids expected at every barrier, in any
// order; ranks are assigned by ascending id. Already-evicted ids are
// dropped until readmitted. It must not be called while collectives are in
// flight.
func (t *Tree) SetRoster(ids []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roster = t.roster[:0]
	for _, id := range ids {
		if !t.evicted[id] {
			t.roster = append(t.roster, id)
		}
	}
	sortInts(t.roster)
	t.rankRosterLocked()
}

// rankRosterLocked rebuilds the id → rank index. Caller holds t.mu.
func (t *Tree) rankRosterLocked() {
	clear(t.pos)
	for p, id := range t.roster {
		t.pos[id] = p
	}
}

// Readmit clears a client's evicted status (a rejoin after reconnecting).
// It does NOT edit the roster: an id SetRoster dropped re-enters at the
// next SetRoster that lists it, and one that still holds a rank slot (the
// implied roster, or an eviction since the last SetRoster) is expected
// again from the next collective armed. Injecting the id straight into the
// active roster would make later barriers of the in-flight session require
// a submission from a client the caller's roster never listed, which
// ghost-blocks the barrier when that client makes no further calls.
func (t *Tree) Readmit(clientID int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.evicted, clientID)
}

// Evicted returns the currently evicted client ids in ascending order.
func (t *Tree) Evicted() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.evicted))
	for id := range t.evicted {
		out = append(out, id)
	}
	sortInts(out)
	return out
}

// EvictionCount returns the cumulative number of deadline evictions.
func (t *Tree) EvictionCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evictions
}

// TimeoutCount returns the cumulative number of collectives closed by
// deadline expiry.
func (t *Tree) TimeoutCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.timeouts
}

// TierStats is the per-tier telemetry snapshot surfaced in RoundStats.
type TierStats struct {
	// Tiers is the number of aggregation tiers (leaves included, root
	// included) of the most recent topology; 1 for the flat collective.
	Tiers int
	// LeafFolds counts completed leaf fold batches forwarded to a parent
	// (one per leaf per collective; a single-tier collective has none).
	LeafFolds int
	// ForwardedPartials counts partial messages sent upward (leaf and mid
	// tiers; the root consumes, never forwards).
	ForwardedPartials int
	// TierEvictions[i] counts, cumulatively, inputs tier i closed without:
	// index 0 is clients evicted at the leaves, index i>0 is child
	// aggregators that forwarded nothing.
	TierEvictions []int
}

// Stats returns cumulative per-tier telemetry.
func (t *Tree) Stats() TierStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	tiers := 0
	if n := len(t.roster); n > 0 {
		tiers = 1
		if t.fanout > 0 {
			for w := (n + t.fanout - 1) / t.fanout; w > 1; w = (w + t.fanout - 1) / t.fanout {
				tiers++
			}
		}
	}
	return TierStats{
		Tiers:             tiers,
		LeafFolds:         t.leafFolds,
		ForwardedPartials: t.partials,
		TierEvictions:     append([]int(nil), t.tierEvictions...),
	}
}

// BeginRound declares the active round and the participation quorum: only
// listed clients' submissions contribute to averages this round (everyone
// still synchronizes and receives results). It also garbage-collects the
// previous round's collectives, recycling their shells.
func (t *Tree) BeginRound(round int, participants []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.participants)
	for _, id := range participants {
		t.participants[id] = true
	}
	// Drop all collectives. BeginRound is only called when none is in
	// flight (every barrier of the previous round has closed), and a
	// checkpoint restore may legitimately replay an earlier round index, so
	// the whole map is cleared rather than just older rounds. Waiters hold
	// direct pointers and may not have woken yet (over flrpc a fast client's
	// next round arrives while a slow handler is still on its way out), so a
	// collective that is unfinished (contract violation) or still held is
	// dropped rather than recycled.
	for k, c := range t.cols {
		if c.timer != nil {
			c.timer.Stop()
			c.timer = nil
		}
		if c.finished && c.holders.Load() == 0 {
			if !c.escaped.Load() {
				codec.PutVals(c.resultBuf)
			}
			t.recycleColLocked(c)
		}
		delete(t.cols, k)
	}
}

// AggregateModel implements sparse.Aggregator. values is only read for the
// duration of the call — it is staged by reference while the caller blocks,
// and an abandoned wait detaches a copy — so callers may reuse the slice
// immediately after return. The returned slice is shared by every waiter
// of the collective and must not be mutated.
func (t *Tree) AggregateModel(clientID, round int, values []float64) ([]float64, error) {
	return t.aggregate(context.Background(), clientID, round, "model", values)
}

// AggregateError implements sparse.Aggregator, with the same ownership
// contract as AggregateModel.
func (t *Tree) AggregateError(clientID, round int, values []float64) ([]float64, error) {
	return t.aggregate(context.Background(), clientID, round, "error", values)
}

// AggregateModelCtx implements sparse.ContextAggregator: the barrier wait
// aborts with ctx.Err() on cancellation. The submission itself stays
// registered (as a detached copy, so the caller's slice is safe to reuse
// even after an abandoned wait), and the collective still completes for
// the other clients.
func (t *Tree) AggregateModelCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	return t.aggregate(ctx, clientID, round, "model", values)
}

// AggregateErrorCtx implements sparse.ContextAggregator.
func (t *Tree) AggregateErrorCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	return t.aggregate(ctx, clientID, round, "error", values)
}

// colLocked returns the collective for key, arming it (topology, pending
// set, deadline timer) on first touch. Leaves cover aligned fanout-sized
// rank blocks — one block spanning everything when fanout is zero — and
// each tier above folds fanout children until one root remains. ready
// lists nodes that armed with nothing left to wait for (every member
// already evicted); the caller cascades them after releasing t.mu. Caller
// holds t.mu.
func (t *Tree) colLocked(key opKey) (*treeCol, []*tierNode) {
	if c, ok := t.cols[key]; ok {
		return c, nil
	}
	var c *treeCol
	var ready []*tierNode
	if n := len(t.colFree); n > 0 {
		c, t.colFree = t.colFree[n-1], t.colFree[:n-1]
	} else {
		c = &treeCol{pending: map[int]bool{}, submitted: map[int]bool{}}
	}
	t.gen++
	c.gen = t.gen
	c.key = key
	c.done = make(chan struct{})

	n := len(t.roster)
	span := t.fanout
	if span == 0 {
		span = max(n, 1)
	}
	width := max((n+span-1)/span, 1)
	for l := 0; l < width; l++ {
		lo := l * span
		hi := min(lo+span, n)
		t.addNodeLocked(c, 0, hi-lo).fold.arm(t.roster[lo:hi])
	}
	for tier := 1; width > 1; tier++ {
		parents := (width + span - 1) / span
		for i := 0; i < parents; i++ {
			children := min((i+1)*span, width) - i*span
			t.addNodeLocked(c, tier, children).fold.armRanks(children)
		}
		width = parents
	}
	for len(t.tierEvictions) < len(c.tiers) {
		t.tierEvictions = append(t.tierEvictions, 0)
	}
	// An evicted member keeps its rank slot, resolved as a skip, so block
	// alignment holds until the next SetRoster.
	for _, id := range t.roster {
		c.pending[id] = true
		if t.evicted[id] {
			ready = t.resolveLocked(c, id, ready)
		}
	}
	if t.deadline > 0 {
		gen := c.gen
		c.timer = time.AfterFunc(t.deadline, func() { t.expire(key, c, gen) })
	}
	t.cols[key] = c
	return c, ready
}

// addNodeLocked appends a recycled (or new) node expecting need inputs to
// the given tier of c, reusing the tier slices a recycled shell kept.
// Caller holds t.mu.
func (t *Tree) addNodeLocked(c *treeCol, tier, need int) *tierNode {
	var node *tierNode
	if n := len(t.nodeFree); n > 0 {
		node, t.nodeFree = t.nodeFree[n-1], t.nodeFree[:n-1]
	} else {
		node = &tierNode{fold: newFoldNode()}
	}
	if tier == len(c.tiers) {
		if tier < cap(c.tiers) {
			c.tiers = c.tiers[:tier+1]
		} else {
			c.tiers = append(c.tiers, nil)
		}
	}
	*node = tierNode{fold: node.fold, col: c, tier: tier, index: len(c.tiers[tier]), need: need}
	c.tiers[tier] = append(c.tiers[tier], node)
	return node
}

// recycleColLocked resets a finished collective's shells onto the free
// lists. Completion already released the staged buffers; a straggler that
// published after the barrier closed is swept by the fold reset. Caller
// holds t.mu; no waiter is still inside (c.holders is zero).
func (t *Tree) recycleColLocked(c *treeCol) {
	clear(c.pending)
	clear(c.submitted)
	for i, tier := range c.tiers {
		for _, node := range tier {
			node.fold.reset()
			node.col = nil
			t.nodeFree = append(t.nodeFree, node)
		}
		c.tiers[i] = tier[:0]
	}
	*c = treeCol{tiers: c.tiers[:0], pending: c.pending, submitted: c.submitted}
	t.colFree = append(t.colFree, c)
}

// leafLocked maps a roster rank to its leaf node. Caller holds t.mu.
func (t *Tree) leafLocked(c *treeCol, rank int) *tierNode {
	if t.fanout == 0 {
		return c.tiers[0][0]
	}
	return c.tiers[0][rank/t.fanout]
}

func (t *Tree) aggregate(ctx context.Context, clientID, round int, kind string, values []float64) ([]float64, error) {
	t.mu.Lock()
	if t.evicted[clientID] {
		t.mu.Unlock()
		return nil, &EvictedError{ClientID: clientID}
	}
	if t.async {
		t.mu.Unlock()
		return t.asyncSubmit(ctx, clientID, kind, values)
	}
	c, ready := t.colLocked(opKey{round: round, kind: kind})
	c.holders.Add(1)
	defer c.holders.Add(-1)
	if c.submitted[clientID] {
		strict := !t.idempotent
		t.mu.Unlock()
		if strict {
			return nil, fmt.Errorf("fl: client %d double-submitted %s collective of round %d", clientID, kind, round)
		}
		// Retry after a dropped connection: the first submission is already
		// in the barrier; just wait for (or return) the result.
		return t.wait(ctx, c, nil, -1)
	}
	// A member is a roster id this collective still waits for. Anything
	// else — outside the roster, or resolved by an eviction and readmitted
	// since — is a stray: it still counts toward the mean, but only a
	// single spanning leaf can place it.
	member := c.pending[clientID]
	if !member && t.fanout != 0 {
		t.mu.Unlock()
		t.cascade(ready)
		return nil, fmt.Errorf("fl: client %d is not a pending member of the tree roster (stray contributions need the flat collective)", clientID)
	}
	c.submitted[clientID] = true
	delete(c.pending, clientID)
	contributing := values != nil && t.participants[clientID]
	leaf := t.leafLocked(c, t.pos[clientID])
	closed := leaf.done
	t.mu.Unlock()

	detach := -1
	var closing *tierNode
	if !closed {
		// O(model) work — staging and any opportunistic fold — happens
		// here, outside t.mu. Member contributions are staged by reference:
		// the submitting caller stays blocked until the barrier closes, so
		// its slice is stable for the fold's lifetime, and an abandoned wait
		// detaches a copy first (see wait).
		if member {
			detach = leaf.fold.stage(clientID, values, contributing)
		} else if contributing {
			leaf.fold.addStray(clientID, values, 1)
		}
		t.mu.Lock()
		leaf.subs++
		if t.nodeReadyLocked(leaf) {
			closing = leaf
		}
		t.mu.Unlock()
	}
	t.cascade(ready)
	t.climb(closing)
	return t.wait(ctx, c, leaf, detach)
}

// nodeReadyLocked marks a node done when its last input resolved,
// returning whether the caller should run its completion. Caller holds
// t.mu.
func (t *Tree) nodeReadyLocked(n *tierNode) bool {
	if !n.done && n.subs >= n.need {
		n.done = true
		return true
	}
	return false
}

// climb completes a ready node (nil is a no-op) outside t.mu and forwards
// its partial upward, continuing as long as completions ripple toward the
// root.
func (t *Tree) climb(node *tierNode) {
	for node != nil {
		node = t.completeNode(node)
	}
}

// cascade climbs from every node an eviction (or an arming over evicted
// members) left ready.
func (t *Tree) cascade(ready []*tierNode) {
	for _, node := range ready {
		t.climb(node)
	}
}

// completeNode closes one node's fold. The root publishes the collective;
// any other node stages its partial into its parent and returns the parent
// when that was the parent's last input.
func (t *Tree) completeNode(node *tierNode) *tierNode {
	c := node.col
	if node.tier == len(c.tiers)-1 {
		t.mu.Lock()
		up, base := t.upstream, t.upstreamBase
		t.mu.Unlock()
		if up == nil {
			res, _, err := node.fold.complete(true)
			t.finishRoot(c, node, vals(res), res, err)
			return nil
		}
		// Subtree mode: the "root" is one aligned block of a larger
		// roster. Forward the raw (sum, weight) partial upward and
		// publish whatever global the upstream hands back.
		sum, weight, err := node.fold.complete(false)
		var global []float64
		if err == nil {
			global, err = up(c.key.round, c.key.kind, base, vals(sum), weight)
		}
		codec.PutVals(sum)
		t.finishRoot(c, node, global, nil, err)
		return nil
	}
	span := t.fanout
	res, weight, err := node.fold.complete(false)
	parent := c.tiers[node.tier+1][node.index/span]
	if err != nil {
		node.failure = err
	}
	forwarded := res != nil // an error or an empty node returns no sum
	parent.fold.stageWeighted(node.index%span, vals(res), res, weight)

	t.mu.Lock()
	defer t.mu.Unlock()
	if node.tier == 0 {
		t.leafFolds++
	}
	if forwarded {
		t.partials++
	} else {
		// This input to the parent tier resolved empty.
		t.tierEvictions[node.tier+1]++
	}
	parent.subs++
	if t.nodeReadyLocked(parent) {
		return parent
	}
	return nil
}

// vals is the vector in a pooled buffer, nil for none.
func vals(p *[]float64) []float64 {
	if p == nil {
		return nil
	}
	return *p
}

// finishRoot publishes the collective result and wakes every waiter. A
// failure recorded anywhere in the tree wins over the (partial) result;
// the lowest tier, lowest index failure is chosen so the reported error
// does not depend on completion timing. buf is the pooled buffer under res,
// if any: it stays with the collective until BeginRound (see treeCol).
func (t *Tree) finishRoot(c *treeCol, root *tierNode, res []float64, buf *[]float64, err error) {
	root.failure = err
	t.mu.Lock()
	var failure error
	for _, tier := range c.tiers {
		for _, node := range tier {
			if failure == nil && node.failure != nil {
				failure = node.failure
			}
		}
	}
	if failure != nil {
		if root.failure == failure && root.tier > 0 {
			failure = fmt.Errorf("fl: tier %d aggregator: %w", root.tier, failure)
		}
		c.failure = failure
	} else {
		c.result = res
	}
	c.resultBuf = buf // a failure publishes no result; the buffer still goes back with the shell
	c.finished = true
	if c.timer != nil {
		c.timer.Stop()
	}
	t.mu.Unlock()
	close(c.done)
}

// wait blocks until the collective completes or ctx is cancelled. detach
// is the caller's reference-staged position in node's fold (-1 if none):
// on an abandoned wait the contribution is snapshotted into a pooled
// buffer first, because the caller may legally reuse its slice the moment
// this returns while the barrier is still open.
func (t *Tree) wait(ctx context.Context, c *treeCol, node *tierNode, detach int) ([]float64, error) {
	select {
	case <-c.done:
	case <-ctx.Done():
		if detach >= 0 {
			node.fold.detach(detach)
		}
		return nil, ctx.Err()
	}
	if c.failure != nil {
		return nil, c.failure
	}
	if h, _ := ctx.Value(holdKey{}).(*Hold); h != nil && h.col == nil {
		c.holders.Add(1) // on top of the caller's own count, which ends when it returns
		h.col = c
	} else {
		c.escaped.Store(true)
	}
	return c.result, nil
}

// expire closes a deadline-expired barrier: every pending member is either
// granted one collective-wide extension (if the alive probe vouches for
// any of them and none was granted yet) or evicted, after which every
// affected tier completes with what it has.
//
// armed and gen identify the barrier the timer was armed for. A stale
// firing — the collective completed and was recycled (possibly reused for
// a new collective, even at the same key) between the timer going off and
// this lock acquisition — fails the identity check and does nothing.
func (t *Tree) expire(key opKey, armed *treeCol, gen uint64) {
	t.mu.Lock()
	c := t.cols[key]
	if c == nil || c != armed || c.gen != gen || c.finished || len(c.pending) == 0 {
		t.mu.Unlock()
		return
	}
	if !c.extended && t.aliveProbe != nil {
		for id := range c.pending {
			if t.aliveProbe(id) {
				c.extended = true
				c.timer.Reset(t.deadline)
				t.mu.Unlock()
				return
			}
		}
	}
	t.timeouts++
	var ready []*tierNode
	for id := range c.pending {
		ready = t.evictLocked(id, ready)
	}
	t.mu.Unlock()
	// The heavy close-out (drain, scale, waking waiters) runs unlocked.
	t.cascade(ready)
}

// evictLocked evicts a client and resolves it in every in-flight
// collective, so a dead client cannot stall the round's remaining barriers
// for another full deadline. It returns ready extended by the nodes that
// now have all their inputs, for the caller to cascade after releasing
// t.mu. Caller holds t.mu.
func (t *Tree) evictLocked(clientID int, ready []*tierNode) []*tierNode {
	t.evicted[clientID] = true
	t.evictions++
	t.tierEvictions[0]++
	delete(t.participants, clientID)
	for _, c := range t.cols {
		if c.pending[clientID] {
			ready = t.resolveLocked(c, clientID, ready)
		}
	}
	return ready
}

// resolveLocked resolves pending member id of c without a contribution:
// its rank folds as the identity and its leaf stops waiting for it (joining
// ready if that was its last input). Caller holds t.mu.
func (t *Tree) resolveLocked(c *treeCol, id int, ready []*tierNode) []*tierNode {
	delete(c.pending, id)
	leaf := t.leafLocked(c, t.pos[id])
	leaf.fold.skip(id)
	leaf.subs++
	if t.nodeReadyLocked(leaf) {
		ready = append(ready, leaf)
	}
	return ready
}
