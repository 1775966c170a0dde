package fl

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fedsu/internal/sparse"
)

// The fault-side contract of the collective — deadlines, eviction, the
// alive probe, idempotent resubmission, readmission, cancellation, and the
// deadline-timer lifecycle — holds on every topology, so each case below
// runs over the same table: the flat collective (one spanning leaf),
// fanout 2 (9 members stack four tiers: 5 → 3 → 2 → 1 nodes) and fanout 8
// (two leaves under a root).

var topologies = []struct {
	name   string
	fanout int
}{{"flat", 0}, {"fanout2", 2}, {"fanout8", 8}}

// faultRoster is the cohort every row folds: non-contiguous ids, and nine
// of them so one dead member leaves eight submitters. faultDead sits
// mid-block at both fanouts.
var faultRoster = []int{2, 3, 7, 11, 13, 20, 21, 34, 55}

const faultDead = 13

// forTopologies runs fn once per topology row against a fresh collective
// with faultRoster declared and round 0 begun over all of it.
func forTopologies(t *testing.T, fn func(t *testing.T, c *Tree)) {
	t.Helper()
	for _, tp := range topologies {
		t.Run(tp.name, func(t *testing.T) {
			c := NewServer(len(faultRoster))
			if tp.fanout > 0 {
				c = NewTree(tp.fanout)
			}
			c.SetRoster(faultRoster)
			c.BeginRound(0, faultRoster)
			fn(t, c)
		})
	}
}

// survivors is faultRoster without faultDead.
func survivors() []int {
	out := make([]int, 0, len(faultRoster)-1)
	for _, id := range faultRoster {
		if id != faultDead {
			out = append(out, id)
		}
	}
	return out
}

// faultVecs builds one rounding-sensitive contribution per id and the
// canonical mean over them at their faultRoster ranks.
func faultVecs(ids []int) (map[int][]float64, []float64) {
	vecs := make(map[int][]float64, len(ids))
	ranked := make([][]float64, len(faultRoster))
	for _, id := range ids {
		vecs[id] = contributionFor(id, 64)
		for r, rid := range faultRoster {
			if rid == id {
				ranked[r] = vecs[id]
			}
		}
	}
	return vecs, canonicalMean(ranked)
}

// batch is a set of concurrent submissions to one collective.
type batch struct {
	what    string
	mu      sync.Mutex
	results map[int][]float64
	errs    map[int]error
	done    chan struct{}
}

// launch submits vecs[id] for every id concurrently and returns at once.
func launch(c *Tree, round int, leg sparse.Leg, ids []int, vecs map[int][]float64) *batch {
	b := &batch{
		what:    leg.String(),
		results: make(map[int][]float64, len(ids)),
		errs:    make(map[int]error, len(ids)),
		done:    make(chan struct{}),
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var res []float64
			var err error
			if leg == sparse.ErrorLeg {
				res, err = c.AggregateError(id, round, vecs[id])
			} else {
				res, err = c.AggregateModel(id, round, vecs[id])
			}
			b.mu.Lock()
			b.results[id], b.errs[id] = res, err
			b.mu.Unlock()
		}(id)
	}
	go func() { wg.Wait(); close(b.done) }()
	return b
}

// wait returns the per-id results and errors once every call returned; it
// fails the test if they are still blocked after five seconds.
func (b *batch) wait(t *testing.T) (map[int][]float64, map[int]error) {
	t.Helper()
	select {
	case <-b.done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s collective still blocked", b.what)
	}
	return b.results, b.errs
}

// submitAll is launch followed by wait.
func submitAll(t *testing.T, c *Tree, round int, leg sparse.Leg, ids []int, vecs map[int][]float64) (map[int][]float64, map[int]error) {
	t.Helper()
	return launch(c, round, leg, ids, vecs).wait(t)
}

// wantAll asserts every id got want, bit for bit, and no error.
func wantAll(t *testing.T, what string, results map[int][]float64, errs map[int]error, want []float64) {
	t.Helper()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("%s client %d: %v", what, id, err)
		}
		if !sameBits(results[id], want) {
			t.Errorf("%s client %d got %v, want %v (mean over the contributors)", what, id, results[id], want)
		}
	}
}

// All but one member submit; the last never does. The deadline must close
// the barrier over the contributors and evict the missing one.
func TestDeadlineEvictsMissingClient(t *testing.T) {
	forTopologies(t, func(t *testing.T, c *Tree) {
		c.SetDeadline(50 * time.Millisecond)
		vecs, want := faultVecs(survivors())
		start := time.Now()
		results, errs := submitAll(t, c, 0, sparse.ModelLeg, survivors(), vecs)
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("barrier took %v, deadline not enforced", el)
		}
		wantAll(t, "survivor", results, errs, want)
		if got := c.Evicted(); len(got) != 1 || got[0] != faultDead {
			t.Errorf("Evicted() = %v, want [%d]", got, faultDead)
		}
		if c.EvictionCount() != 1 || c.TimeoutCount() != 1 {
			t.Errorf("counters = %d evictions / %d timeouts, want 1/1", c.EvictionCount(), c.TimeoutCount())
		}

		// The straggler's late submission must be rejected with the typed
		// error, not absorbed into a later collective.
		if _, err := c.AggregateModel(faultDead, 0, []float64{99}); !errors.Is(err, ErrEvicted) {
			t.Errorf("late submission error = %v, want ErrEvicted", err)
		}
		var ev *EvictedError
		if _, err := c.AggregateModel(faultDead, 1, []float64{99}); !errors.As(err, &ev) || ev.ClientID != faultDead {
			t.Errorf("next-round submission error = %v, want EvictedError{%d}", err, faultDead)
		}
	})
}

// A dead member costs its round ONE deadline: the error collective closes
// by expiry and evicts it, and the model collective armed afterwards in
// the same round keeps its rank slot resolved — it neither waits a second
// deadline for a client already evicted nor counts it again.
func TestEvictedMemberCostsRoundOneDeadline(t *testing.T) {
	forTopologies(t, func(t *testing.T, c *Tree) {
		const d = 150 * time.Millisecond
		c.SetDeadline(d)
		vecs, want := faultVecs(survivors())
		results, errs := submitAll(t, c, 0, sparse.ErrorLeg, survivors(), vecs)
		wantAll(t, "error collective", results, errs, want)

		start := time.Now()
		results, errs = submitAll(t, c, 0, sparse.ModelLeg, survivors(), vecs)
		if el := time.Since(start); el > d/2 {
			t.Errorf("model collective took %v: it waited on a client the round already evicted", el)
		}
		wantAll(t, "model collective", results, errs, want)
		if c.EvictionCount() != 1 || c.TimeoutCount() != 1 {
			t.Errorf("counters = %d evictions / %d timeouts, want 1/1", c.EvictionCount(), c.TimeoutCount())
		}
		if _, err := c.AggregateModel(faultDead, 0, []float64{99}); !errors.Is(err, ErrEvicted) {
			t.Errorf("late submission error = %v, want ErrEvicted", err)
		}
	})
}

// A leaf whose every member was evicted earlier in the round arms with
// nothing left to wait for; the collective's first submitter must close it
// or the parent waits forever on an input nobody can deliver.
func TestWholeLeafEvictedBeforeArming(t *testing.T) {
	roster := []int{0, 1, 2, 3}
	c := NewTree(2) // leaves {0,1} and {2,3}
	c.SetDeadline(40 * time.Millisecond)
	c.SetRoster(roster)
	c.BeginRound(0, roster)
	vecs := map[int][]float64{0: {2}, 1: {4}}
	want := []float64{3}
	results, errs := submitAll(t, c, 0, sparse.ErrorLeg, []int{0, 1}, vecs)
	wantAll(t, "error collective", results, errs, want)
	if got := c.Evicted(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Evicted() = %v, want [2 3]", got)
	}
	c.SetDeadline(0) // a model collective that waited on the dead leaf would hang
	results, errs = submitAll(t, c, 0, sparse.ModelLeg, []int{0, 1}, vecs)
	wantAll(t, "model collective", results, errs, want)
}

// Evicting on one collective must also release the round's other in-flight
// collective rather than letting it burn a second full deadline.
func TestEvictionReleasesAllInFlightCollectives(t *testing.T) {
	forTopologies(t, func(t *testing.T, c *Tree) {
		c.SetDeadline(40 * time.Millisecond)
		vecs, want := faultVecs(survivors())
		model := launch(c, 0, sparse.ModelLeg, survivors(), vecs)
		errc := launch(c, 0, sparse.ErrorLeg, survivors(), vecs)
		results, errs := model.wait(t)
		wantAll(t, "model collective", results, errs, want)
		results, errs = errc.wait(t)
		wantAll(t, "error collective", results, errs, want)
		if c.EvictionCount() != 1 {
			t.Errorf("evictions = %d, want 1 (evicted once, across both collectives)", c.EvictionCount())
		}
	})
}

// An alive probe vouching for the straggler buys the barrier exactly one
// deadline extension; a straggler arriving inside it completes the round
// with no eviction.
func TestAliveProbeExtendsDeadlineOnce(t *testing.T) {
	forTopologies(t, func(t *testing.T, c *Tree) {
		const d = 60 * time.Millisecond
		c.SetDeadline(d)
		c.SetAliveProbe(func(int) bool { return true })
		vecs, want := faultVecs(faultRoster)

		fast := launch(c, 0, sparse.ModelLeg, survivors(), vecs)

		// Miss the first deadline but land within the extension.
		time.Sleep(d + d/2)
		slow, err := c.AggregateModel(faultDead, 0, vecs[faultDead])
		if err != nil {
			t.Fatalf("straggler inside the extension: %v", err)
		}
		results, errs := fast.wait(t)
		wantAll(t, "fast", results, errs, want)
		if !sameBits(slow, want) {
			t.Errorf("straggler result = %v, want %v (everyone contributed)", slow, want)
		}
		if c.EvictionCount() != 0 {
			t.Errorf("evictions = %d, want 0", c.EvictionCount())
		}
	})
}

// Even a permanently "alive" straggler is evicted after the single
// extension — the barrier is deadline-bounded, not deadline-hinted.
func TestAliveProbeExtensionIsBounded(t *testing.T) {
	forTopologies(t, func(t *testing.T, c *Tree) {
		c.SetDeadline(40 * time.Millisecond)
		c.SetAliveProbe(func(int) bool { return true })
		vecs, want := faultVecs(survivors())
		start := time.Now()
		results, errs := submitAll(t, c, 0, sparse.ModelLeg, survivors(), vecs)
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("barrier took %v despite the bounded extension", el)
		}
		wantAll(t, "survivor", results, errs, want)
		if c.EvictionCount() != 1 {
			t.Errorf("evictions = %d, want 1", c.EvictionCount())
		}
	})
}

// With idempotency on (the coordinator's setting), a duplicate submission
// waits for the collective instead of erroring — the first values win.
func TestIdempotentResubmission(t *testing.T) {
	forTopologies(t, func(t *testing.T, c *Tree) {
		c.SetIdempotent(true)
		vecs, want := faultVecs(faultRoster)
		first := faultRoster[0]

		var wg sync.WaitGroup
		var orig, dup []float64
		wg.Add(2)
		go func() { defer wg.Done(); orig, _ = c.AggregateModel(first, 0, vecs[first]) }()
		go func() {
			defer wg.Done()
			// Wait for the first submission to land, then resubmit.
			waitSubs(t, c, 0, sparse.ModelLeg, 1)
			dup, _ = c.AggregateModel(first, 0, []float64{999})
		}()
		waitSubs(t, c, 0, sparse.ModelLeg, 1)
		// Fill the barrier.
		results, errs := submitAll(t, c, 0, sparse.ModelLeg, faultRoster[1:], vecs)
		wg.Wait()
		wantAll(t, "filler", results, errs, want)
		for _, r := range [][]float64{orig, dup} {
			if !sameBits(r, want) {
				t.Errorf("result = %v, want %v (duplicate's 999 must not count)", r, want)
			}
		}
	})
}

// A readmitted client re-enters the roster and participates again.
func TestReadmitAfterEviction(t *testing.T) {
	forTopologies(t, func(t *testing.T, c *Tree) {
		c.SetDeadline(40 * time.Millisecond)
		vecs, want := faultVecs(survivors())
		results, errs := submitAll(t, c, 0, sparse.ModelLeg, survivors(), vecs)
		wantAll(t, "round 0", results, errs, want)
		if got := c.Evicted(); len(got) != 1 || got[0] != faultDead {
			t.Fatalf("Evicted() = %v, want [%d]", got, faultDead)
		}

		c.Readmit(faultDead)
		c.SetRoster(faultRoster)
		c.BeginRound(1, faultRoster)
		vecs, want = faultVecs(faultRoster)
		results, errs = submitAll(t, c, 1, sparse.ModelLeg, faultRoster, vecs)
		wantAll(t, "post-readmit", results, errs, want)
	})
}

// The context-aware wait aborts on cancellation without losing the
// submission: the barrier still completes for everyone else.
func TestAggregateCtxCancelAbortsWait(t *testing.T) {
	forTopologies(t, func(t *testing.T, c *Tree) {
		vecs, want := faultVecs(faultRoster)
		first := faultRoster[0]
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := c.AggregateModelCtx(ctx, first, 0, vecs[first])
			errc <- err
		}()
		waitSubs(t, c, 0, sparse.ModelLeg, 1)
		cancel()
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled wait returned %v, want context.Canceled", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("cancelled waiter still blocked")
		}

		// The cancelled client's submission survives; the rest fill the
		// barrier and get the mean over everyone.
		results, errs := submitAll(t, c, 0, sparse.ModelLeg, faultRoster[1:], vecs)
		wantAll(t, "filler", results, errs, want)
	})
}

// An explicit roster with non-contiguous ids (dynamic membership) barriers
// on exactly those ids.
func TestRosterWithNonContiguousIDs(t *testing.T) {
	s := NewServer(2)
	s.SetRoster([]int{3, 7})
	s.BeginRound(0, []int{3, 7})
	var wg sync.WaitGroup
	var ra, rb []float64
	wg.Add(2)
	go func() { defer wg.Done(); ra, _ = s.AggregateModel(3, 0, []float64{1}) }()
	go func() { defer wg.Done(); rb, _ = s.AggregateModel(7, 0, []float64{5}) }()
	wg.Wait()
	for _, r := range [][]float64{ra, rb} {
		if len(r) != 1 || r[0] != 3 {
			t.Errorf("result = %v, want [3]", r)
		}
	}
}

// The remaining cases pin the deadline-timer lifecycle: a timer firing for
// a barrier that has since completed — and whose shell may already have
// been recycled into a NEW collective, even at the same (round, leg) key —
// must be a strict no-op. The arming generation (treeCol.gen) is what makes
// the stale firing detectable; before it, a recycled shell at the same key
// passed the identity check and the stale timer could evict clients from a
// barrier it was never armed for.

// colState snapshots a collective's pointer and generation under the lock.
func colState(c *Tree, round int, leg sparse.Leg) (*treeCol, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	col := c.cols[opKey{round: round, leg: leg}]
	if col == nil {
		return nil, 0
	}
	return col, col.gen
}

// TestExpireAfterCompleteIsNoOp: firing the deadline on a finished barrier
// does nothing — no timeout is counted, nobody is evicted.
func TestExpireAfterCompleteIsNoOp(t *testing.T) {
	forTopologies(t, func(t *testing.T, c *Tree) {
		c.SetDeadline(time.Hour) // armed but never fires on its own
		vecs, _ := faultVecs(faultRoster)
		_, errs := submitInOrder(t, c, 0, faultRoster, vecs)
		for id, err := range errs {
			if err != nil {
				t.Fatalf("client %d: %v", id, err)
			}
		}
		col, gen := colState(c, 0, sparse.ModelLeg)
		if col == nil {
			t.Fatal("completed collective already gone before BeginRound")
		}
		c.expire(opKey{round: 0, leg: sparse.ModelLeg}, col, gen)
		if n := c.TimeoutCount(); n != 0 {
			t.Fatalf("stale expiry on a finished barrier counted a timeout (%d)", n)
		}
		if n := c.EvictionCount(); n != 0 {
			t.Fatalf("stale expiry on a finished barrier evicted clients (%d)", n)
		}
	})
}

// TestStaleExpireOnRecycledShellIsNoOp: the armed shell is recycled into a
// new collective at the SAME key; the old timer firing with the old
// generation must not touch the new barrier.
func TestStaleExpireOnRecycledShellIsNoOp(t *testing.T) {
	forTopologies(t, func(t *testing.T, c *Tree) {
		c.SetDeadline(time.Hour)
		vecs, _ := faultVecs(faultRoster)
		_, errs := submitInOrder(t, c, 0, faultRoster, vecs)
		for id, err := range errs {
			if err != nil {
				t.Fatalf("round 0 client %d: %v", id, err)
			}
		}
		oldCol, oldGen := colState(c, 0, sparse.ModelLeg)

		// Recycle: the round-0 shell goes to the free list and is reused for
		// the round-0 collective of the "replayed" session (same key — the
		// checkpoint-restore scenario).
		c.BeginRound(0, faultRoster)
		first := faultRoster[0]
		done := make(chan error, 1)
		go func() {
			_, err := c.AggregateModel(first, 0, vecs[first])
			done <- err
		}()
		waitSubs(t, c, 0, sparse.ModelLeg, 1)

		newCol, newGen := colState(c, 0, sparse.ModelLeg)
		if newCol != oldCol {
			t.Skip("free list did not reuse the shell; generation scenario not exercised")
		}
		if newGen == oldGen {
			t.Fatal("recycled shell kept its generation; stale timers are indistinguishable")
		}

		// The old timer fires now: same key, same pointer, old generation.
		c.expire(opKey{round: 0, leg: sparse.ModelLeg}, oldCol, oldGen)
		if n := c.EvictionCount(); n != 0 {
			t.Fatalf("stale timer evicted %d clients from the new barrier", n)
		}
		select {
		case err := <-done:
			t.Fatalf("stale timer released the new barrier early (err=%v)", err)
		case <-time.After(20 * time.Millisecond):
		}

		// The new barrier still works normally.
		_, errs2 := submitAll(t, c, 0, sparse.ModelLeg, faultRoster[1:], vecs)
		for id, err := range errs2 {
			if err != nil {
				t.Fatalf("client %d: %v", id, err)
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
}

// TestExpireWithCurrentGenerationEvicts: the guard must not block a
// legitimate expiry — correct pointer and generation still evict the
// missing client and close the barrier over the survivors.
func TestExpireWithCurrentGenerationEvicts(t *testing.T) {
	forTopologies(t, func(t *testing.T, c *Tree) {
		c.SetDeadline(time.Hour)
		vecs, _ := faultVecs(faultRoster)
		parked := launch(c, 0, sparse.ModelLeg, survivors(), vecs)
		waitSubs(t, c, 0, sparse.ModelLeg, len(faultRoster)-1)
		col, gen := colState(c, 0, sparse.ModelLeg)
		c.expire(opKey{round: 0, leg: sparse.ModelLeg}, col, gen)
		_, errs := parked.wait(t)
		for id, err := range errs {
			if err != nil {
				t.Fatalf("survivor %d errored after legitimate expiry: %v", id, err)
			}
		}
		if n := c.EvictionCount(); n != 1 {
			t.Fatalf("EvictionCount = %d, want 1", n)
		}
		if _, err := c.AggregateModel(faultDead, 0, vecs[faultDead]); !errors.Is(err, ErrEvicted) {
			t.Fatalf("evicted straggler got err = %v, want ErrEvicted", err)
		}
	})
}

// TestDeadlineExpiryRacesCompletion hammers the expire/complete race under
// the race detector: a short deadline fires while the last submission is
// landing. Every client must end each round with either the collective
// result or an eviction — never a hang, a panic, or a cross-barrier evict
// long after everyone submitted on time.
func TestDeadlineExpiryRacesCompletion(t *testing.T) {
	const iters = 150
	vecs, _ := faultVecs(faultRoster)
	for it := 0; it < iters; it++ {
		tp := topologies[it%len(topologies)]
		c := NewServer(len(faultRoster))
		if tp.fanout > 0 {
			c = NewTree(tp.fanout)
		}
		c.SetDeadline(500 * time.Microsecond)
		c.SetRoster(faultRoster)
		c.BeginRound(0, faultRoster)
		var wg sync.WaitGroup
		errs := make([]error, len(faultRoster))
		for i, id := range faultRoster {
			wg.Add(1)
			go func(i, id int) {
				defer wg.Done()
				if id == faultDead {
					// The straggler lands right around the deadline.
					time.Sleep(time.Duration(it%3) * 250 * time.Microsecond)
				}
				_, errs[i] = c.AggregateModel(id, 0, vecs[id])
			}(i, id)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil && !errors.Is(err, ErrEvicted) {
				t.Fatalf("%s iter %d client %d: unexpected error %v", tp.name, it, faultRoster[i], err)
			}
		}
		// Whatever the race outcome, the next round must start clean:
		// survivors form a fresh barrier that completes.
		alive := make([]int, 0, len(faultRoster))
		c.mu.Lock()
		for _, id := range faultRoster {
			if !c.evicted[id] {
				alive = append(alive, id)
			}
		}
		c.mu.Unlock()
		if len(alive) == 0 {
			continue
		}
		c.SetDeadline(0)
		c.SetRoster(alive)
		c.BeginRound(1, alive)
		_, errs1 := submitAll(t, c, 1, sparse.ModelLeg, alive, vecs)
		for id, err := range errs1 {
			if err != nil {
				t.Errorf("%s iter %d round 1 client %d: %v", tp.name, it, id, err)
			}
		}
	}
}
