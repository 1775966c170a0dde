package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"fedsu/internal/par"
	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
)

// meanFleet is a K-client barrier aggregator: a collective closes when all K
// clients have called it for that (kind, round) and answers every one of them
// with the mean over the contributors, summed in client order; nil when all
// abstained. A fleet whose masks diverged stops agreeing on which collectives
// run or how long their vectors are, and gets an error, not a hang.
type meanFleet struct {
	k   int
	mu  sync.Mutex
	ops map[[2]int]*fleetOp
}

type fleetOp struct {
	subs [][]float64
	n    int
	done chan struct{}
	res  []float64
	err  error
}

func newMeanFleet(k int) *meanFleet { return &meanFleet{k: k, ops: map[[2]int]*fleetOp{}} }

func (f *meanFleet) AggregateModel(id, round int, v []float64) ([]float64, error) {
	return f.aggregate(0, id, round, v)
}

func (f *meanFleet) AggregateError(id, round int, v []float64) ([]float64, error) {
	return f.aggregate(1, id, round, v)
}

func (f *meanFleet) aggregate(kind, id, round int, v []float64) ([]float64, error) {
	f.mu.Lock()
	key := [2]int{kind, round}
	op := f.ops[key]
	if op == nil {
		op = &fleetOp{subs: make([][]float64, f.k), done: make(chan struct{})}
		f.ops[key] = op
	}
	if v != nil {
		op.subs[id] = append([]float64{}, v...)
	}
	if op.n++; op.n == f.k {
		delete(f.ops, key)
		contributors := 0
		for _, s := range op.subs {
			switch {
			case s == nil:
			case op.res == nil:
				op.res, contributors = append([]float64{}, s...), 1
			case len(s) != len(op.res):
				op.err = fmt.Errorf("fleet: kind %d round %d: submissions of %d and %d values", kind, round, len(op.res), len(s))
			default:
				for j := range s {
					op.res[j] += s[j]
				}
				contributors++
			}
		}
		for j := range op.res {
			op.res[j] /= float64(contributors)
		}
		close(op.done)
	}
	f.mu.Unlock()
	select {
	case <-op.done:
		return op.res, op.err
	case <-time.After(20 * time.Second):
		return nil, fmt.Errorf("fleet: kind %d round %d: client %d waited alone", kind, round, id)
	}
}

// noisyAgg stands in for a fleet when one client is driven alone: the
// aggregate is the submission plus noise drawn from (seed, kind, round), so
// two clients that submit the same values — a manager and its oracle, or a
// manager and its restored copy — are answered identically. nil stays nil.
type noisyAgg struct {
	seed  int64
	noise float64
}

func (a noisyAgg) AggregateModel(_, round int, v []float64) ([]float64, error) {
	return a.answer(0, round, v), nil
}

func (a noisyAgg) AggregateError(_, round int, v []float64) ([]float64, error) {
	return a.answer(1, round, v), nil
}

func (a noisyAgg) answer(kind, round int, v []float64) []float64 {
	if v == nil {
		return nil
	}
	rng := rand.New(rand.NewSource(a.seed + int64(1000*round+kind)))
	out := make([]float64, len(v))
	for j := range v {
		out[j] = v[j] + a.noise*rng.NormFloat64()
	}
	return out
}

// classTrajectory is the fleet's seeded stand-in for local training: client
// c's vector at round k. Parameter i follows class i mod 8 — the adversarial
// shapes Algorithm 1 has to survive:
//
//	0  a straight line, identical on every client (promotes at once)
//	1  oscillating
//	2  a near-plateau, then a jump at a round that depends on i
//	3  sign flip every round
//	4  exactly zero, always
//	5  a straight line whose slope breaks at a round that depends on i — the
//	   breaks sweep over the rounds no-checking periods expire on
//	6  a straight line with client noise, and one client's value replaced by
//	   NaN or ±Inf on one round
//	7  random walk
type classTrajectory struct {
	seed int64
	walk [][]float64 // per client, class 7's running position
}

func newClassTrajectory(seed int64, clients, size int) *classTrajectory {
	t := &classTrajectory{seed: seed, walk: make([][]float64, clients)}
	for c := range t.walk {
		t.walk[c] = make([]float64, size)
	}
	return t
}

func (t *classTrajectory) local(k, c, size int) []float64 {
	rng := rand.New(rand.NewSource(t.seed + int64(7919*k+31*c)))
	v := make([]float64, size)
	fk := float64(k)
	for i := range v {
		z := rng.NormFloat64()
		switch i % 8 {
		case 0:
			v[i] = 0.3 + 0.02*float64(i%5+1)*fk
		case 1:
			v[i] = math.Sin(0.9*fk+float64(i)) + 0.01*z
		case 2:
			v[i] = 1 + 1e-3*fk
			if k >= 9+i%17 {
				v[i] += 3
			}
		case 3:
			v[i] = float64(1+i%3) * float64(1-2*(k%2))
		case 4:
			v[i] = 0
		case 5:
			brk := float64(7 + i/8%19)
			v[i] = -0.5 + 0.05*math.Min(fk, brk) - 0.2*math.Max(fk-brk, 0)
		case 6:
			v[i] = 0.1*fk + 1e-6*z
			if k == 5+i/8%13 && c == i%len(t.walk) {
				v[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i/8%3]
			}
		default:
			t.walk[c][i] += 0.05 * z
			v[i] = t.walk[c][i]
		}
	}
	return v
}

// sameValue is bit equality, except that any two NaNs are equal: which
// operand's payload a NaN result carries is the instruction's choice, not
// Algorithm 1's.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameValues(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d values vs %d", len(a), len(b))
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return fmt.Errorf("parameter %d: %v (%#x) vs %v (%#x)", i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
	return nil
}

// firstDiff is the first index at which two equally long slices differ, −1
// when none.
func firstDiff[T comparable](a, b []T) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// snapshot deep-copies a manager's state, both views.
func snapshot(m *Manager) *State {
	s := m.st
	for _, v := range []reflect.Value{reflect.ValueOf(&s.SharedState).Elem(), reflect.ValueOf(&s.LocalState).Elem()} {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Slice && !f.IsNil() {
				c := reflect.MakeSlice(f.Type(), f.Len(), f.Len())
				reflect.Copy(c, f)
				f.Set(c)
			}
		}
	}
	return &s
}

// restore loads a copy of s, both views, into m: a restart's restore.
func restore(m *Manager, s *State) error {
	src := &Manager{st: *s}
	for _, v := range []sparse.View{sparse.Shared, sparse.Local} {
		install, err := sparse.DecodeState(m, sparse.AppendState(nil, src, v), v, m.size)
		if err != nil {
			return err
		}
		install()
	}
	return nil
}

// sameState compares two snapshots field by field, floats with sameValue,
// and names the first parameter that differs.
func sameState(a, b *State) error {
	return sameFields(reflect.ValueOf(*a), reflect.ValueOf(*b))
}

func sameFields(va, vb reflect.Value) error {
	for f := 0; f < va.NumField(); f++ {
		name, fa, fb := va.Type().Field(f).Name, va.Field(f).Interface(), vb.Field(f).Interface()
		at := -1
		switch xa := fa.(type) {
		case SharedState, LocalState:
			if err := sameFields(va.Field(f), vb.Field(f)); err != nil {
				return err
			}
		case []float64:
			if err := sameValues(xa, fb.([]float64)); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		case []bool:
			at = firstDiff(xa, fb.([]bool))
		case []int32:
			at = firstDiff(xa, fb.([]int32))
		case []int64:
			at = firstDiff(xa, fb.([]int64))
		case []paramMode:
			at = firstDiff(xa, fb.([]paramMode))
		default:
			if fa != fb {
				return fmt.Errorf("%s: %v vs %v", name, fa, fb)
			}
		}
		if at >= 0 {
			return fmt.Errorf("%s[%d]: %v vs %v", name, at, va.Field(f).Index(at), vb.Field(f).Index(at))
		}
	}
	return nil
}

// algorithm1Cases are the option sets the lock-step suites sweep: the three
// variants, each ablation switch alone and both together, and the churning
// thresholds FuzzAlgorithm1's flags&8 sets (a loose T_ℛ, a tight T_𝒮 and a
// one-round history, so parameters promote and revert often) under full FedSU
// and v1.
func algorithm1Cases() map[string]Options {
	full := DefaultOptions()
	v1 := DefaultOptions()
	v1.Variant, v1.FixedPeriod = VariantV1, 4
	v2 := DefaultOptions()
	v2.Variant, v2.FixedPeriod, v2.LaunchProb, v2.Seed = VariantV2, 3, 0.2, 9
	raw := DefaultOptions()
	raw.RawSlope, raw.RawErrorNorm, raw.TS, raw.MinHistory = true, true, 0.5, 2
	rawSlope, rawNorm := raw, raw
	rawSlope.RawErrorNorm, rawNorm.RawSlope = false, false
	churn := DefaultOptions()
	churn.TS, churn.TR, churn.MinHistory = 0.05, 0.2, 1
	v1Churn := v1
	v1Churn.TS, v1Churn.TR, v1Churn.MinHistory = 0.05, 0.2, 1
	return map[string]Options{"full": full, "v1": v1, "v2": v2, "raw": raw, "churn": churn, "v1-churn": v1Churn,
		"raw-slope": rawSlope, "raw-norm": rawNorm}
}

// runFleetLockStep drives K managers and K oracles, each fleet behind its own
// barrier aggregator, through the same trajectory and holds every manager to
// its oracle after every round: output, traffic counts, full state, mask,
// Fig. 7 fractions. It also holds the fleet to the paper's implicit
// invariant: every client carries the same mask. Client c abstains on rounds
// where (k+c) mod 5 is 0, round 0 included. Returns what the run exercised.
func runFleetLockStep(t *testing.T, opts Options, clients, size, rounds int, seed int64) (promoted, extended, reverted int) {
	t.Helper()
	mgrFleet, refFleet := newMeanFleet(clients), newMeanFleet(clients)
	mgrs := make([]*Manager, clients)
	refs := make([]*algorithm1, clients)
	for c := range mgrs {
		var err error
		if mgrs[c], err = NewManager(c, size, mgrFleet, opts); err != nil {
			t.Fatal(err)
		}
		refs[c] = newAlgorithm1(c, size, refFleet, opts)
	}
	traj := newClassTrajectory(seed, clients, size)
	type result struct {
		out, ref        []float64
		tr              sparse.Traffic
		synced, checked int
		mgrErr, refErr  error
		before          []int32 // the manager's no-checking periods going in
	}
	for k := 0; k < rounds; k++ {
		res := make([]result, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			local := traj.local(k, c, size)
			contributes := (k+c)%5 != 0
			res[c].before = append([]int32(nil), mgrs[c].st.NoCheckPeriod...)
			wg.Add(2)
			go func(c int) {
				defer wg.Done()
				res[c].out, res[c].tr, res[c].mgrErr = mgrs[c].Sync(k, local, contributes)
			}(c)
			go func(c int) {
				defer wg.Done()
				res[c].ref, res[c].synced, res[c].checked, res[c].refErr = refs[c].sync(k, local, contributes)
			}(c)
		}
		wg.Wait()
		mask0 := mgrs[0].PredictableMask()
		for c := range mgrs {
			r := &res[c]
			if r.mgrErr != nil || r.refErr != nil {
				t.Fatalf("round %d client %d: manager %v, oracle %v", k, c, r.mgrErr, r.refErr)
			}
			if err := sameValues(r.out, r.ref); err != nil {
				t.Fatalf("round %d client %d: output: %v", k, c, err)
			}
			if r.tr.SyncedParams != r.synced || r.tr.CheckedParams != r.checked {
				t.Fatalf("round %d client %d: synced/checked %d/%d, oracle %d/%d", k, c, r.tr.SyncedParams, r.tr.CheckedParams, r.synced, r.checked)
			}
			if err := sameState(snapshot(mgrs[c]), refs[c].state()); err != nil {
				t.Fatalf("round %d client %d: state: %v", k, c, err)
			}
			if err := sameValues(mgrs[c].LinearFractions(), refs[c].linearFractions()); err != nil {
				t.Fatalf("round %d client %d: linear fractions: %v", k, c, err)
			}
			mask := mgrs[c].PredictableMask()
			if !reflect.DeepEqual(mask, refs[c].mask()) {
				t.Fatalf("round %d client %d: mask differs from the oracle's", k, c)
			}
			if !reflect.DeepEqual(mask, mask0) {
				t.Fatalf("round %d: clients 0 and %d hold different masks", k, c)
			}
		}
		for i, after := range mgrs[0].st.NoCheckPeriod {
			switch before := res[0].before[i]; {
			case before == 0 && after > 0:
				promoted++
			case before > 0 && after > before:
				extended++
			case before > 0 && after == 0:
				reverted++
			}
		}
	}
	return promoted, extended, reverted
}

// TestAlgorithm1LockStep is the oracle suite: Manager against the paper's
// Algorithm 1 on a K = 4 fleet with abstainers, over every variant and
// ablation switch, on a vector that fans the commit out
// (workers 2 and 8) and on the inline path (workers 1).
func TestAlgorithm1LockStep(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	const size = 2*diagnoseGrain + 77
	for name, opts := range algorithm1Cases() {
		for _, workers := range []int{1, 2, 8} {
			opts := opts
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				par.SetWorkers(workers)
				promoted, extended, reverted := runFleetLockStep(t, opts, 4, size, 34, 11)
				if promoted == 0 || reverted == 0 || (opts.Variant == VariantFull && extended == 0) {
					t.Fatalf("vacuous run: %d promotions, %d extensions, %d reverts", promoted, extended, reverted)
				}
			})
		}
	}
}

// TestAlgorithm1CheckpointResume: at every round of a trajectory, a fresh
// manager restored from the snapshot continues exactly as the one that never
// stopped — next round's output, traffic and state — under every option set.
func TestAlgorithm1CheckpointResume(t *testing.T) {
	const (
		size   = 96
		rounds = 40
	)
	for name, opts := range algorithm1Cases() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			agg := noisyAgg{seed: 5, noise: 1e-4}
			m, err := NewManager(0, size, agg, opts)
			if err != nil {
				t.Fatal(err)
			}
			traj := newClassTrajectory(21, 1, size)
			var resumed *Manager
			for k := 0; k < rounds; k++ {
				local := traj.local(k, 0, size)
				contributes := k%7 != 3
				out, tr, err := m.Sync(k, local, contributes)
				if err != nil {
					t.Fatal(err)
				}
				if resumed != nil {
					rout, rtr, err := resumed.Sync(k, local, contributes)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameValues(rout, out); err != nil {
						t.Fatalf("round %d after a resume: %v", k, err)
					}
					if rtr != tr {
						t.Fatalf("round %d after a resume: traffic %+v, want %+v", k, rtr, tr)
					}
					if err := sameState(snapshot(resumed), snapshot(m)); err != nil {
						t.Fatalf("round %d after a resume: %v", k, err)
					}
				}
				if resumed, err = NewManager(0, size, agg, opts); err != nil {
					t.Fatal(err)
				}
				if err := restore(resumed, snapshot(m)); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// chainAgg wraps inner the way the engine does for a negotiated chain.
func chainAgg(t testing.TB, inner sparse.Aggregator, spec string) (sparse.Aggregator, sparse.Wire) {
	t.Helper()
	if spec == "" {
		return inner, sparse.Wire{}
	}
	chain, err := codec.Parse(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	return sparse.WrapAggregator(inner, chain), sparse.Wire{Chain: chain}
}

// TestTwoPassMatchesMultiLoop holds the two-pass round to the multi-loop
// round it replaced (sync_ref_test.go), bit for bit, where the oracle cannot
// go: through a lossy chain, where the model collective runs in the delta
// domain and the error-feedback residual rides along.
func TestTwoPassMatchesMultiLoop(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	const size = diagnoseGrain + 300
	for name, opts := range algorithm1Cases() {
		for _, spec := range []string{"", "topk,q4,rans", "q8"} {
			for _, workers := range []int{1, 3} {
				opts := opts
				t.Run(fmt.Sprintf("%s/%q/workers=%d", name, spec, workers), func(t *testing.T) {
					par.SetWorkers(workers)
					mk := func() *Manager {
						agg, wire := chainAgg(t, noisyAgg{seed: 8, noise: 1e-4}, spec)
						m, err := NewManager(0, size, agg, opts)
						if err != nil {
							t.Fatal(err)
						}
						m.SetWire(wire)
						return m
					}
					two, multi := mk(), mk()
					traj := newClassTrajectory(33, 1, size)
					for k := 0; k < 30; k++ {
						local := traj.local(k, 0, size)
						contributes := k%6 != 4
						out, tr, err := two.Sync(k, local, contributes)
						ref, refTr, refErr := multi.refSync(k, local, contributes)
						if err != nil || refErr != nil {
							t.Fatalf("round %d: %v / %v", k, err, refErr)
						}
						if err := sameValues(out, ref); err != nil {
							t.Fatalf("round %d: output: %v", k, err)
						}
						if tr != refTr {
							t.Fatalf("round %d: traffic %+v, multi-loop %+v", k, tr, refTr)
						}
						if err := sameState(snapshot(two), snapshot(multi)); err != nil {
							t.Fatalf("round %d: state: %v", k, err)
						}
						if err := sameValues(two.st.WireErr, multi.st.WireErr); err != nil {
							t.Fatalf("round %d: residual: %v", k, err)
						}
						if err := sameValues(two.LinearFractions(), multi.LinearFractions()); err != nil {
							t.Fatalf("round %d: linear fractions: %v", k, err)
						}
					}
					if two.PredictableCount() == 0 {
						t.Fatal("vacuous run: nothing speculative at the end")
					}
				})
			}
		}
	}
}

// FuzzAlgorithm1 explores option sets and trajectories: one manager and one
// oracle behind identical noisy aggregators, perturbations of the class
// trajectory taken from the fuzz input (raw float64 bit patterns included, so
// NaNs, infinities and denormals arrive at arbitrary rounds), abstentions on
// input-chosen rounds. Any disagreement is a bug in Manager or a deviation
// missing from DESIGN.md §3.
func FuzzAlgorithm1(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), []byte{})
	f.Add(int64(2), uint8(1), uint8(0x15), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(3), uint8(2), uint8(0x2a), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	f.Add(int64(4), uint8(0), uint8(0xff), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0xff, 9, 9})
	f.Add(int64(5), uint8(1), uint8(0x08), []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, variant, flags uint8, raw []byte) {
		opts := DefaultOptions()
		opts.Variant = Variant(variant%3) + VariantFull
		opts.FixedPeriod = 1 + int(flags>>6)
		opts.LaunchProb = 0.25
		opts.Seed = seed
		opts.RawSlope = flags&1 != 0
		opts.RawErrorNorm = flags&2 != 0
		// flags&4 is unused: it set the retired float32 wire-image snap.
		if flags&8 != 0 {
			opts.TS, opts.TR, opts.MinHistory = 0.05, 0.2, 1
		}
		const (
			size   = 24
			rounds = 26
		)
		agg := noisyAgg{seed: seed, noise: 1e-5}
		m, err := NewManager(0, size, agg, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := newAlgorithm1(0, size, agg, opts)
		traj := newClassTrajectory(seed, 1, size)
		for k := 0; k < rounds; k++ {
			local := traj.local(k, 0, size)
			// Eight input bytes overwrite one value per round with their bit
			// pattern; a ninth picks who abstains.
			if at := 9 * k; at+8 <= len(raw) {
				local[int(raw[at])%size] = math.Float64frombits(binary.LittleEndian.Uint64(raw[at:]))
			}
			contributes := 9*k+8 >= len(raw) || raw[9*k+8]%4 != 0
			out, tr, err := m.Sync(k, local, contributes)
			want, synced, checked, refErr := ref.sync(k, local, contributes)
			if err != nil || refErr != nil {
				t.Fatalf("round %d: manager %v, oracle %v", k, err, refErr)
			}
			if err := sameValues(out, want); err != nil {
				t.Fatalf("round %d: output: %v", k, err)
			}
			if tr.SyncedParams != synced || tr.CheckedParams != checked {
				t.Fatalf("round %d: synced/checked %d/%d, oracle %d/%d", k, tr.SyncedParams, tr.CheckedParams, synced, checked)
			}
			if err := sameState(snapshot(m), ref.state()); err != nil {
				t.Fatalf("round %d: state: %v", k, err)
			}
		}
	})
}

// failingAgg fails one collective — the model's or the error's — the first
// time it is called on or after round from, before anything is submitted, as
// a cancelled or dropped call does; it forwards everything else.
type failingAgg struct {
	inner     sparse.Aggregator
	failError bool // fail the error collective, not the model's
	from      int
	failed    int // the round that failed, −1 until then
}

func (f *failingAgg) AggregateModel(id, round int, v []float64) ([]float64, error) {
	if !f.failError && f.failed < 0 && round >= f.from {
		f.failed = round
		return nil, errors.New("collective dropped")
	}
	return f.inner.AggregateModel(id, round, v)
}

func (f *failingAgg) AggregateError(id, round int, v []float64) ([]float64, error) {
	if f.failError && f.failed < 0 && round >= f.from {
		f.failed = round
		return nil, errors.New("collective dropped")
	}
	return f.inner.AggregateError(id, round, v)
}

// TestFailedCollectiveDoesNotAdvanceResidual — or anything else: a round
// whose model or error collective fails and is retried for the same round
// must leave the run bit-equal to one that never failed — outputs, the full
// snapshot, the chain's residual, the Fig. 7 counters, and the next five
// rounds. The
// multi-loop round committed the residual only after the model collective
// (PR 14's fix) but had already advanced wireErr, accumErr, specRounds and
// specTotal by the time the error collective ran, so a retry counted them
// twice; the two-pass round moves nothing before both have returned.
func TestFailedCollectiveDoesNotAdvanceResidual(t *testing.T) {
	const (
		size = 600
		from = 9 // late enough that checks are running
	)
	for _, spec := range []string{"", "topk,q4,rans"} {
		for _, failError := range []bool{false, true} {
			t.Run(fmt.Sprintf("%q/failError=%v", spec, failError), func(t *testing.T) {
				type trace struct {
					outs      [][]float64
					snaps     []*State
					residuals [][]float64
					fractions [][]float64
				}
				// A failing run stops five rounds after the retried one; the
				// clean run is told how long that was.
				run := func(fail bool, rounds int) (trace, int) {
					inner := &failingAgg{inner: noisyAgg{seed: 4, noise: 1e-4}, failError: failError, from: 1 << 30, failed: -1}
					if fail {
						inner.from = from
					}
					agg, wire := chainAgg(t, inner, spec)
					m, err := NewManager(0, size, agg, DefaultOptions())
					if err != nil {
						t.Fatal(err)
					}
					m.SetWire(wire)
					traj := newClassTrajectory(100, 1, size)
					var tr trace
					for k := 0; k < rounds; k++ {
						local := traj.local(k, 0, size)
						out, _, err := m.Sync(k, local, true)
						if err != nil {
							if inner.failed != k {
								t.Fatalf("round %d: %v", k, err)
							}
							if out, _, err = m.Sync(k, local, true); err != nil {
								t.Fatalf("round %d, retried: %v", k, err)
							}
							rounds = k + 6
						}
						tr.outs = append(tr.outs, append([]float64(nil), out...))
						tr.snaps = append(tr.snaps, snapshot(m))
						tr.residuals = append(tr.residuals, append([]float64(nil), m.st.WireErr...))
						tr.fractions = append(tr.fractions, m.LinearFractions())
					}
					return tr, inner.failed
				}
				retried, failedAt := run(true, 60)
				if failedAt < from {
					t.Fatal("the collective to fail never ran")
				}
				clean, _ := run(false, len(retried.outs))
				for k := range retried.outs {
					if err := sameValues(retried.outs[k], clean.outs[k]); err != nil {
						t.Fatalf("round %d (failure on %d): output: %v", k, failedAt, err)
					}
					if err := sameState(retried.snaps[k], clean.snaps[k]); err != nil {
						t.Fatalf("round %d (failure on %d): state: %v", k, failedAt, err)
					}
					if err := sameValues(retried.residuals[k], clean.residuals[k]); err != nil {
						t.Fatalf("round %d (failure on %d): residual: %v", k, failedAt, err)
					}
					if err := sameValues(retried.fractions[k], clean.fractions[k]); err != nil {
						t.Fatalf("round %d (failure on %d): linear fractions: %v", k, failedAt, err)
					}
				}
			})
		}
	}
}

// TestV2JoinerMaskAgrees: a client that joins a v2 fleet mid-run by restoring
// a donor's snapshot (what fl.Engine.AddClient does) launches the same
// parameters as the donor from its first round on. The lottery used to be a
// rand.Rand stream the snapshot did not carry, so the joiner drew from the
// seed's start while the fleet was mid-stream.
func TestV2JoinerMaskAgrees(t *testing.T) {
	opts := DefaultOptions()
	opts.Variant, opts.FixedPeriod, opts.LaunchProb, opts.Seed = VariantV2, 3, 0.2, 7
	const size = 64
	agg := noisyAgg{seed: 2, noise: 1e-3}
	donor, err := NewManager(0, size, agg, opts)
	if err != nil {
		t.Fatal(err)
	}
	traj := newClassTrajectory(3, 1, size)
	for k := 0; k < 6; k++ {
		if _, _, err := donor.Sync(k, traj.local(k, 0, size), true); err != nil {
			t.Fatal(err)
		}
	}
	joiner, err := NewManager(1, size, agg, opts)
	if err != nil {
		t.Fatal(err)
	}
	install, err := sparse.DecodeState(joiner, sparse.AppendState(nil, donor, sparse.Shared), sparse.Shared, size)
	if err != nil {
		t.Fatal(err)
	}
	install()
	for k := 6; k < 14; k++ {
		local := traj.local(k, 0, size)
		dout, _, err1 := donor.Sync(k, local, true)
		jout, _, err2 := joiner.Sync(k, local, true)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		dm, jm := donor.PredictableMask(), joiner.PredictableMask()
		for i := range dm {
			if dm[i] != jm[i] {
				t.Fatalf("round %d: donor=%v joiner=%v at parameter %d", k, dm[i], jm[i], i)
			}
		}
		if err := sameValues(jout, dout); err != nil {
			t.Fatalf("round %d: %v", k, err)
		}
	}
}
