package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// expectsCheck reports whether m's next round runs the error collective:
// some parameter's no-checking period expires (full FedSU).
func expectsCheck(m *Manager) bool {
	for i, md := range m.st.Mode {
		if md == modeSpeculative && m.st.NoCheckLeft[i] <= 1 {
			return true
		}
	}
	return false
}

// linearLocal is a trajectory every parameter of which moves on a line, so
// the parameters promote after MinHistory rounds and are checked from then
// on, one round in every no-checking period.
func linearLocal(k, size int) []float64 {
	local := make([]float64, size)
	for i := range local {
		local[i] = float64(i) + 0.01*float64(i%7+1)*float64(k)
	}
	return local
}

// gateAgg answers with the submission. In a round the test marks as
// checking, the model leg does not return before the error leg of the same
// round has been entered — within a timeout, so a manager that runs the
// legs one after the other fails instead of hanging.
type gateAgg struct {
	check   bool
	entered chan struct{}
}

func (a *gateAgg) AggregateModel(_, round int, v []float64) ([]float64, error) {
	if a.check {
		select {
		case <-a.entered:
		case <-time.After(2 * time.Second):
			return nil, fmt.Errorf("round %d: the error leg was not entered while the model leg was in flight", round)
		}
	}
	return v, nil
}

func (a *gateAgg) AggregateError(_, _ int, v []float64) ([]float64, error) {
	close(a.entered)
	return v, nil
}

func (a *gateAgg) ConcurrentLegs() bool { return true }

// TestLegsInFlightTogether: in a checking round the error collective is
// issued while the model collective is still in flight.
func TestLegsInFlightTogether(t *testing.T) {
	const size = 64
	agg := &gateAgg{}
	m, err := NewManager(0, size, agg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checks := 0
	for k := 0; k < 12; k++ {
		agg.check, agg.entered = expectsCheck(m), make(chan struct{})
		_, tr, err := m.Sync(k, linearLocal(k, size), true)
		if err != nil {
			t.Fatalf("round %d: %v", k, err)
		}
		if (tr.CheckedParams > 0) != agg.check {
			t.Fatalf("round %d: %d parameters checked, the test expected a check: %v", k, tr.CheckedParams, agg.check)
		}
		if agg.check {
			checks++
		}
	}
	if checks == 0 {
		t.Fatal("no round ran the error collective")
	}
}

// overlapAgg answers with the submission and records the most collective
// calls it ever had in flight at once. It does not say it takes both legs
// together, as an aggregator written before they could be is silent.
type overlapAgg struct{ inFlight, most atomic.Int32 }

func (a *overlapAgg) leg(v []float64) ([]float64, error) {
	n := a.inFlight.Add(1)
	defer a.inFlight.Add(-1)
	for m := a.most.Load(); n > m && !a.most.CompareAndSwap(m, n); m = a.most.Load() {
	}
	time.Sleep(time.Millisecond)
	return v, nil
}

func (a *overlapAgg) AggregateModel(_, _ int, v []float64) ([]float64, error) { return a.leg(v) }
func (a *overlapAgg) AggregateError(_, _ int, v []float64) ([]float64, error) { return a.leg(v) }

// TestLegsOneAtATimeUnlessDeclared: through an aggregator that does not
// declare sparse.LegAggregator, the error collective starts only after the
// model collective has returned.
func TestLegsOneAtATimeUnlessDeclared(t *testing.T) {
	const size = 64
	agg := &overlapAgg{}
	m, err := NewManager(0, size, agg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checks := 0
	for k := 0; k < 12; k++ {
		_, tr, err := m.Sync(k, linearLocal(k, size), true)
		if err != nil {
			t.Fatalf("round %d: %v", k, err)
		}
		if tr.CheckedParams > 0 {
			checks++
		}
	}
	if checks == 0 {
		t.Fatal("no round ran the error collective")
	}
	if n := agg.most.Load(); n != 1 {
		t.Fatalf("%d collective calls in flight at once through an undeclared aggregator", n)
	}
}

var (
	errModelLeg = errors.New("model leg dropped")
	errErrorLeg = errors.New("error leg dropped")
)

// legFailAgg answers with the submission, except in round fail, where the
// legs named fail at once and the others succeed after a delay. It counts
// the calls in flight.
type legFailAgg struct {
	fail                int
	failModel, failErr  bool
	inFlight, completed atomic.Int32
}

func (a *legFailAgg) leg(round int, fails bool, err error, v []float64) ([]float64, error) {
	a.inFlight.Add(1)
	defer a.inFlight.Add(-1)
	defer a.completed.Add(1)
	if round == a.fail {
		if fails {
			return nil, err
		}
		time.Sleep(20 * time.Millisecond)
	}
	return v, nil
}

func (a *legFailAgg) AggregateModel(_, round int, v []float64) ([]float64, error) {
	return a.leg(round, a.failModel, errModelLeg, v)
}

func (a *legFailAgg) AggregateError(_, round int, v []float64) ([]float64, error) {
	return a.leg(round, a.failErr, errErrorLeg, v)
}

func (a *legFailAgg) ConcurrentLegs() bool { return true }

// TestLegFailureLeavesNothingBehind: when either leg of a checking round
// fails and the other succeeds, or both fail, Sync returns the failure — the
// model leg's when both fail — after both legs have returned, leaving the
// state byte for byte as it was and no goroutine behind.
func TestLegFailureLeavesNothingBehind(t *testing.T) {
	const size = 64
	for _, c := range []struct {
		name               string
		failModel, failErr bool
		want               error
		label              string
	}{
		{"model", true, false, errModelLeg, "aggregate model"},
		{"error", false, true, errErrorLeg, "aggregate error"},
		{"both", true, true, errModelLeg, "aggregate model"},
	} {
		t.Run(c.name, func(t *testing.T) {
			agg := &legFailAgg{fail: -1, failModel: c.failModel, failErr: c.failErr}
			m, err := NewManager(0, size, agg, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			k := 0
			for ; !expectsCheck(m) || k < 6; k++ {
				if _, _, err := m.Sync(k, linearLocal(k, size), true); err != nil {
					t.Fatalf("round %d: %v", k, err)
				}
			}
			agg.fail = k
			before, goroutines := snapshot(m), runtime.NumGoroutine()
			calls := agg.completed.Load()
			_, _, err = m.Sync(k, linearLocal(k, size), true)
			if !errors.Is(err, c.want) || !strings.Contains(err.Error(), c.label) {
				t.Fatalf("Sync returned %v, want %v from the %s collective", err, c.want, c.label)
			}
			if n := agg.inFlight.Load(); n != 0 {
				t.Fatalf("%d collective calls still in flight when Sync returned", n)
			}
			if n := agg.completed.Load() - calls; n != 2 {
				t.Fatalf("%d collective calls returned during the failed round, want both legs", n)
			}
			if err := sameState(snapshot(m), before); err != nil {
				t.Fatalf("a failed round moved the state: %v", err)
			}
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the failed round, %d before", runtime.NumGoroutine(), goroutines)
				}
			}
			agg.fail = -1
			if _, _, err := m.Sync(k, linearLocal(k, size), true); err != nil {
				t.Fatalf("retried round %d: %v", k, err)
			}
		})
	}
}

// TestRatioTestMatchesDivision sweeps the promotion test across its
// threshold: for denominators of every scale, numerators a few ulps either
// side of T_ℛ·d, and the edge operands, the product-first test answers what
// the division answers.
func TestRatioTestMatchesDivision(t *testing.T) {
	for _, thr := range []float64{0.01, 1, 0.1, 3, 1e-300, 1e300, 0x1p-1022} {
		rt := newRatioTest(thr)
		for _, d := range []float64{1, 3e-7, 0.7, 12345.678, 1e-300, 1e300, 5e-324, 0x1p-1022, 0, math.Inf(1), math.NaN(), -1} {
			p := thr * d
			for _, a := range edgeNumerators(p) {
				if got, want := rt.below(a, d), d == 0 || a/d < thr; got != want {
					t.Errorf("T=%v a=%v d=%v: product-first %v, division %v", thr, a, d, got, want)
				}
			}
		}
	}
}

// edgeNumerators is p and its neighbours within 8 ulps, zero, a subnormal,
// the infinities and NaN.
func edgeNumerators(p float64) []float64 {
	out := []float64{0, 5e-324, math.Inf(1), math.Inf(-1), math.NaN(), p}
	up, down := p, p
	for i := 0; i < 8; i++ {
		up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
		out = append(out, up, down)
	}
	return out
}

// FuzzRatioTest holds the product-first promotion test to the division on
// adversarial operands: raw bit patterns, a numerator within a few ulps of
// T_ℛ·d, and subnormal operands.
func FuzzRatioTest(f *testing.F) {
	f.Add(math.Float64bits(0.01), math.Float64bits(0.3), math.Float64bits(0.003), int8(1), uint8(1))
	f.Add(math.Float64bits(0.01), math.Float64bits(0.3), uint64(0), int8(-2), uint8(1))
	f.Add(math.Float64bits(0.01), uint64(7), uint64(3), int8(0), uint8(6))
	f.Add(math.Float64bits(0.01), math.Float64bits(math.Inf(1)), math.Float64bits(math.NaN()), int8(0), uint8(0))
	f.Add(math.Float64bits(1e300), math.Float64bits(1e10), uint64(0), int8(3), uint8(1))
	f.Add(math.Float64bits(0.01), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), int8(0), uint8(0))
	f.Fuzz(func(t *testing.T, tBits, dBits, aBits uint64, nudge int8, shape uint8) {
		thr, d, a := math.Float64frombits(tBits), math.Float64frombits(dBits), math.Float64frombits(aBits)
		if shape&2 != 0 {
			d = math.Float64frombits(dBits & (1<<52 - 1)) // subnormal or zero
		}
		if shape&4 != 0 {
			a = math.Float64frombits(aBits & (1<<52 - 1))
		}
		if shape&1 != 0 {
			// a on the threshold, nudged a few ulps.
			a = thr * d
			dir := math.Inf(1)
			if nudge < 0 {
				dir = math.Inf(-1)
			}
			for i := 0; i < int(nudge%16+16)%16; i++ {
				a = math.Nextafter(a, dir)
			}
		}
		if got, want := newRatioTest(thr).below(a, d), d == 0 || a/d < thr; got != want {
			t.Fatalf("T=%v (%#x) a=%v (%#x) d=%v (%#x): product-first %v, division %v",
				thr, math.Float64bits(thr), a, math.Float64bits(a), d, math.Float64bits(d), got, want)
		}
	})
}
