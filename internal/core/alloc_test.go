package core

import (
	"testing"
)

// reuseAgg is an identity aggregator that reuses its reply buffers, one per
// leg, so any allocation measured below is attributable to the Manager
// itself; it takes both legs at once.
type reuseAgg struct {
	modelBuf, errBuf []float64
}

func (a *reuseAgg) AggregateModel(_, _ int, values []float64) ([]float64, error) {
	if values == nil {
		return nil, nil
	}
	a.modelBuf = append(a.modelBuf[:0], values...)
	return a.modelBuf, nil
}

func (a *reuseAgg) AggregateError(_, _ int, values []float64) ([]float64, error) {
	if values == nil {
		return nil, nil
	}
	a.errBuf = append(a.errBuf[:0], values...)
	return a.errBuf, nil
}

func (a *reuseAgg) ConcurrentLegs() bool { return true }

// TestSyncSteadyStateAllocs pins the allocation-free Sync hot loop: after
// warmup (bootstrap round, first promotions, aggregator buffer growth), a
// full Sync round — partitioning, both collectives, speculation, diagnosis
// — must not allocate at all, the goroutine that runs the error collective
// beside the model's included: the measured rounds must include checking
// rounds.
func TestSyncSteadyStateAllocs(t *testing.T) {
	const size = 512
	agg := &reuseAgg{}
	m, err := NewManager(0, size, agg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	local := make([]float64, size)
	k, checking := 0, 0
	round := func() {
		for i := range local {
			// Linear per-parameter trajectories with distinct slopes, so the
			// steady state exercises speculation and error feedback.
			local[i] = float64(i) + 0.01*float64(i+1)*float64(k)
		}
		_, tr, err := m.Sync(k, local, true)
		if err != nil {
			t.Fatal(err)
		}
		if tr.CheckedParams > 0 {
			checking++
		}
		k++
	}
	for i := 0; i < 12; i++ {
		round()
	}
	checking = 0
	if allocs := testing.AllocsPerRun(25, round); allocs > 0 {
		t.Errorf("steady-state Sync allocates %.1f times per round, want 0", allocs)
	}
	if checking == 0 {
		t.Error("no measured round ran the error collective")
	}
	t.Logf("%d of the 26 measured rounds ran the error collective", checking)
}
