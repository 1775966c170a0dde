package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fedsu/internal/sparse"
)

// fleetAgg simulates an N-client fleet for a single manager under test: the
// aggregate is the submitted value plus bounded zero-mean noise, standing
// in for the other clients' disagreement.
type fleetAgg struct {
	rng   *rand.Rand
	noise float64
}

func (f *fleetAgg) AggregateModel(_, _ int, values []float64) ([]float64, error) {
	if values == nil {
		return nil, nil
	}
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = v + f.noise*f.rng.NormFloat64()
	}
	return out, nil
}

func (f *fleetAgg) AggregateError(_, _ int, values []float64) ([]float64, error) {
	return f.AggregateModel(0, 0, values)
}

// TestSpeculativeDeviationBounded is the empirical form of the paper's
// convergence guarantee (Theorem 1): with error feedback active, the gap
// between the FedSU trajectory and the true (fully synchronized) trajectory
// stays bounded by a modest multiple of the per-round update scale,
// regardless of where the linear pattern breaks.
func TestSpeculativeDeviationBounded(t *testing.T) {
	opts := DefaultOptions()
	opts.TS = 1.0
	m, _ := newTestManager(t, 1, opts)

	slope := 0.2
	truth := func(k int) float64 {
		// Linear, then a sharp regime change to a different slope, then
		// flat — three pattern segments.
		switch {
		case k < 15:
			return slope * float64(k)
		case k < 30:
			return slope*15 - 0.1*float64(k-15)
		default:
			return slope*15 - 0.1*15
		}
	}
	maxDev := 0.0
	for k := 0; k < 45; k++ {
		out, _, err := m.Sync(k, []float64{truth(k)}, true)
		if err != nil {
			t.Fatal(err)
		}
		dev := math.Abs(out[0] - truth(k))
		if dev > maxDev {
			maxDev = dev
		}
	}
	// The per-round update scale is ~0.2; T_S bounds the accumulated error
	// per no-checking window at T_S·|g| per window. Allow a few windows'
	// worth of drift.
	if maxDev > 8*slope {
		t.Errorf("max deviation %v exceeds the error-feedback bound (~%v)", maxDev, 8*slope)
	}
}

func TestRawSlopeVsSmoothedSlope(t *testing.T) {
	// With a noisy-but-linear trajectory, the smoothed slope estimator
	// should track the true slope more closely than the raw last-round
	// estimate at promotion time.
	trueSlope := 1.0
	run := func(raw bool) float64 {
		opts := DefaultOptions()
		opts.RawSlope = raw
		agg := &fleetAgg{rng: rand.New(rand.NewSource(7)), noise: 0.05}
		m, err := NewManager(0, 1, agg, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 60; k++ {
			if _, _, err := m.Sync(k, []float64{trueSlope * float64(k)}, true); err != nil {
				t.Fatal(err)
			}
			if m.mode[0] == modeSpeculative {
				return m.slope[0]
			}
		}
		return math.NaN()
	}
	smoothed, rawS := run(false), run(true)
	if math.IsNaN(smoothed) || math.IsNaN(rawS) {
		t.Skip("parameter did not promote within the horizon for this seed")
	}
	if math.Abs(smoothed-trueSlope) > math.Abs(rawS-trueSlope)+0.05 {
		t.Errorf("smoothed slope %v should not be materially worse than raw %v (true %v)",
			smoothed, rawS, trueSlope)
	}
}

func TestFeedbackSignalNormalization(t *testing.T) {
	opts := DefaultOptions()
	m, _ := newTestManager(t, 1, opts)
	m.emaAbsG[0] = 0.5

	// Default: floored at the movement scale.
	if got := m.feedbackSignal(0, 1.0, 0.001); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("floored signal = %v, want 2.0 (=1/0.5)", got)
	}
	// Slope above the floor: plain Eq. 3.
	if got := m.feedbackSignal(0, 1.0, 2.0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("signal = %v, want 0.5", got)
	}

	// RawErrorNorm: literal Eq. 3 semantics.
	m.opts.RawErrorNorm = true
	if got := m.feedbackSignal(0, 1.0, 0.001); math.Abs(got-1000) > 1e-9 {
		t.Errorf("raw signal = %v, want 1000", got)
	}
	// Zero-slope guard.
	if got := m.feedbackSignal(0, 1.0, 0); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("zero-slope signal must be finite, got %v", got)
	}
}

func TestTrafficByteAccounting(t *testing.T) {
	opts := DefaultOptions()
	m, _ := newTestManager(t, 10, opts)
	// Nonzero values so the dense exchange costs the full bitmap encoding;
	// expectations come from the wire codec itself (MessageBytes).
	local := make([]float64, 10)
	for i := range local {
		local[i] = float64(i + 1)
	}
	_, tr, err := m.Sync(0, local, true)
	if err != nil {
		t.Fatal(err)
	}
	want := sparse.MessageBytes(local)
	if tr.UpBytes != want || tr.DownBytes != want {
		t.Errorf("bootstrap traffic = %d/%d, want %d", tr.UpBytes, tr.DownBytes, want)
	}
	for i := range local {
		local[i] = float64(i+1) + 0.5
	}
	_, tr, err = m.Sync(1, local, true)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 still exchanges every (regular) parameter.
	if tr.UpBytes != want {
		t.Errorf("regular round traffic = %d, want %d", tr.UpBytes, want)
	}
	if tr.CheckedParams != 0 {
		t.Errorf("no params should check on round 1, got %d", tr.CheckedParams)
	}
}

// Property: for any bounded trajectory, the manager's output stays finite
// and the predictable count stays within [0, size].
func TestManagerRobustToArbitraryTrajectories(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := DefaultOptions()
		agg := &identityAgg{}
		m, err := NewManager(0, 4, agg, opts)
		if err != nil {
			return false
		}
		x := make([]float64, 4)
		for k := 0; k < 30; k++ {
			for i := range x {
				switch rng.Intn(3) {
				case 0:
					x[i] += rng.NormFloat64()
				case 1:
					x[i] = x[i]*0.9 + 0.1
				case 2: // no change
				}
			}
			out, _, err := m.Sync(k, x, true)
			if err != nil {
				return false
			}
			for _, v := range out {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
			copy(x, out)
			if pc := m.PredictableCount(); pc < 0 || pc > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDefaultVariantFilledByValidate(t *testing.T) {
	o := Options{TR: 0.01, TS: 1, Theta: 0.9}
	agg := &identityAgg{}
	m, err := NewManager(0, 1, agg, o)
	if err != nil {
		t.Fatal(err)
	}
	if m.opts.Variant != VariantFull {
		t.Errorf("zero Variant should default to full, got %v", m.opts.Variant)
	}
	if m.opts.MinHistory < 1 {
		t.Errorf("MinHistory must be at least 1, got %d", m.opts.MinHistory)
	}
}

func TestSeparateManagersAgreeUnderSharedAggregates(t *testing.T) {
	// Two managers fed the same aggregated results (as a real fleet would
	// be) must make identical masking decisions even though their local
	// (pre-sync) vectors differ.
	opts := DefaultOptions()
	aggValues := func(k int) []float64 {
		return []float64{0.3 * float64(k), math.Sin(float64(k))}
	}
	shared := &scriptedAgg{script: aggValues}
	a, err := NewManager(0, 2, shared, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewManager(1, 2, shared, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 25; k++ {
		base := aggValues(k)
		la := []float64{base[0] + 0.01*rng.NormFloat64(), base[1] + 0.01*rng.NormFloat64()}
		lb := []float64{base[0] + 0.01*rng.NormFloat64(), base[1] + 0.01*rng.NormFloat64()}
		oa, _, err1 := a.Sync(k, la, true)
		ob, _, err2 := b.Sync(k, lb, true)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		ma, mb := a.PredictableMask(), b.PredictableMask()
		for i := range ma {
			if ma[i] != mb[i] {
				t.Fatalf("round %d: masks diverged at %d", k, i)
			}
			if ma[i] && oa[i] != ob[i] {
				t.Fatalf("round %d: speculative values diverged at %d", k, i)
			}
		}
	}
}

// scriptedAgg returns a fixed script of global values for model collectives
// (restricted to the regular-parameter subset) and zero errors.
type scriptedAgg struct {
	script func(k int) []float64
	round  int
}

func (s *scriptedAgg) AggregateModel(_, round int, values []float64) ([]float64, error) {
	if values == nil {
		return nil, nil
	}
	// The caller only submits regular parameters; we cannot know the
	// subset here, so return the submitted values unchanged — both
	// managers then receive whatever THEIR submission was. To keep the
	// fleets aligned, this aggregator is only used in tests where the
	// scripted trajectory drives both managers identically through the
	// returned values below.
	out := make([]float64, len(values))
	copy(out, values)
	full := s.script(round)
	// Overwrite with the script where lengths allow (regular set may
	// shrink as parameters go speculative; the script prefix matches
	// because parameters promote in index order for this trajectory).
	for i := range out {
		if i < len(full) {
			out[i] = full[i]
		}
	}
	return out, nil
}

func (s *scriptedAgg) AggregateError(_, _ int, values []float64) ([]float64, error) {
	if values == nil {
		return nil, nil
	}
	return make([]float64, len(values)), nil
}
