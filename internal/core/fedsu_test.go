package core

import (
	"math"
	"testing"

	"fedsu/internal/sparse"
)

// identityAgg is a single-client aggregator: the mean over one contributor
// is the contribution itself.
type identityAgg struct {
	modelCalls, errorCalls int
}

func (a *identityAgg) AggregateModel(_, _ int, values []float64) ([]float64, error) {
	a.modelCalls++
	if values == nil {
		return nil, nil
	}
	return append([]float64(nil), values...), nil
}

func (a *identityAgg) AggregateError(_, _ int, values []float64) ([]float64, error) {
	a.errorCalls++
	if values == nil {
		return nil, nil
	}
	return append([]float64(nil), values...), nil
}

func newTestManager(t *testing.T, size int, opts Options) (*Manager, *identityAgg) {
	t.Helper()
	agg := &identityAgg{}
	m, err := NewManager(0, size, agg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, agg
}

// drive feeds the manager a externally-scripted "local" trajectory: at each
// round the client's post-training vector is traj(round). Returns the
// manager outputs per round.
func drive(t *testing.T, m *Manager, rounds int, traj func(k int) []float64) ([][]float64, []sparse.Traffic) {
	t.Helper()
	var outs [][]float64
	var trs []sparse.Traffic
	for k := 0; k < rounds; k++ {
		out, tr, err := m.Sync(k, traj(k), true)
		if err != nil {
			t.Fatalf("round %d: %v", k, err)
		}
		// Sync's result is manager-owned scratch, valid only until the next
		// call — retaining it across rounds requires a copy.
		outs = append(outs, append([]float64(nil), out...))
		trs = append(trs, tr)
	}
	return outs, trs
}

func TestOptionsValidation(t *testing.T) {
	agg := &identityAgg{}
	tests := []struct {
		name string
		mod  func(*Options)
	}{
		{"zero-TR", func(o *Options) { o.TR = 0 }},
		{"zero-TS", func(o *Options) { o.TS = 0 }},
		{"theta-one", func(o *Options) { o.Theta = 1 }},
		{"v1-no-period", func(o *Options) { o.Variant = VariantV1; o.FixedPeriod = 0 }},
		{"v2-no-prob", func(o *Options) { o.Variant = VariantV2; o.LaunchProb = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := DefaultOptions()
			tt.mod(&o)
			if _, err := NewManager(0, 4, agg, o); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	if _, err := NewManager(0, 0, agg, DefaultOptions()); err == nil {
		t.Error("zero size must fail")
	}
}

func TestVariantString(t *testing.T) {
	if VariantFull.String() != "fedsu" || VariantV1.String() != "fedsu-v1" || VariantV2.String() != "fedsu-v2" {
		t.Error("variant names wrong")
	}
}

func TestLinearParameterBecomesPredictable(t *testing.T) {
	opts := DefaultOptions()
	m, _ := newTestManager(t, 2, opts)
	// Param 0: exactly linear (slope 0.1). Param 1: alternating jumps (no
	// linearity).
	traj := func(k int) []float64 {
		p1 := 1.0
		if k%2 == 0 {
			p1 = -1.0
		}
		return []float64{0.1 * float64(k+1), p1}
	}
	drive(t, m, 8, traj)
	mask := m.PredictableMask()
	if !mask[0] {
		t.Error("exactly linear parameter not diagnosed predictable")
	}
	if mask[1] {
		t.Error("alternating parameter wrongly diagnosed predictable")
	}
}

func TestSpeculativePredictionFollowsLine(t *testing.T) {
	opts := DefaultOptions()
	m, _ := newTestManager(t, 1, opts)
	const slope = 0.5
	traj := func(k int) []float64 { return []float64{slope * float64(k+1)} }
	outs, _ := drive(t, m, 12, traj)
	// Once predictable, outputs must continue the same line exactly.
	if m.PredictableCount() != 1 {
		t.Fatal("parameter should be predictable")
	}
	for k := 6; k < 12; k++ {
		want := slope * float64(k+1)
		if math.Abs(outs[k][0]-want) > 1e-9 {
			t.Errorf("round %d: predicted %v, want %v", k, outs[k][0], want)
		}
	}
}

func TestTrafficDropsUnderSpeculation(t *testing.T) {
	opts := DefaultOptions()
	m, _ := newTestManager(t, 100, opts)
	traj := func(k int) []float64 {
		v := make([]float64, 100)
		for i := range v {
			v[i] = float64(i) + 0.01*float64(i+1)*float64(k+1)
		}
		return v
	}
	_, trs := drive(t, m, 12, traj)
	if trs[0].SyncedParams != 100 {
		t.Fatalf("bootstrap synced %d, want 100", trs[0].SyncedParams)
	}
	// Once every parameter is speculative no model values are synchronized;
	// error-check rounds still carry feedback traffic, so assert on the
	// steady state: no synced params in the tail, and a high mean
	// byte-level savings over the tail rounds.
	meanRatio := 0.0
	for _, tr := range trs[6:] {
		if tr.SyncedParams != 0 {
			t.Errorf("tail round synced %d params, want 0", tr.SyncedParams)
		}
		meanRatio += tr.SparsificationRatio()
	}
	meanRatio /= float64(len(trs[6:]))
	if meanRatio < 0.4 {
		t.Errorf("mean tail sparsification ratio = %v, want > 0.4", meanRatio)
	}
}

func TestNoCheckPeriodGrowsWhilePredictionHolds(t *testing.T) {
	opts := DefaultOptions()
	m, _ := newTestManager(t, 1, opts)
	traj := func(k int) []float64 { return []float64{float64(k + 1)} }
	drive(t, m, 30, traj)
	if m.st.NoCheckPeriod[0] < 3 {
		t.Errorf("no-check period = %d, want additive growth ≥ 3", m.st.NoCheckPeriod[0])
	}
	if m.PredictableCount() != 1 {
		t.Error("perfectly linear parameter must stay predictable")
	}
}

func TestErrorFeedbackRevertsBrokenPattern(t *testing.T) {
	opts := DefaultOptions()
	opts.TS = 0.5
	m, _ := newTestManager(t, 1, opts)
	// Linear for 10 rounds, then frozen flat (pattern break).
	breakAt := 10
	traj := func(k int) []float64 {
		if k < breakAt {
			return []float64{float64(k + 1)}
		}
		return []float64{float64(breakAt)}
	}
	outs, _ := drive(t, m, 40, traj)
	if m.PredictableCount() != 0 {
		t.Error("broken pattern must eventually revert to regular updating")
	}
	// After reversion the output must track the new flat truth again.
	final := outs[len(outs)-1][0]
	if math.Abs(final-float64(breakAt)) > 1.0 {
		t.Errorf("post-reversion value %v strayed from truth %v", final, float64(breakAt))
	}
}

func TestErrorCheckIncursTraffic(t *testing.T) {
	opts := DefaultOptions()
	m, agg := newTestManager(t, 1, opts)
	traj := func(k int) []float64 { return []float64{float64(k + 1)} }
	_, trs := drive(t, m, 20, traj)
	if agg.errorCalls == 0 {
		t.Fatal("error feedback never aggregated")
	}
	sawCheck := false
	for _, tr := range trs {
		if tr.CheckedParams > 0 {
			sawCheck = true
			if tr.UpBytes <= sparse.HeaderBytes {
				t.Error("check round should carry error payload bytes")
			}
		}
	}
	if !sawCheck {
		t.Error("no round reported checked params")
	}
}

func TestV1FixedPeriodExit(t *testing.T) {
	opts := DefaultOptions()
	opts.Variant = VariantV1
	opts.FixedPeriod = 4
	m, agg := newTestManager(t, 1, opts)
	traj := func(k int) []float64 { return []float64{float64(k + 1)} }
	drive(t, m, 40, traj)
	if agg.errorCalls != 0 {
		t.Error("v1 must never aggregate errors")
	}
	// The parameter should have cycled in and out of speculation; verify it
	// was in speculative mode but bounded by the fixed period.
	if m.st.SpecTotal[0] == 0 {
		t.Error("v1 never speculated on a linear parameter")
	}
	frac := m.LinearFractions()[0]
	if frac >= 1 {
		t.Errorf("v1 speculative fraction = %v, must be < 1 due to periodic exits", frac)
	}
}

func TestV2RandomLaunch(t *testing.T) {
	opts := DefaultOptions()
	opts.Variant = VariantV2
	opts.FixedPeriod = 5
	opts.LaunchProb = 0.5
	opts.Seed = 42
	m, agg := newTestManager(t, 50, opts)
	traj := func(k int) []float64 {
		v := make([]float64, 50)
		for i := range v {
			// Non-linear: sign-alternating — v2 speculates regardless.
			v[i] = math.Sin(float64(k) * float64(i+1))
		}
		return v
	}
	drive(t, m, 10, traj)
	if agg.errorCalls != 0 {
		t.Error("v2 must never aggregate errors")
	}
	total := int64(0)
	for _, s := range m.st.SpecTotal {
		total += s
	}
	if total == 0 {
		t.Error("v2 with LaunchProb 0.5 never launched speculation")
	}
}

func TestV2MasksAgreeAcrossClients(t *testing.T) {
	opts := DefaultOptions()
	opts.Variant = VariantV2
	opts.FixedPeriod = 5
	opts.LaunchProb = 0.3
	opts.Seed = 7
	a, _ := newTestManager(t, 20, opts)
	b, _ := newTestManager(t, 20, opts)
	traj := func(k int) []float64 {
		v := make([]float64, 20)
		for i := range v {
			v[i] = float64(k) * 0.1 * float64(i)
		}
		return v
	}
	for k := 0; k < 8; k++ {
		x := traj(k)
		a.Sync(k, x, true)
		b.Sync(k, x, true)
		ma, mb := a.PredictableMask(), b.PredictableMask()
		for i := range ma {
			if ma[i] != mb[i] {
				t.Fatalf("round %d: masks diverge at param %d", k, i)
			}
		}
	}
}

func TestOscillationRatioBounds(t *testing.T) {
	opts := DefaultOptions()
	m, _ := newTestManager(t, 1, opts)
	// Any trajectory: ratio must stay in [0, 1].
	vals := []float64{0, 1, -2, 3, 3, 3.5, 2, 8, 8.1}
	for k, v := range vals {
		if _, _, err := m.Sync(k, []float64{v}, true); err != nil {
			t.Fatal(err)
		}
		r := m.OscillationRatio(0)
		if r < 0 || r > 1+1e-12 {
			t.Fatalf("round %d: ratio %v outside [0,1]", k, r)
		}
	}
}

func TestLinearFractionsCDFInput(t *testing.T) {
	opts := DefaultOptions()
	m, _ := newTestManager(t, 2, opts)
	traj := func(k int) []float64 {
		return []float64{float64(k), math.Pow(-1, float64(k))}
	}
	drive(t, m, 20, traj)
	fr := m.LinearFractions()
	if fr[0] <= fr[1] {
		t.Errorf("linear param fraction %v should exceed oscillating %v", fr[0], fr[1])
	}
	for i, f := range fr {
		if f < 0 || f > 1 {
			t.Errorf("fraction[%d] = %v outside [0,1]", i, f)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	opts := DefaultOptions()
	m, _ := newTestManager(t, 3, opts)
	traj := func(k int) []float64 {
		return []float64{float64(k), 2 * float64(k), -1}
	}
	drive(t, m, 10, traj)
	snap := snapshot(m)

	agg2 := &identityAgg{}
	m2, err := NewManager(1, 3, agg2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := restore(m2, snap); err != nil {
		t.Fatal(err)
	}
	// Continued trajectories must produce identical outputs and masks.
	for k := 10; k < 16; k++ {
		x := traj(k)
		o1, _, err1 := m.Sync(k, x, true)
		o2, _, err2 := m2.Sync(k, x, true)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("round %d: restored manager diverged at param %d: %v vs %v", k, i, o1[i], o2[i])
			}
		}
	}
}

func TestRestoreSizeMismatch(t *testing.T) {
	opts := DefaultOptions()
	m, _ := newTestManager(t, 3, opts)
	other, _ := newTestManager(t, 4, opts)
	if err := restore(m, snapshot(other)); err == nil {
		t.Error("size-mismatched restore must fail")
	}
}

func TestVectorLengthMismatch(t *testing.T) {
	opts := DefaultOptions()
	m, _ := newTestManager(t, 3, opts)
	if _, _, err := m.Sync(0, []float64{1, 2}, true); err == nil {
		t.Error("wrong-length vector must fail")
	}
}

func TestNonContributorFollowsGlobal(t *testing.T) {
	// A non-contributor submits nil but must still receive and adopt the
	// aggregate when other clients contribute. With the identity aggregator
	// nil yields nil (no contributors), so the manager keeps its local
	// values — verifying the abstain path doesn't crash or desync state.
	opts := DefaultOptions()
	m, _ := newTestManager(t, 2, opts)
	if _, _, err := m.Sync(0, []float64{1, 2}, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Sync(1, []float64{2, 3}, true); err != nil {
		t.Fatal(err)
	}
}
