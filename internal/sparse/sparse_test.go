package sparse

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// identityAgg treats the single client as the whole fleet.
type identityAgg struct{}

func (identityAgg) AggregateModel(_, _ int, values []float64) ([]float64, error) {
	if values == nil {
		return nil, nil
	}
	return append([]float64(nil), values...), nil
}

func (identityAgg) AggregateError(_, _ int, values []float64) ([]float64, error) {
	if values == nil {
		return nil, nil
	}
	return append([]float64(nil), values...), nil
}

func TestTrafficAdd(t *testing.T) {
	a := Traffic{UpBytes: 10, DownBytes: 20, SyncedParams: 3, CheckedParams: 1, TotalParams: 5}
	b := Traffic{UpBytes: 1, DownBytes: 2, SyncedParams: 4, CheckedParams: 2, TotalParams: 5}
	a.Add(b)
	if a.UpBytes != 11 || a.DownBytes != 22 || a.SyncedParams != 7 || a.CheckedParams != 3 || a.TotalParams != 10 {
		t.Errorf("Add result = %+v", a)
	}
}

func TestSparsificationRatio(t *testing.T) {
	full := Traffic{
		UpBytes:      DenseMessageBytes(100),
		DownBytes:    DenseMessageBytes(100),
		SyncedParams: 100, TotalParams: 100,
	}
	if r := full.SparsificationRatio(); r != 0 {
		t.Errorf("full exchange ratio = %v, want 0", r)
	}
	half := Traffic{
		UpBytes:      50*BytesPerValue + HeaderBytes,
		DownBytes:    50*BytesPerValue + HeaderBytes,
		SyncedParams: 50, TotalParams: 100,
	}
	if r := half.SparsificationRatio(); r <= 0.3 || r >= 0.6 {
		t.Errorf("half exchange ratio = %v, want ≈0.43", r)
	}
	if (Traffic{}).SparsificationRatio() != 0 {
		t.Error("zero traffic ratio must be 0")
	}
}

// Property: ratio is always within [0, 1].
func TestSparsificationRatioBounds(t *testing.T) {
	f := func(up, down uint16, total uint8) bool {
		tr := Traffic{UpBytes: int(up), DownBytes: int(down), TotalParams: int(total)}
		r := tr.SparsificationRatio()
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFedAvgPassesThrough(t *testing.T) {
	s := NewFedAvg(0, 3, identityAgg{})
	if s.Name() != "fedavg" {
		t.Errorf("Name = %q", s.Name())
	}
	local := []float64{1, 2, 3}
	out, tr, err := s.Sync(0, local, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range local {
		if out[i] != local[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], local[i])
		}
	}
	if tr.SyncedParams != 3 || tr.TotalParams != 3 {
		t.Errorf("traffic = %+v", tr)
	}
	if tr.SparsificationRatio() != 0 {
		t.Errorf("FedAvg ratio = %v, want 0", tr.SparsificationRatio())
	}
}

// ownedAgg is identityAgg behind a transport that decodes every reply into
// a slice of the caller's own, and says so on the receipt (flrpc.Client).
type ownedAgg struct {
	identityAgg
	cut  int // values dropped off the result's end
	last []float64
}

func (a *ownedAgg) AggregateModelCtx(ctx context.Context, id, round int, values []float64) ([]float64, error) {
	a.last, _ = a.AggregateModel(id, round, values)
	a.last = a.last[:max(0, len(a.last)-a.cut)]
	if r := ReceiptFrom(ctx); r != nil {
		r.UpBytes, r.DownBytes, r.Owned = 1, 1, true
	}
	return a.last, nil
}

func (a *ownedAgg) AggregateErrorCtx(ctx context.Context, id, round int, values []float64) ([]float64, error) {
	return a.AggregateModelCtx(ctx, id, round, values)
}

// TestFedAvgKeepsAnOwnedResult: a result the receipt marks as the caller's
// own is returned as it is; a shared one (the in-process aggregators) and a
// missing one are copied into the strategy's own vector.
func TestFedAvgKeepsAnOwnedResult(t *testing.T) {
	local := []float64{1, 2, 3}
	owned := &ownedAgg{}
	out, _, err := NewFedAvg(0, 3, owned).Sync(0, local, true)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &owned.last[0] {
		t.Error("an owned result was copied")
	}
	shared := []float64{4, 5, 6}
	out, _, err = NewFedAvg(0, 3, sharedAgg{shared}).Sync(0, local, true)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] == &shared[0] || out[2] != 6 {
		t.Errorf("a shared result must be copied, got %v (aliased %v)", out, &out[0] == &shared[0])
	}
	out, _, err = NewFedAvg(0, 3, owned).Sync(1, local, false) // nobody contributes
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || &out[0] == &local[0] || out[1] != 2 {
		t.Errorf("a round without a result keeps a copy of local, got %v", out)
	}
}

// TestFedAvgWrongLengthResult: a collective result that is not the model's
// length is an error naming both lengths, owned or shared, short or long —
// not a vector silently cut or zero-padded to fit.
func TestFedAvgWrongLengthResult(t *testing.T) {
	local := []float64{1, 2, 3}
	for name, agg := range map[string]Aggregator{
		"owned, short":  &ownedAgg{cut: 1},
		"shared, short": sharedAgg{[]float64{4, 5}},
		"shared, long":  sharedAgg{[]float64{4, 5, 6, 7}},
		"shared, empty": sharedAgg{[]float64{}},
	} {
		out, _, err := NewFedAvg(0, 3, agg).Sync(0, local, true)
		if err == nil || out != nil {
			t.Errorf("%s: got %v, %v; want an error", name, out, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "for 3") || !strings.Contains(msg, "returned") {
			t.Errorf("%s: error %q does not name both lengths", name, msg)
		}
	}
}

// sharedAgg hands every caller the same slice, like fl.Server.
type sharedAgg struct{ res []float64 }

func (a sharedAgg) AggregateModel(_, _ int, _ []float64) ([]float64, error) { return a.res, nil }
func (a sharedAgg) AggregateError(_, _ int, _ []float64) ([]float64, error) { return a.res, nil }

func TestFedAvgLengthMismatch(t *testing.T) {
	s := NewFedAvg(0, 3, identityAgg{})
	if _, _, err := s.Sync(0, []float64{1}, true); err == nil {
		t.Error("length mismatch must fail")
	}
}

func TestCMFLRelevanceGate(t *testing.T) {
	s := NewCMFL(0, 4, identityAgg{}, 0.8)
	// Round 0: no global update yet → always uploads.
	out, tr, err := s.Sync(0, []float64{1, 1, 1, 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SyncedParams != 4 {
		t.Fatalf("first round must upload, synced = %d", tr.SyncedParams)
	}
	// Round 1: moves establish the global update direction (+1 each).
	out, tr, err = s.Sync(1, []float64{2, 2, 2, 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SyncedParams != 4 {
		t.Fatalf("second round should upload, synced = %d", tr.SyncedParams)
	}
	_ = out
	// Round 2: local update direction fully opposite → relevance 0 → skip.
	_, tr, err = s.Sync(2, []float64{1, 1, 1, 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SyncedParams != 0 {
		t.Errorf("opposite update should be withheld, synced = %d", tr.SyncedParams)
	}
	if tr.UpBytes != HeaderBytes {
		t.Errorf("withheld upload bytes = %d, want header only", tr.UpBytes)
	}
	if tr.DownBytes <= HeaderBytes {
		t.Error("CMFL always downloads the full model")
	}
}

func TestCMFLRelevanceComputation(t *testing.T) {
	s := NewCMFL(0, 4, identityAgg{}, 0.8)
	s.Sync(0, []float64{0, 0, 0, 0}, true)
	s.Sync(1, []float64{1, 1, 1, -1}, true) // global update (+,+,+,−)
	// Local update (+,+,−,−): agreement on indices 0,1,3 → 0.75.
	rel := s.Relevance([]float64{2, 2, 0.5, -2})
	if math.Abs(rel-0.75) > 1e-12 {
		t.Errorf("relevance = %v, want 0.75", rel)
	}
}

func TestAPFFreezesConvergedParameter(t *testing.T) {
	s := NewAPF(0, 2, identityAgg{}, 0.05)
	if s.Name() != "apf" {
		t.Errorf("Name = %q", s.Name())
	}
	// Param 0 oscillates around 0 (converged); param 1 moves steadily.
	// Freezing alternates with probe rounds, so count frozen rounds rather
	// than sampling the final round.
	frozenRounds := [2]int{}
	for k := 0; k < 20; k++ {
		osc := 0.001
		if k%2 == 0 {
			osc = -0.001
		}
		local := []float64{osc, float64(k)}
		if _, _, err := s.Sync(k, local, true); err != nil {
			t.Fatal(err)
		}
		for i, f := range s.frozen {
			if f {
				frozenRounds[i]++
			}
		}
	}
	if frozenRounds[0] < 8 {
		t.Errorf("oscillating parameter frozen %d/20 rounds, want most", frozenRounds[0])
	}
	if frozenRounds[1] != 0 {
		t.Errorf("steadily-moving parameter froze for %d rounds", frozenRounds[1])
	}
}

func TestAPFTrafficShrinksWithFreezing(t *testing.T) {
	s := NewAPF(0, 10, identityAgg{}, 0.05)
	minSynced, everFrozen := 10, 0
	for k := 0; k < 12; k++ {
		local := make([]float64, 10)
		for i := range local {
			// All params oscillate → all should freeze.
			local[i] = 0.001 * math.Pow(-1, float64(k))
		}
		_, tr, err := s.Sync(k, local, true)
		if err != nil {
			t.Fatal(err)
		}
		if tr.SyncedParams < minSynced {
			minSynced = tr.SyncedParams
		}
		if n := s.FrozenCount(); n > everFrozen {
			everFrozen = n
		}
	}
	if everFrozen == 0 {
		t.Fatal("no parameters ever froze")
	}
	if minSynced >= 10 {
		t.Errorf("min synced = %d, want < 10 under freezing", minSynced)
	}
}

func TestAPFThawAfterPeriod(t *testing.T) {
	s := NewAPF(0, 1, identityAgg{}, 0.05)
	frozeAt := -1
	for k := 0; k < 30; k++ {
		v := 0.001 * math.Pow(-1, float64(k))
		if frozeAt >= 0 {
			// After freezing, drive a strong trend so the probe detects
			// movement and keeps the parameter active.
			v = float64(k)
		}
		s.Sync(k, []float64{v}, true)
		if frozeAt < 0 && s.frozen[0] {
			frozeAt = k
		}
	}
	if frozeAt < 0 {
		t.Fatal("parameter never froze")
	}
	if s.frozen[0] {
		t.Error("parameter should thaw after its freezing period when movement resumes")
	}
}

func TestFactorySignatures(t *testing.T) {
	for _, f := range []Factory{FedAvgFactory, CMFLFactory, APFFactory} {
		s := f(3, 5, identityAgg{})
		if s == nil {
			t.Fatal("factory returned nil")
		}
		if _, _, err := s.Sync(0, []float64{1, 2, 3, 4, 5}, true); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestNonContributorAbstains(t *testing.T) {
	// With a single client abstaining, the aggregate is nil and each
	// strategy must fall back to its local/previous values without error.
	strategies := []Syncer{
		NewFedAvg(0, 2, identityAgg{}),
		NewCMFL(0, 2, identityAgg{}, 0.8),
		NewAPF(0, 2, identityAgg{}, 0.05),
	}
	for _, s := range strategies {
		out, _, err := s.Sync(0, []float64{1, 2}, false)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if out[0] != 1 || out[1] != 2 {
			t.Errorf("%s: non-contributor with empty fleet should keep local values, got %v", s.Name(), out)
		}
	}
}
