package sparse

import (
	"context"
	"math"
	"testing"

	"fedsu/internal/sparse/codec"
)

func mustChain(t *testing.T, spec string) *codec.Chain {
	t.Helper()
	ch, err := codec.Parse(spec, 1)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return ch
}

// The zero-value Wire must be byte-identical to the legacy accounting:
// every strategy constructed without SetWire keeps its historical numbers.
func TestWireDefaultMatchesLegacy(t *testing.T) {
	vec := make([]float64, 200)
	for i := 0; i < len(vec); i += 7 {
		vec[i] = float64(i) * 0.25
	}
	var w Wire
	if got, want := w.Bytes(vec), MessageBytes(vec); got != want {
		t.Errorf("Bytes = %d, want MessageBytes %d", got, want)
	}
	if got, want := w.Bytes(nil), HeaderBytes; got != want {
		t.Errorf("Bytes(nil) = %d, want %d", got, want)
	}
	if got, want := w.DenseBytes(200), DenseMessageBytes(200); got != want {
		t.Errorf("DenseBytes = %d, want %d", got, want)
	}
	if w.Enabled() {
		t.Error("zero-value Wire must not report Enabled")
	}
	def := Wire{Chain: codec.Default()}
	if def.Enabled() {
		t.Error("default chain must not report Enabled")
	}
	if got, want := def.Bytes(vec), MessageBytes(vec); got != want {
		t.Errorf("default chain Bytes = %d, want %d", got, want)
	}
}

// Regression for the SparsificationRatio rebase: a full dense exchange
// under a quantized chain ships fewer bytes than the float32 reference,
// so measuring against the legacy denominator would report phantom
// "sparsification" from plain compression. Against the chain's own dense
// cost (Traffic.FullBytes) the ratio is 0 again — the strategy skipped
// nothing.
func TestSparsificationRatioChainRebase(t *testing.T) {
	const n = 1000
	w := Wire{Chain: mustChain(t, "topk,q4")}
	dense := make([]float64, n)
	for i := range dense {
		dense[i] = math.Sin(float64(i)) + 2 // all nonzero
	}
	tr := Traffic{
		UpBytes:     w.Bytes(dense),
		DownBytes:   w.ReplyBytes(dense),
		TotalParams: n,
		FullBytes:   w.FullRef(n),
	}
	if r := tr.SparsificationRatio(); r != 0 {
		t.Errorf("full exchange under q4 chain: ratio = %v, want 0", r)
	}
	// Sanity: the legacy denominator really would have misreported.
	legacy := tr
	legacy.FullBytes = 0
	if r := legacy.SparsificationRatio(); r < 0.3 {
		t.Errorf("legacy reference should overstate savings, got %v", r)
	}
	// And genuine sparsification still registers: a 10%-density upload
	// under the same chain saves real bytes against the chain reference.
	sparseVec := make([]float64, n)
	for i := 0; i < n; i += 10 {
		sparseVec[i] = 1.5
	}
	trS := Traffic{
		UpBytes:     w.Bytes(sparseVec),
		DownBytes:   w.ReplyBytes(sparseVec),
		TotalParams: n,
		FullBytes:   w.FullRef(n),
	}
	if r := trS.SparsificationRatio(); r < 0.4 {
		t.Errorf("10%% density under q4 chain: ratio = %v, want > 0.4", r)
	}
}

func TestTrafficAddFullBytes(t *testing.T) {
	a := Traffic{FullBytes: 100}
	a.Add(Traffic{FullBytes: 40})
	if a.FullBytes != 140 {
		t.Errorf("FullBytes = %d, want 140", a.FullBytes)
	}
}

// ChainAggregator must hand the inner aggregator (and the caller) exactly
// the chain's wire image — what a TCP transport's encode→decode produces
// on each leg — with nil (abstention) passing through untouched.
func TestChainAggregatorAppliesWireImage(t *testing.T) {
	ch := mustChain(t, "topk,q4")
	agg := WrapAggregator(identityAgg{}, ch)
	if _, same := agg.(identityAgg); same {
		t.Fatal("non-default chain must wrap the aggregator")
	}
	vals := []float64{0, 1.25, -3.5, 0, 0.125, 9}
	got, err := agg.AggregateModel(0, 0, vals)
	if err != nil {
		t.Fatal(err)
	}
	// identityAgg echoes its input, so the result is the double image;
	// q4's grid is idempotent, so that equals the single image.
	want := ch.RoundTrip(vals)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("[%d] = %v, want wire image %v", i, got[i], want[i])
		}
	}
	if out, err := agg.AggregateModel(0, 0, nil); err != nil || out != nil {
		t.Errorf("abstention must stay nil, got %v, %v", out, err)
	}
	if _, err := agg.AggregateError(0, 0, vals); err != nil {
		t.Fatal(err)
	}
	// Default and nil chains must not wrap at all.
	if _, same := WrapAggregator(identityAgg{}, codec.Default()).(identityAgg); !same {
		t.Error("default chain must not wrap the aggregator")
	}
	if _, same := WrapAggregator(identityAgg{}, nil).(identityAgg); !same {
		t.Error("nil chain must not wrap the aggregator")
	}
}

// A strategy bound to a chain-wrapped aggregator plus a chain Wire keeps
// its accounting consistent with what it ships: FedAvg's full exchange
// reports zero sparsification regardless of the chain.
func TestFedAvgWithChain(t *testing.T) {
	ch := mustChain(t, "topk,q4")
	w := Wire{Chain: ch}
	s := NewFedAvg(0, 64, WrapAggregator(identityAgg{}, ch))
	s.SetWire(w)
	local := make([]float64, 64)
	for i := range local {
		local[i] = float64(i%5) + 1 // dense: every value nonzero
	}
	out, tr, err := s.Sync(0, local, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 64 {
		t.Fatalf("len(out) = %d", len(out))
	}
	if tr.FullBytes != w.FullRef(64) {
		t.Errorf("FullBytes = %d, want %d", tr.FullBytes, w.FullRef(64))
	}
	if r := tr.SparsificationRatio(); r != 0 {
		t.Errorf("FedAvg under q4 chain: ratio = %v, want 0", r)
	}

	// An entropy stage, by contrast, is allowed to register savings even
	// on a dense exchange: the reference cost deliberately excludes the
	// data-dependent stages, so bytes the range coder squeezes out show up
	// as genuine wire savings.
	chE := mustChain(t, "topk,q4,rans")
	wE := Wire{Chain: chE}
	sE := NewFedAvg(0, 64, WrapAggregator(identityAgg{}, chE))
	sE.SetWire(wE)
	_, trE, err := sE.Sync(0, local, true)
	if err != nil {
		t.Fatal(err)
	}
	if r := trE.SparsificationRatio(); r <= 0 {
		t.Errorf("entropy stage should register savings on this vector, ratio = %v", r)
	}
}

// TestOneStageChainBytesMatchLegacyEncoder pins the degenerate "topk"
// chain's wire image byte-for-byte to the PR 4 encoder: the chain layer
// must be a pure re-plumbing of the historical codec, not a re-encoding.
func TestOneStageChainBytesMatchLegacyEncoder(t *testing.T) {
	vectors := [][]float64{
		nil,
		{},
		{0, 0, 0},
		{1.5, 0, -2.25, 0, 0, 3},
		make([]float64, 300),
	}
	for i := 0; i < 300; i += 11 {
		vectors[4][i] = float64(i) * 0.125
	}
	ch := mustChain(t, "topk")
	for _, v := range vectors {
		if v == nil {
			continue // chains never see nil (abstentions carry no payload)
		}
		legacy := EncodeVectorPayload(v)
		chained := ch.AppendEncode(nil, v)
		if len(legacy) != len(chained) {
			t.Fatalf("len(%v): legacy %d, chain %d", v, len(legacy), len(chained))
		}
		for j := range legacy {
			if legacy[j] != chained[j] {
				t.Fatalf("vector %v byte %d: legacy %#x, chain %#x", v, j, legacy[j], chained[j])
			}
		}
	}
}

// reportingAgg stands in for a transport that encodes: it echoes the
// submission into a reused buffer and fills the caller's receipt with fixed
// sizes and an image of 1s.
type reportingAgg struct{ buf []float64 }

func (a *reportingAgg) AggregateModel(id, round int, v []float64) ([]float64, error) {
	return a.AggregateModelCtx(context.Background(), id, round, v)
}

func (a *reportingAgg) AggregateError(id, round int, v []float64) ([]float64, error) {
	return a.AggregateModelCtx(context.Background(), id, round, v)
}

func (a *reportingAgg) AggregateErrorCtx(ctx context.Context, id, round int, v []float64) ([]float64, error) {
	return a.AggregateModelCtx(ctx, id, round, v)
}

func (a *reportingAgg) AggregateModelCtx(ctx context.Context, _, _ int, v []float64) ([]float64, error) {
	if r := ReceiptFrom(ctx); r != nil {
		r.UpBytes, r.DownBytes = 1000, 2000
		for i := range r.Image {
			r.Image[i] = 1
		}
	}
	a.buf = append(a.buf[:0], v...)
	return a.buf, nil
}

// Collect reports the encoder's receipt when the call path encoded — under
// a cancellable caller ctx too — and the sizes and image computed under the
// wire when nothing did, and allocates nothing.
func TestCollect(t *testing.T) {
	ch := mustChain(t, "topk,q4")
	w := Wire{Chain: ch}
	send := []float64{0, 1.25, -3.5, 0, 0.125, 9}
	image := make([]float64, len(send))

	res, up, down, err := w.Collect(context.Background(), AggModel, identityAgg{}, 0, 0, send, image, nil)
	if err != nil {
		t.Fatal(err)
	}
	if up != w.Bytes(send) || down != w.ReplyBytes(res) {
		t.Errorf("nothing encoded: charged %d/%d, the wire computes %d/%d", up, down, w.Bytes(send), w.ReplyBytes(res))
	}
	for i, v := range w.Image(send) {
		if math.Float64bits(image[i]) != math.Float64bits(v) {
			t.Errorf("nothing encoded: image[%d] = %v, the wire computes %v", i, image[i], v)
		}
	}
	if _, up, down, _ := w.Collect(context.Background(), AggError, identityAgg{}, 0, 0, nil, nil, nil); up != HeaderBytes || down != HeaderBytes {
		t.Errorf("abstention into an empty collective charged %d/%d, want the header both ways", up, down)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agg := &reportingAgg{}
	if _, up, down, _ := w.Collect(ctx, AggModel, agg, 0, 0, send, image, nil); up != 1000 || down != 2000 || image[0] != 1 {
		t.Errorf("encoder's receipt not reported: %d/%d, image[0] = %v", up, down, image[0])
	}
	before := ch.Encodes()
	if allocs := testing.AllocsPerRun(20, func() {
		if _, _, _, err := w.Collect(ctx, AggError, agg, 0, 0, send, image, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a receipted collective allocates %.1f times, want 0", allocs)
	}
	if ch.Encodes() != before {
		t.Error("Collect encoded a leg the transport had already reported")
	}
}
