package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestQSGD(t *testing.T, size, bits int) *QSGD {
	t.Helper()
	q, err := NewQSGD(0, size, identityAgg{}, bits, 1)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestQSGDValidation(t *testing.T) {
	for _, bits := range []int{0, 1, 17} {
		if _, err := NewQSGD(0, 4, identityAgg{}, bits, 1); err == nil {
			t.Errorf("bits=%d must fail", bits)
		}
	}
}

func TestQuantizeZeroVector(t *testing.T) {
	q := newTestQSGD(t, 3, 8)
	out := q.Quantize(0, []float64{0, 0, 0})
	for _, v := range out {
		if v != 0 {
			t.Errorf("zero vector must quantize to zeros, got %v", out)
		}
	}
}

// Property: stochastic quantization is unbiased — the mean of many draws
// approaches the true value.
func TestQuantizeUnbiased(t *testing.T) {
	q := newTestQSGD(t, 4, 4)
	in := []float64{0.3, -0.77, 0.123, 1.0}
	sum := make([]float64, len(in))
	const n = 20000
	for i := 0; i < n; i++ {
		out := q.Quantize(i, in)
		for j, v := range out {
			sum[j] += v
		}
	}
	for j, v := range in {
		mean := sum[j] / n
		if math.Abs(mean-v) > 0.01 {
			t.Errorf("quantized mean[%d] = %v, want ≈%v", j, mean, v)
		}
	}
}

// Property: quantized values stay within one grid step of the input and
// within the max-norm ball.
func TestQuantizeBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := newTestQSGD(t, 8, 6)
		in := make([]float64, 8)
		scale := 0.0
		for i := range in {
			in[i] = rng.NormFloat64()
			if a := math.Abs(in[i]); a > scale {
				scale = a
			}
		}
		step := scale / 31 // 6 bits signed → 31 levels
		out := q.Quantize(int(seed), in)
		for i := range in {
			if math.Abs(out[i]-in[i]) > step+1e-12 {
				return false
			}
			if math.Abs(out[i]) > scale+step {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQSGDSyncCompresses(t *testing.T) {
	q := newTestQSGD(t, 100, 4)
	// Bootstrap round: full precision. Nonzero values, so the exchange is
	// genuinely dense (an all-zero vector would compress on the wire).
	boot := make([]float64, 100)
	for i := range boot {
		boot[i] = 1 + float64(i)
	}
	_, tr, err := q.Sync(0, boot, true)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SparsificationRatio() != 0 {
		t.Errorf("bootstrap must be full exchange, ratio %v", tr.SparsificationRatio())
	}
	// Later rounds: 4 bits vs 32 → ~87% savings.
	local := make([]float64, 100)
	for i := range local {
		local[i] = float64(i) * 0.01
	}
	_, tr, err = q.Sync(1, local, true)
	if err != nil {
		t.Fatal(err)
	}
	if r := tr.SparsificationRatio(); r < 0.5 {
		t.Errorf("4-bit quantization ratio = %v, want > 0.5", r)
	}
}

func TestQSGDTracksGlobal(t *testing.T) {
	q := newTestQSGD(t, 2, 8)
	out, _, err := q.Sync(0, []float64{1, 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("bootstrap out = %v", out)
	}
	// A large update must survive quantization approximately.
	out, _, err = q.Sync(1, []float64{2, 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-2) > 0.05 || math.Abs(out[1]-2) > 0.05 {
		t.Errorf("quantized step landed at %v, want ≈[2 2]", out)
	}
}

func TestQSGDFactory(t *testing.T) {
	s := QSGDFactory(3, 5, identityAgg{})
	if s.Name() != "qsgd" {
		t.Errorf("Name = %q", s.Name())
	}
	if _, _, err := s.Sync(0, make([]float64, 5), true); err != nil {
		t.Fatal(err)
	}
}
