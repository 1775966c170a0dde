package opt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedsu/internal/nn"
	"fedsu/internal/tensor"
)

func makeParam(vals ...float64) *nn.Param {
	return &nn.Param{
		Name:  "p",
		Value: tensor.FromSlice(append([]float64(nil), vals...), len(vals)),
		Grad:  tensor.New(len(vals)),
	}
}

func TestSGDPlainStep(t *testing.T) {
	p := makeParam(1, 2)
	p.Grad.Data()[0] = 0.5
	p.Grad.Data()[1] = -1
	s := NewSGD(0.1)
	s.Step([]*nn.Param{p})
	if got := p.Value.At(0); math.Abs(got-0.95) > 1e-12 {
		t.Errorf("value[0] = %v, want 0.95", got)
	}
	if got := p.Value.At(1); math.Abs(got-2.1) > 1e-12 {
		t.Errorf("value[1] = %v, want 2.1", got)
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := makeParam(2)
	s := NewSGD(0.1, WithWeightDecay(0.5))
	s.Step([]*nn.Param{p})
	// grad = 0 + 0.5*2 = 1 → value = 2 − 0.1 = 1.9
	if got := p.Value.At(0); math.Abs(got-1.9) > 1e-12 {
		t.Errorf("value = %v, want 1.9", got)
	}
}

func TestSGDSkipsNoOpt(t *testing.T) {
	p := makeParam(5)
	p.NoOpt = true
	p.Grad.Data()[0] = 100
	s := NewSGD(0.1)
	s.Step([]*nn.Param{p})
	if p.Value.At(0) != 5 {
		t.Errorf("NoOpt param was updated to %v", p.Value.At(0))
	}
}

func TestSGDMatchesManualLoop(t *testing.T) {
	// Cross-check the optimizer against the manual update used in nn tests.
	rng := rand.New(rand.NewSource(3))
	p1 := makeParam(rng.Float64(), rng.Float64(), rng.Float64())
	p2 := makeParam(p1.Value.Data()[0], p1.Value.Data()[1], p1.Value.Data()[2])
	s := NewSGD(0.05)
	for step := 0; step < 5; step++ {
		for i := 0; i < 3; i++ {
			g := rng.NormFloat64()
			p1.Grad.Data()[i] = g
			p2.Grad.Data()[i] = g
		}
		s.Step([]*nn.Param{p1})
		p2.Value.AddScaled(-0.05, p2.Grad)
		p1.ZeroGrad()
		p2.ZeroGrad()
	}
	for i := 0; i < 3; i++ {
		if math.Abs(p1.Value.At(i)-p2.Value.At(i)) > 1e-12 {
			t.Fatalf("optimizer diverged from manual SGD at %d", i)
		}
	}
}

// sgdRef is the update Step made before it became one pass: the decay folded
// into the whole gradient first, then the step.
func sgdRef(v, g []float64, lr, weightDecay float64) {
	if weightDecay != 0 {
		for i := range g {
			g[i] += weightDecay * v[i]
		}
	}
	for i := range v {
		v[i] -= lr * g[i]
	}
}

// Bit patterns salted among the operands: ±0, quiet NaNs of either sign and
// distinct payloads, a signalling NaN, ±Inf, the smallest subnormal and the
// most negative one.
var (
	sgdSpecials64 = []uint64{0, 1 << 63, 0x7ff8_0000_0000_0a0a, 0xfff8_0000_0000_0b0b, 0x7ff0_0000_0000_0c0c,
		0x7ff0_0000_0000_0000, 0xfff0_0000_0000_0000, 1, 0x800f_ffff_ffff_ffff}
)

// saltedValues draws n values: normal draws, and one in four a special bit
// pattern.
func saltedValues(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
		if rng.Intn(4) == 0 {
			out[i] = math.Float64frombits(sgdSpecials64[rng.Intn(len(sgdSpecials64))])
		}
	}
	return out
}

// TestSGDMatchesRetiredUpdate holds Step to sgdRef bit for bit — the values
// and the gradient Step leaves — at every length 0–67 (so
// the vector head's 16-element steps and every tail length run), with the
// parameter and its gradient starting at different element offsets, with and
// without weight decay, on operands salted with NaN payloads, ±0, ±Inf and
// subnormals. Length 0 goes straight to tensor.SGDUpdate, which Step calls
// per parameter: a tensor holds at least one element.
func TestSGDMatchesRetiredUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, wd := range []float64{0, 0.001} {
		s := NewSGD(0.05, WithWeightDecay(wd))
		lr, decay := s.LR(), wd
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				v0, g0 := saltedValues(rng, n), saltedValues(rng, n)
				vb, gb := make([]float64, off+n), make([]float64, 3-off+n)
				v, g := vb[off:], gb[3-off:]
				copy(v, v0)
				copy(g, g0)
				if n == 0 {
					tensor.SGDUpdate(v, g, lr, decay)
				} else {
					s.Step([]*nn.Param{{Name: "p", Value: tensor.FromSlice(v, n), Grad: tensor.FromSlice(g, n)}})
				}
				sgdRef(v0, g0, lr, decay)
				what := fmt.Sprintf("n=%d offsets=%d,%d wd=%g", n, off, 3-off, wd)
				bits := math.Float64bits
				for i := range v0 {
					if bits(v[i]) != bits(v0[i]) || bits(g[i]) != bits(g0[i]) {
						t.Fatalf("%s: element %d is v %#x g %#x, the retired update gives v %#x g %#x",
							what, i, bits(v[i]), bits(g[i]), bits(v0[i]), bits(g0[i]))
					}
				}
			}
		}
	}
}

// BenchmarkSGDStep times one optimizer step with the engine's weight decay
// over two parameter lists: sim_cnn's model (the paper's CNN at Scale 4,
// 42,383 parameters) and the default-width CNN (601,007).
func BenchmarkSGDStep(b *testing.B) {
	for _, scale := range []int{4, 1} {
		m := nn.NewPaperCNN(nn.ModelConfig{InChannels: 1, ImageSize: 28, NumClasses: 47, Scale: scale, Seed: 104})
		rng := rand.New(rand.NewSource(1))
		params := m.Params()
		size := 0
		for _, p := range params {
			p.Grad.RandNormal(rng, 0, 1)
			size += p.Value.Len()
		}
		b.Run(fmt.Sprintf("params=%d", size), func(b *testing.B) {
			s := NewSGD(1e-6, WithWeightDecay(0.001))
			b.SetBytes(int64(8 * 4 * size)) // reads and writes both vectors
			for i := 0; i < b.N; i++ {
				s.Step(params)
			}
		})
	}
}

// TestSGDRateIsConstantAcrossSteps: every step applies the base rate, so
// three unit-gradient steps move a parameter by exactly 3·lr and LR reports
// the base rate throughout.
func TestSGDRateIsConstantAcrossSteps(t *testing.T) {
	p := makeParam(0)
	s := NewSGD(0.25)
	for i := 0; i < 3; i++ {
		p.Grad.Data()[0] = 1
		s.Step([]*nn.Param{p})
		p.ZeroGrad()
		if s.LR() != 0.25 {
			t.Fatalf("LR after step %d = %v, want 0.25", i+1, s.LR())
		}
	}
	if got := p.Value.At(0); got != -0.75 {
		t.Errorf("value = %v, want -0.75", got)
	}
}
