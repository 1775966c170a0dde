package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedsu/internal/tensor"
)

// scalarLoss reduces a layer output to a scalar via a fixed random linear
// functional so finite differences have a single number to probe.
type scalarLoss struct {
	w *tensor.Tensor
}

func newScalarLoss(rng *rand.Rand, shape []int) *scalarLoss {
	w := tensor.New(shape...)
	w.RandNormal(rng, 0, 1)
	return &scalarLoss{w: w}
}

func (s *scalarLoss) value(y *tensor.Tensor) float64 {
	v := 0.0
	for i, x := range y.Data() {
		v += x * s.w.Data()[i]
	}
	return v
}

func (s *scalarLoss) grad() *tensor.Tensor { return s.w.Clone() }

// gradCheck verifies Backward against central finite differences for both
// the input gradient and every parameter gradient of the layer.
func gradCheck(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))

	y := layer.Forward(x, true)
	loss := newScalarLoss(rng, y.Shape())
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	layer.Forward(x, true)
	dx := layer.Backward(loss.grad()).Clone() // it must outlive the Forward calls below

	const h = 1e-5
	eval := func() float64 { return loss.value(layer.Forward(x, true)) }

	// Input gradient.
	for _, i := range sampleIndices(rng, x.Len(), 12) {
		orig := x.Data()[i]
		x.Data()[i] = orig + h
		up := eval()
		x.Data()[i] = orig - h
		down := eval()
		x.Data()[i] = orig
		num := (up - down) / (2 * h)
		if diff := math.Abs(num - dx.Data()[i]); diff > tol*(1+math.Abs(num)) {
			t.Errorf("input grad[%d]: analytic %v, numeric %v", i, dx.Data()[i], num)
		}
	}

	// Parameter gradients.
	for _, p := range layer.Params() {
		if p.NoOpt {
			continue
		}
		for _, i := range sampleIndices(rng, p.Value.Len(), 8) {
			orig := p.Value.Data()[i]
			p.Value.Data()[i] = orig + h
			up := eval()
			p.Value.Data()[i] = orig - h
			down := eval()
			p.Value.Data()[i] = orig
			num := (up - down) / (2 * h)
			if diff := math.Abs(num - p.Grad.Data()[i]); diff > tol*(1+math.Abs(num)) {
				t.Errorf("param %s grad[%d]: analytic %v, numeric %v", p.Name, i, p.Grad.Data()[i], num)
			}
		}
	}
	_ = loss
}

func sampleIndices(rng *rand.Rand, n, k int) []int {
	if n <= k {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	seen := map[int]bool{}
	var idx []int
	for len(idx) < k {
		i := rng.Intn(n)
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	return idx
}

func randInput(seed int64, shape ...int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(shape...)
	x.RandNormal(rng, 0, 1)
	return x
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gradCheck(t, NewLinear(rng, 6, 4), randInput(2, 3, 6), 1e-4)
}

func TestConv2DGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		l    *Conv2D
	}{
		{"valid5x5", NewConv2D(rng, 2, 3, 5)},
		{"same3x3", NewConv2D(rng, 2, 3, 3, WithPadding(1))},
		{"stride2", NewConv2D(rng, 2, 4, 3, WithStride(2), WithPadding(1))},
		{"nobias1x1", NewConv2D(rng, 2, 3, 1, WithoutBias())},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			gradCheck(t, tt.l, randInput(3, 2, 2, 8, 8), 1e-4)
		})
	}
}

func TestBatchNormGradCheck(t *testing.T) {
	gradCheck(t, NewBatchNorm2D(3), randInput(4, 2, 3, 4, 4), 1e-3)
}

func TestPoolGradCheck(t *testing.T) {
	t.Run("max", func(t *testing.T) {
		gradCheck(t, NewMaxPool2D(2, 2), randInput(5, 2, 2, 6, 6), 1e-4)
	})
	t.Run("avg", func(t *testing.T) {
		gradCheck(t, NewAvgPool2D(2, 2), randInput(6, 2, 2, 6, 6), 1e-4)
	})
	t.Run("global", func(t *testing.T) {
		gradCheck(t, NewGlobalAvgPool2D(), randInput(7, 2, 3, 4, 4), 1e-4)
	})
}

func TestReLUGradCheck(t *testing.T) {
	// Shift inputs away from the kink to keep finite differences valid.
	x := randInput(8, 2, 10)
	for i, v := range x.Data() {
		if math.Abs(v) < 0.05 {
			x.Data()[i] = 0.1
		}
	}
	gradCheck(t, NewReLU(), x, 1e-4)
}

func TestResidualBlockGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	t.Run("identity", func(t *testing.T) {
		gradCheck(t, NewResidualBlock(rng, 3, 3, 1), randInput(9, 2, 3, 6, 6), 1e-3)
	})
	t.Run("projection", func(t *testing.T) {
		gradCheck(t, NewResidualBlock(rng, 3, 5, 2), randInput(10, 2, 3, 6, 6), 1e-3)
	})
}

func TestDenseBlockGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	gradCheck(t, NewDenseBlock(rng, 3, 2, 3), randInput(11, 2, 3, 5, 5), 1e-3)
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	// Uniform logits → loss = log(C); gradient = (p − onehot)/N.
	l := NewSoftmaxCrossEntropy()
	logits := tensor.New(2, 4)
	labels := []int{1, 3}
	loss := l.Forward(logits, labels)
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Errorf("uniform-logit loss = %v, want log(4) = %v", loss, math.Log(4))
	}
	g := l.Backward()
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			want := 0.25 / 2
			if j == labels[i] {
				want = (0.25 - 1) / 2
			}
			if math.Abs(g.At(i, j)-want) > 1e-12 {
				t.Errorf("grad[%d,%d] = %v, want %v", i, j, g.At(i, j), want)
			}
		}
	}
}

func TestSoftmaxCrossEntropyGradCheck(t *testing.T) {
	l := NewSoftmaxCrossEntropy()
	logits := randInput(12, 3, 5)
	labels := []int{0, 2, 4}
	l.Forward(logits, labels)
	g := l.Backward()
	const h = 1e-6
	for i := range logits.Data() {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + h
		up := l.Forward(logits, labels)
		logits.Data()[i] = orig - h
		down := l.Forward(logits, labels)
		logits.Data()[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-g.Data()[i]) > 1e-5 {
			t.Errorf("CE grad[%d]: analytic %v, numeric %v", i, g.Data()[i], num)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		1, 5, 2, // argmax 1
		9, 0, 0, // argmax 0
		0, 0, 7, // argmax 2
		3, 2, 1, // argmax 0
	}, 4, 3)
	got := Accuracy(logits, []int{1, 0, 2, 2})
	if got != 0.75 {
		t.Errorf("Accuracy = %v, want 0.75", got)
	}
}
