package nn

import (
	"math/rand"
	"testing"

	"fedsu/internal/par"
	"fedsu/internal/tensor"
)

// benchConvForwardBackward times one training step of a mid-network convolution
// (16→32 channels, 3×3, batch 8 at 16×16), the shape class that dominates
// per-client wall-clock in the emulated runs. allocs/op is the headline number:
// the padded input copy, the products' panels, gᵀ and the input gradient's tap
// buffer must come from the arena, and the offset tables from the layer's plan,
// not the GC.
func BenchmarkConvForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D(rng, 16, 32, 3, WithPadding(1))
	x := tensor.New(8, 16, 16, 16)
	x.RandNormal(rng, 0, 1)
	grad := tensor.New(8, 32, 16, 16)
	grad.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := conv.Forward(x, true)
		dx := conv.Backward(grad)
		_, _ = y, dx
	}
}

// BenchmarkLinearForwardBackward times the fully-connected head.
func BenchmarkLinearForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lin := NewLinear(rng, 512, 128)
	x := tensor.New(32, 512)
	x.RandNormal(rng, 0, 1)
	grad := tensor.New(32, 128)
	grad.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := lin.Forward(x, true)
		dx := lin.Backward(grad)
		_, _ = y, dx
	}
}

// BenchmarkPaperCNNStep times one local SGD iteration of sim_cnn's model at its
// shape — the paper's CNN at Scale 4, batch 8, one worker, and the update
// opt.SGD makes with the engine's weight decay — so the step's number is one
// `go test -bench` away instead of a benchmark run. GFLOP/s is the step's
// product arithmetic (stepFlops) over the whole step's time.
func BenchmarkPaperCNNStep(b *testing.B) {
	defer par.SetWorkers(par.SetWorkers(1))
	m := benchCNN()
	x, labels := randBatch(1, 8, 1, 28, 47)
	flops := stepFlops(m, x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrad()
		m.TrainStep(x, labels)
		engineSGDStep(m)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// stepFlops counts the flops of a training step's products on batch x, 2 a
// multiply-add. It runs x forward through m's layers: a layer with a weight
// does K multiply-adds per output element y (K = weight.Len()/y.Dim(1): C·KH·KW
// for a Conv2D, its input width for a Linear), as many again for its weight
// gradient and, except at the input layer, as many for its input gradient.
func stepFlops(m *Model, x *tensor.Tensor) float64 {
	macs, passes := 0, 2
	for _, l := range m.net.(*Sequential).layers {
		y := l.Forward(x, false)
		if ps := l.Params(); len(ps) > 0 {
			macs += passes * y.Len() * (ps[0].Value.Len() / y.Dim(1))
			passes = 3
		}
		x = y
	}
	return 2 * float64(macs)
}

// engineSGDStep is opt.SGD's update at learning rate 0.01 and the engine's
// weight decay, 0.001: opt imports nn, so it calls the tensor function
// SGD.Step calls.
func engineSGDStep(m *Model) {
	const lr, wd = 0.01, 0.001
	for _, p := range m.Params() {
		tensor.SGDUpdate(p.Value.Data(), p.Grad.Data(), lr, wd)
	}
}
