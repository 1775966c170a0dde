package nn

import (
	"math/rand"
	"testing"

	"fedsu/internal/par"
	"fedsu/internal/tensor"
)

// benchConvForwardBackward times one training step of a mid-network
// convolution (16→32 channels, 3×3, batch 8 at 16×16) at the given storage
// width, the shape class that dominates per-client wall-clock in the
// emulated runs. allocs/op is the headline number: the padded input copy,
// the products' panels, gᵀ and the input gradient's tap buffer must come
// from the arena, and the offset tables from the layer's plan, not the GC.
// The F32 variant moves half the bytes through the same kernels.
func benchConvForwardBackward[E tensor.Elem](b *testing.B) {
	dt := tensor.DTypeOf[E]()
	rng := rand.New(rand.NewSource(1))
	conv := newConv2DOf[E](rng, 16, 32, 3, WithPadding(1))
	x := tensor.NewOf(dt, 8, 16, 16, 16)
	x.RandNormal(rng, 0, 1)
	grad := tensor.NewOf(dt, 8, 32, 16, 16)
	grad.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := conv.Forward(x, true)
		dx := conv.Backward(grad)
		_, _ = y, dx
	}
}

func BenchmarkConvForwardBackward(b *testing.B)    { benchConvForwardBackward[float64](b) }
func BenchmarkConvForwardBackwardF32(b *testing.B) { benchConvForwardBackward[float32](b) }

// benchLinearForwardBackward times the fully-connected head.
func benchLinearForwardBackward[E tensor.Elem](b *testing.B) {
	dt := tensor.DTypeOf[E]()
	rng := rand.New(rand.NewSource(1))
	lin := newLinearOf[E](rng, 512, 128)
	x := tensor.NewOf(dt, 32, 512)
	x.RandNormal(rng, 0, 1)
	grad := tensor.NewOf(dt, 32, 128)
	grad.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := lin.Forward(x, true)
		dx := lin.Backward(grad)
		_, _ = y, dx
	}
}

func BenchmarkLinearForwardBackward(b *testing.B)    { benchLinearForwardBackward[float64](b) }
func BenchmarkLinearForwardBackwardF32(b *testing.B) { benchLinearForwardBackward[float32](b) }

// benchPaperCNNStep times one local SGD iteration of sim_cnn's model at its
// shape — the paper's CNN at Scale 4, batch 8, one worker, and the update
// opt.SGD makes with the engine's weight decay — so the step's number is one
// `go test -bench` away instead of a benchmark run. GFLOP/s is the step's
// product arithmetic (stepFlops) over the whole step's time.
func benchPaperCNNStep(b *testing.B, dt tensor.DType) {
	defer par.SetWorkers(par.SetWorkers(1))
	m := benchCNN(dt)
	x, labels := randBatch(dt, 1, 8, 1, 28, 47)
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
		if p.Value.DType() == tensor.Float32 {
			tensor.SGDUpdate(tensor.DataOf[float32](p.Value), tensor.DataOf[float32](p.Grad), lr, wd)
			continue
		}
		tensor.SGDUpdate(tensor.DataOf[float64](p.Value), tensor.DataOf[float64](p.Grad), lr, wd)
	}
}

func BenchmarkPaperCNNStep(b *testing.B)    { benchPaperCNNStep(b, tensor.Float64) }
func BenchmarkPaperCNNStepF32(b *testing.B) { benchPaperCNNStep(b, tensor.Float32) }
