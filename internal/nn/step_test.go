package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"fedsu/internal/par"
	"fedsu/internal/tensor"
)

// benchCNN is the sim_cnn benchmark's model: the paper's CNN at scale 4.
func benchCNN() *Model {
	return NewPaperCNN(ModelConfig{InChannels: 1, ImageSize: 28, NumClasses: 47, Scale: 4, Seed: 104})
}

func randBatch(seed int64, n, c, size, classes int) (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, c, size, size)
	x.RandNormal(rng, 0, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return x, labels
}

// sgdStep is a plain SGD update; the opt package imports nn, so the test
// spells the update out.
func sgdStep(m *Model, lr float64) {
	for _, p := range m.Params() {
		p.Value.AddScaled(-lr, p.Grad)
	}
}

// TestTrainStepSteadyStateAllocs pins the step's allocation: after one
// warm-up step every activation, gradient and matmul scratch comes from a
// step buffer or the arena, so a step allocates no tensor. What is left is
// the header of Flatten's two views. Three things that are correct but would
// read as allocation here are held still: a second worker (handing it a
// chunk costs a closure — the pool's business, not the step's), a second P
// (the arena's sync.Pools keep one object per P where no other P finds it),
// and the collector (which empties those pools).
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	defer par.SetWorkers(par.SetWorkers(1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Below the smallest tensor of the step (the logits, 8×47×8 B),
	// above the ~340 B of view headers and the arena pools' own bookkeeping.
	const stepBudget = 1024
	m := benchCNN()
	x, labels := randBatch(1, 8, 1, 28, 47)
	step := func() {
		m.ZeroGrad()
		m.TrainStep(x, labels)
		sgdStep(m, 0.01)
	}
	step()
	const steps = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	perStep := (after.TotalAlloc - before.TotalAlloc) / steps
	t.Logf("%d B/step", perStep)
	if perStep > stepBudget {
		t.Errorf("a steady-state TrainStep allocates %d B, budget %d B", perStep, stepBudget)
	}
}

// unmarkInputLayer undoes NewModel's markInputLayer, giving the model that
// computes every input gradient.
func unmarkInputLayer(t *testing.T, m *Model) {
	t.Helper()
	seq := m.net.(*Sequential)
	if seq.inputLayers == 0 {
		t.Fatal("NewModel marked no input layer")
	}
	switch l := seq.layers[seq.inputLayers-1].(type) {
	case *Conv2D:
		l.noInputGrad = false
	case *Linear:
		l.noInputGrad = false
	default:
		t.Fatalf("unexpected input layer %T", l)
	}
	seq.inputLayers = 0
}

// TestInputLayerGradSkipKeepsParamGrads trains a marked model and an
// unmarked replica on the same batches: skipping ∂loss/∂input at the first
// layer must leave every parameter gradient, and so every parameter, bit for
// bit what it was.
func TestInputLayerGradSkipKeepsParamGrads(t *testing.T) {
	builds := map[string]func() *Model{
		"cnn": benchCNN,
		"mlp": func() *Model { // the marked layer sits behind a Flatten
			return NewMLP(ModelConfig{InChannels: 1, ImageSize: 28, NumClasses: 47, Seed: 9}, 32)
		},
		"resnet18": func() *Model {
			return NewResNet18(ModelConfig{InChannels: 1, ImageSize: 28, NumClasses: 47, Scale: 16, Seed: 9})
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			marked, plain := build(), build()
			unmarkInputLayer(t, plain)
			for step := 0; step < 3; step++ {
				x, labels := randBatch(int64(step), 4, 1, 28, 47)
				// TrainStep, keeping what it throws away.
				inputGrad := func(m *Model) *tensor.Tensor {
					m.ZeroGrad()
					m.loss.Forward(m.net.Forward(x, true), labels)
					return m.net.Backward(m.loss.Backward())
				}
				if g := inputGrad(marked); g != nil {
					t.Fatal("the marked model still returns an input gradient")
				}
				if g := inputGrad(plain); g == nil || !g.SameShape(x) {
					t.Fatal("the unmarked model returns no input gradient")
				}
				mp, pp := marked.Params(), plain.Params()
				for i := range mp {
					sameTensorBits(t, fmt.Sprintf("step %d grad %s", step, mp[i].Name), mp[i].Grad, pp[i].Grad)
				}
				sgdStep(marked, 0.05)
				sgdStep(plain, 0.05)
			}
		})
	}
}

func sameTensorBits(t *testing.T, name string, a, b *tensor.Tensor) {
	t.Helper()
	av, bv := a.Data(), b.Data()
	if len(av) != len(bv) {
		t.Fatalf("%s: length %d != %d", name, len(av), len(bv))
	}
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) && !(math.IsNaN(av[i]) && math.IsNaN(bv[i])) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, av[i], bv[i])
		}
	}
}

// TestReleaseScratchLeavesNothingAndChangesNothing checks both halves of the
// buffer lifetime: a released model holds no step buffer, and releasing
// between steps changes no result.
func TestReleaseScratchLeavesNothingAndChangesNothing(t *testing.T) {
	held, released := benchCNN(), benchCNN()
	for step := 0; step < 3; step++ {
		x, labels := randBatch(int64(10+step), 8, 1, 28, 47)
		var losses [2]float64
		for i, m := range []*Model{held, released} {
			m.ZeroGrad()
			losses[i] = m.TrainStep(x, labels)
			sgdStep(m, 0.05)
		}
		if losses[0] != losses[1] {
			t.Fatalf("step %d: loss %v with buffers held, %v after a release", step, losses[0], losses[1])
		}
		released.ReleaseScratch()
		// An evaluation at another batch size re-draws the buffers.
		ex, elabels := randBatch(99, 5, 1, 28, 47)
		if a, b := held.Loss(ex, elabels), released.Loss(ex, elabels); a != b {
			t.Fatalf("step %d: eval loss %v vs %v", step, a, b)
		}
		released.ReleaseScratch()
		if n := heldBuffers(released); n != 0 {
			t.Fatalf("step %d: %d step buffers survive ReleaseScratch", step, n)
		}
	}
	if n := heldBuffers(held); n == 0 {
		t.Fatal("heldBuffers sees no buffer on a model that was never released")
	}
	for i, p := range held.Params() {
		sameTensorBits(t, p.Name, p.Value, released.Params()[i].Value)
	}
}

// heldBuffers counts the step buffers the CNN's layers and loss head hold.
func heldBuffers(m *Model) int {
	n := 0
	count := func(ts ...*tensor.Tensor) {
		for _, t := range ts {
			if t != nil {
				n++
			}
		}
	}
	for _, l := range m.net.(*Sequential).layers {
		switch l := l.(type) {
		case *Conv2D:
			count(l.lastX, l.xpad, l.out, l.dx)
		case *ReLU:
			count(l.y, l.g)
		case *MaxPool2D:
			count(l.out, l.dx)
		case *Linear:
			count(l.y, l.dx, l.lastX)
		}
	}
	count(m.loss.lastProbs, m.loss.grad)
	return n
}

// maxPoolReference is max pooling as the layer defines it, written for
// clarity: the first in-range tap, unless a later one is strictly greater.
func maxPoolReference(x *tensor.Tensor, window, stride int) (out []float64, argmax []int) {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := (h-window)/stride+1, (w-window)/stride+1
	xd := x.Data()
	for pl := 0; pl < n*c; pl++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bidx := -1
				for ky := 0; ky < window; ky++ {
					for kx := 0; kx < window; kx++ {
						idx := (pl*h+oy*stride+ky)*w + ox*stride + kx
						if bidx < 0 || xd[idx] > xd[bidx] {
							bidx = idx
						}
					}
				}
				out, argmax = append(out, xd[bidx]), append(argmax, bidx)
			}
		}
	}
	return out, argmax
}

// TestMaxPoolNonFiniteWindows is the regression test for windows holding no
// finite value: all-NaN and all-−Inf windows used to leave the argmax at −1,
// emit −Inf for NaN and panic in Backward. Both the 2×2/2 fast path and the
// general path are held to maxPoolReference on inputs salted with NaN, ±Inf
// and ties, on odd sizes whose last row and column no window covers.
func TestMaxPoolNonFiniteWindows(t *testing.T) {
	for _, geom := range [][2]int{{2, 2}, {3, 2}, {2, 1}} {
		window, stride := geom[0], geom[1]
		t.Run(fmt.Sprintf("w%ds%d", window, stride), func(t *testing.T) {
			for _, v := range []float64{math.NaN(), math.Inf(-1)} {
				pool := NewMaxPool2D(window, stride)
				x := tensor.New(1, 1, window, window)
				x.Fill(v)
				y := pool.Forward(x, true)
				if got := y.At(0, 0, 0, 0); !(got == v || math.IsNaN(got) && math.IsNaN(v)) {
					t.Errorf("window of %v pools to %v", v, got)
				}
				if pool.argmax[0] != 0 {
					t.Errorf("window of %v: argmax %d, want the first tap", v, pool.argmax[0])
				}
				g := tensor.New(1, 1, 1, 1)
				g.Fill(1)
				if dx := pool.Backward(g); dx.At(0, 0, 0, 0) != 1 {
					t.Errorf("window of %v: the gradient did not reach the first tap", v)
				}
			}

			rng := rand.New(rand.NewSource(3))
			pool := NewMaxPool2D(window, stride)
			x := tensor.New(2, 3, 9, 7)
			salt := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.5, 0.5, math.Copysign(0, -1), 0}
			for i := 0; i < x.Len(); i++ {
				v := float64(rng.Intn(4)) // few distinct values: many ties
				if rng.Intn(3) == 0 {
					v = salt[rng.Intn(len(salt))]
				}
				x.Set(v, i/(3*9*7), i/(9*7)%3, i/7%9, i%7)
			}
			wantOut, wantArg := maxPoolReference(x, window, stride)
			y := pool.Forward(x, true)
			got := y.Data()
			for i := range wantOut {
				if math.Float64bits(got[i]) != math.Float64bits(wantOut[i]) && !(math.IsNaN(got[i]) && math.IsNaN(wantOut[i])) {
					t.Fatalf("output %d: %v, want %v", i, got[i], wantOut[i])
				}
				if pool.argmax[i] != wantArg[i] {
					t.Fatalf("argmax %d: %d, want %d", i, pool.argmax[i], wantArg[i])
				}
			}
		})
	}
}

// TestPaperCNNStepPinned holds a training step to fixed bits: three
// TrainStep + SGD steps of benchCNN, and one ResNet-18 step
// (padded and strided convolutions — the general im2col path — and ReLU
// inside residual blocks), every loss and then every parameter hashed with
// FNV-64a. The constants were recorded before the step passes went
// branch-free. Every other step test compares one replica with another, so
// this is the one that sees both drift together; the Go lane (-tags purego)
// must land on the same constants.
func TestPaperCNNStepPinned(t *testing.T) {
	pins := map[string]uint64{
		"cnn":      0x27357a47134e7a2b,
		"resnet18": 0x8b8ef9aa77656a87,
	}
	resnet := func() *Model {
		return NewResNet18(ModelConfig{InChannels: 1, ImageSize: 28, NumClasses: 47, Scale: 16, Seed: 9})
	}
	for _, mc := range []struct {
		name         string
		build        func() *Model
		batch, steps int
	}{{"cnn", benchCNN, 8, 3}, {"resnet18", resnet, 4, 1}} {
		name := mc.name
		t.Run(name, func(t *testing.T) {
			m := mc.build()
			h := fnv.New64a()
			put := func(v float64) {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			for step := 0; step < mc.steps; step++ {
				x, labels := randBatch(int64(40+step), mc.batch, 1, 28, 47)
				m.ZeroGrad()
				put(m.TrainStep(x, labels))
				sgdStep(m, 0.05)
			}
			for _, p := range m.Params() {
				for _, x := range p.Value.Data() {
					put(x)
				}
			}
			if got := h.Sum64(); got != pins[name] {
				t.Errorf("step hash %#016x, pinned %#016x", got, pins[name])
			}
		})
	}
}
