package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fedsu/internal/tensor"
)

func testCfg(scale int) ModelConfig {
	return ModelConfig{InChannels: 1, ImageSize: 28, NumClasses: 10, Scale: scale, Seed: 42}
}

func TestModelsBuildAndForward(t *testing.T) {
	tests := []struct {
		name  string
		build func() *Model
		inC   int
		size  int
	}{
		{"cnn", func() *Model { return NewPaperCNN(testCfg(8)) }, 1, 28},
		{"resnet18", func() *Model { return NewResNet18(testCfg(16)) }, 1, 28},
		{"densenet121", func() *Model {
			return NewDenseNet121(ModelConfig{InChannels: 3, ImageSize: 16, NumClasses: 10, Scale: 8, Seed: 1})
		}, 3, 16},
		{"mlp", func() *Model { return NewMLP(testCfg(1), 32) }, 1, 28},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := tt.build()
			if m.Size() <= 0 || m.OptSize() <= 0 || m.OptSize() > m.Size() {
				t.Fatalf("bad sizes: Size=%d OptSize=%d", m.Size(), m.OptSize())
			}
			x := tensor.New(2, tt.inC, tt.size, tt.size)
			rng := rand.New(rand.NewSource(5))
			x.RandNormal(rng, 0, 1)
			logits := m.Forward(x, true)
			if logits.Dim(0) != 2 || logits.Dim(1) != 10 {
				t.Fatalf("logits shape = %v, want [2 10]", logits.Shape())
			}
			for _, v := range logits.Data() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatal("non-finite logit")
				}
			}
		})
	}
}

func TestModelReplicasIdentical(t *testing.T) {
	a := NewPaperCNN(testCfg(8))
	b := NewPaperCNN(testCfg(8))
	va, vb := a.Vector(), b.Vector()
	if len(va) != len(vb) {
		t.Fatalf("replica sizes differ: %d vs %d", len(va), len(vb))
	}
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("replica values differ at %d", i)
		}
	}
}

func TestExtractLoadVectorRoundTrip(t *testing.T) {
	m := NewMLP(testCfg(1), 16)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := make([]float64, m.Size())
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		m.LoadVector(v)
		out := make([]float64, m.Size())
		m.ExtractVector(out)
		for i := range v {
			if v[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestParamNamesUnique(t *testing.T) {
	m := NewResNet18(testCfg(16))
	seen := map[string]bool{}
	for _, p := range m.Params() {
		if seen[p.Name] {
			t.Fatalf("duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

// TestModelLearnsTinyTask trains the MLP on a linearly separable 2-class
// problem and checks that the loss drops and accuracy rises, validating the
// full forward/backward/update loop end to end.
func TestModelLearnsTinyTask(t *testing.T) {
	cfg := ModelConfig{InChannels: 1, ImageSize: 4, NumClasses: 2, Scale: 1, Seed: 7}
	m := NewMLP(cfg, 16)
	rng := rand.New(rand.NewSource(11))

	makeBatch := func(n int) (*tensor.Tensor, []int) {
		x := tensor.New(n, 1, 4, 4)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			cls := rng.Intn(2)
			labels[i] = cls
			mean := -0.8
			if cls == 1 {
				mean = 0.8
			}
			for j := 0; j < 16; j++ {
				x.Data()[i*16+j] = mean + 0.3*rng.NormFloat64()
			}
		}
		return x, labels
	}

	x0, l0 := makeBatch(64)
	initLoss := m.Loss(x0, l0)

	const lr = 0.5
	for step := 0; step < 60; step++ {
		x, labels := makeBatch(32)
		m.ZeroGrad()
		m.TrainStep(x, labels)
		for _, p := range m.Params() {
			if p.NoOpt {
				continue
			}
			p.Value.AddScaled(-lr, p.Grad)
		}
	}

	xe, le := makeBatch(128)
	acc, loss := m.Evaluate(xe, le)
	if loss >= initLoss {
		t.Errorf("loss did not improve: init %v, final %v", initLoss, loss)
	}
	if acc < 0.95 {
		t.Errorf("accuracy = %v, want >= 0.95 on separable task", acc)
	}
}

func TestBatchNormTrainVsEval(t *testing.T) {
	bn := NewBatchNorm2D(2)
	x := randInput(3, 4, 2, 3, 3)
	// Train mode normalizes with batch stats: per-channel mean ~0.
	y := bn.Forward(x, true)
	n, c, h, w := 4, 2, 3, 3
	for ci := 0; ci < c; ci++ {
		mean := 0.0
		for ni := 0; ni < n; ni++ {
			for i := 0; i < h*w; i++ {
				mean += y.Data()[(ni*c+ci)*h*w+i]
			}
		}
		mean /= float64(n * h * w)
		if math.Abs(mean) > 1e-9 {
			t.Errorf("train-mode channel %d mean = %v, want 0", ci, mean)
		}
	}
	// Eval mode uses running stats and is deterministic in batch size.
	y1 := bn.Forward(x, false)
	y2 := bn.Forward(x, false)
	for i := range y1.Data() {
		if y1.Data()[i] != y2.Data()[i] {
			t.Fatal("eval mode must be deterministic")
		}
	}
}

func TestDenseBlockChannelGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := NewDenseBlock(rng, 4, 3, 5)
	if got, want := b.OutChannels(), 4+3*5; got != want {
		t.Fatalf("OutChannels = %d, want %d", got, want)
	}
	x := randInput(1, 2, 4, 6, 6)
	y := b.Forward(x, true)
	if y.Dim(1) != 19 {
		t.Fatalf("output channels = %d, want 19", y.Dim(1))
	}
	if y.Dim(2) != 6 || y.Dim(3) != 6 {
		t.Fatalf("dense block must preserve spatial size, got %v", y.Shape())
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := tensor.New(2, 3, 4, 4)
		b := tensor.New(2, 2, 4, 4)
		a.RandNormal(rng, 0, 1)
		b.RandNormal(rng, 0, 1)
		cat := concatChannels(a, b)
		ga, gb := splitChannels(cat, 3)
		for i := range a.Data() {
			if ga.Data()[i] != a.Data()[i] {
				return false
			}
		}
		for i := range b.Data() {
			if gb.Data()[i] != b.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
