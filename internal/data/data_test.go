package data

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fedsu/internal/tensor"
)

func tinySet(t *testing.T) *Dataset {
	t.Helper()
	return Synthesize(SynthConfig{
		Name: "tiny", Channels: 1, Size: 8, Classes: 4,
		Samples: 200, Noise: 0.1, Jitter: 1, Seed: 9,
	})
}

func TestSynthesizeGeometry(t *testing.T) {
	d := tinySet(t)
	if d.Len() != 200 {
		t.Fatalf("Len = %d, want 200", d.Len())
	}
	x, labels := d.Batch([]int{0, 5, 10})
	if got := x.Shape(); got[0] != 3 || got[1] != 1 || got[2] != 8 || got[3] != 8 {
		t.Fatalf("batch shape = %v, want [3 1 8 8]", got)
	}
	for _, l := range labels {
		if l < 0 || l >= 4 {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := SynthConfig{Name: "x", Channels: 1, Size: 6, Classes: 2, Samples: 10, Noise: 0.2, Jitter: 1, Seed: 33}
	a, b := Synthesize(cfg), Synthesize(cfg)
	xa, _ := a.Batch([]int{3})
	xb, _ := b.Batch([]int{3})
	for i := range xa.Data() {
		if xa.Data()[i] != xb.Data()[i] {
			t.Fatal("same seed must reproduce identical data")
		}
	}
}

func TestSynthesizeBalancedClasses(t *testing.T) {
	d := tinySet(t)
	counts := make([]int, d.Classes)
	for i := 0; i < d.Len(); i++ {
		counts[d.Label(i)]++
	}
	for c, n := range counts {
		if n != 50 {
			t.Errorf("class %d count = %d, want 50", c, n)
		}
	}
}

func TestSynthesizeClassesAreSeparable(t *testing.T) {
	// Same-class samples must be closer (on average) than cross-class
	// samples, otherwise no model could learn the task.
	d := Synthesize(SynthConfig{
		Name: "sep", Channels: 1, Size: 8, Classes: 3,
		Samples: 60, Noise: 0.1, Jitter: 0, Seed: 4,
	})
	dist := func(i, j int) float64 {
		xi, _ := d.Batch([]int{i})
		xj, _ := d.Batch([]int{j})
		s := 0.0
		for k := range xi.Data() {
			dd := xi.Data()[k] - xj.Data()[k]
			s += dd * dd
		}
		return math.Sqrt(s)
	}
	var same, cross float64
	var ns, nc int
	for i := 0; i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			if d.Label(i) == d.Label(j) {
				same += dist(i, j)
				ns++
			} else {
				cross += dist(i, j)
				nc++
			}
		}
	}
	if same/float64(ns) >= cross/float64(nc) {
		t.Errorf("intra-class distance %v not smaller than inter-class %v", same/float64(ns), cross/float64(nc))
	}
}

func TestStandIns(t *testing.T) {
	tests := []struct {
		name    string
		build   func(...StandInOpt) *Dataset
		ch, sz  int
		classes int
	}{
		{"emnist", EMNIST, 1, 28, 47},
		{"fmnist", FMNIST, 1, 28, 10},
		{"cifar10", CIFAR10, 3, 32, 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := tt.build(WithSamples(64))
			if d.Channels != tt.ch || d.Size != tt.sz || d.Classes != tt.classes {
				t.Errorf("geometry = (%d,%d,%d), want (%d,%d,%d)",
					d.Channels, d.Size, d.Classes, tt.ch, tt.sz, tt.classes)
			}
			if d.Len() != 64 {
				t.Errorf("WithSamples not applied: len = %d", d.Len())
			}
		})
	}
}

// Property: Dirichlet partitioning assigns every sample to exactly one
// client regardless of α and client count.
func TestPartitionDirichletExactCover(t *testing.T) {
	d := tinySet(t)
	f := func(seed int64, nc uint8, ai uint8) bool {
		numClients := 1 + int(nc%16)
		alpha := 0.1 + float64(ai%30)/3.0
		subsets := PartitionDirichlet(d, numClients, alpha, seed)
		seen := make([]int, d.Len())
		total := 0
		for _, s := range subsets {
			total += s.Len()
			for _, i := range s.indices {
				seen[i]++
			}
		}
		if total != d.Len() {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPartitionDirichletSkewIncreasesAsAlphaShrinks(t *testing.T) {
	d := Synthesize(SynthConfig{
		Name: "skew", Channels: 1, Size: 4, Classes: 10,
		Samples: 5000, Noise: 0.1, Seed: 5,
	})
	skew := func(alpha float64) float64 {
		subsets := PartitionDirichlet(d, 10, alpha, 77)
		// Mean over clients of the max class share — 0.1 when IID, →1 when
		// single-class.
		tot := 0.0
		for _, s := range subsets {
			h := s.LabelHistogram()
			sum, maxv := 0, 0
			for _, n := range h {
				sum += n
				if n > maxv {
					maxv = n
				}
			}
			if sum > 0 {
				tot += float64(maxv) / float64(sum)
			}
		}
		return tot / 10
	}
	low, high := skew(0.1), skew(100)
	if low <= high {
		t.Errorf("skew(α=0.1) = %v should exceed skew(α=100) = %v", low, high)
	}
	if high > 0.3 {
		t.Errorf("α=100 should be near-IID, max class share = %v", high)
	}
}

func TestSubsetBatchAndSample(t *testing.T) {
	d := tinySet(t)
	s := NewSubset(d, []int{0, 4, 8, 12})
	x, labels := s.Batch([]int{1, 3})
	if x.Dim(0) != 2 {
		t.Fatalf("batch size = %d, want 2", x.Dim(0))
	}
	if labels[0] != d.Label(4) || labels[1] != d.Label(12) {
		t.Error("subset batch must map relative to absolute indices")
	}
	rng := rand.New(rand.NewSource(1))
	xs, ls := s.SampleBatch(rng, 16)
	if xs.Dim(0) != 16 || len(ls) != 16 {
		t.Fatal("SampleBatch wrong size")
	}
}

// SampleBatchInto and SampleBatch draw the batch the subset's indices name
// for one rng.Intn per sample, in order: from the same rng state, the same
// pixels bit for bit and the same labels as Batch over those draws, leaving
// the rng where the draws leave it.
func TestSampleBatchIntoMatchesDraws(t *testing.T) {
	d := tinySet(t)
	s := NewSubset(d, []int{3, 17, 42, 99, 150, 151, 199})
	const size = 11
	x := tensor.New(size, d.Channels, d.Size, d.Size)
	labels := make([]int, size)
	ref, into, plain := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for step := 0; step < 3; step++ {
		rel := make([]int, size)
		for i := range rel {
			rel[i] = ref.Intn(s.Len())
		}
		want, wantLabels := s.Batch(rel)
		s.SampleBatchInto(into, x, labels)
		xs, ls := s.SampleBatch(plain, size)
		for name, got := range map[string]struct {
			x      *tensor.Tensor
			labels []int
		}{"SampleBatchInto": {x, labels}, "SampleBatch": {xs, ls}} {
			for i, v := range want.Data() {
				if math.Float64bits(got.x.Data()[i]) != math.Float64bits(v) {
					t.Fatalf("%s step %d: pixel %d = %v, want %v", name, step, i, got.x.Data()[i], v)
				}
			}
			for i, l := range wantLabels {
				if got.labels[i] != l {
					t.Fatalf("%s step %d: label %d = %d, want %d", name, step, i, got.labels[i], l)
				}
			}
		}
	}
	if r, a, b := ref.Int63(), into.Int63(), plain.Int63(); a != r || b != r {
		t.Errorf("the streams part after three batches: %d (draws), %d (SampleBatchInto), %d (SampleBatch)", r, a, b)
	}
}

func TestApportion(t *testing.T) {
	tests := []struct {
		name  string
		w     []float64
		total int
		want  []int
	}{
		{"even", []float64{0.5, 0.5}, 4, []int{2, 2}},
		{"remainder", []float64{0.5, 0.25, 0.25}, 5, []int{3, 1, 1}},
		{"zero-weight", []float64{1, 0}, 3, []int{3, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := apportion(tt.w, tt.total)
			sum := 0
			for i, g := range got {
				sum += g
				if g != tt.want[i] {
					t.Errorf("apportion = %v, want %v", got, tt.want)
					break
				}
			}
			if sum != tt.total {
				t.Errorf("apportion sum = %d, want %d", sum, tt.total)
			}
		})
	}
}

func TestGammaSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, shape := range []float64{0.5, 1, 2, 5} {
		mean := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			mean += gammaSample(rng, shape)
		}
		mean /= n
		if math.Abs(mean-shape)/shape > 0.1 {
			t.Errorf("Gamma(%v) sample mean = %v, want ~%v", shape, mean, shape)
		}
	}
}
