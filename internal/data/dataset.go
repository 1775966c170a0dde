// Package data provides the datasets and partitioning machinery for the
// FedSU reproduction.
//
// The paper trains on EMNIST, Fashion-MNIST, and CIFAR-10. Those corpora
// are not available offline, so this package generates deterministic
// synthetic stand-ins with matching tensor geometry: each class owns a
// procedurally-drawn prototype image and samples are noisy, jittered copies
// of their class prototype. The resulting tasks are genuinely learnable —
// accuracy climbs and parameter trajectories stabilize — which is exactly
// the behaviour the FedSU algorithm consumes; it never inspects the pixels
// themselves. Non-IID client skew is produced by the same Dirichlet(α)
// label partitioning as the paper (Hsu et al.).
package data

import (
	"fmt"
	"math"
	"math/rand"

	"fedsu/internal/tensor"
)

// Dataset is an in-memory labelled image dataset in NCHW layout.
//
// Immutability: a Dataset is fully materialized by Synthesize and never
// mutated afterwards — every method only reads (Batch copies pixels out into
// a fresh tensor). One *Dataset may therefore be shared freely across
// goroutines and across concurrently-running training engines; the
// experiment harness's artifact cache (internal/exp) relies on this to build
// each (dataset, samples, seed) corpus exactly once per process.
type Dataset struct {
	// Name identifies the dataset ("emnist", "fmnist", "cifar10", ...).
	Name string
	// Channels, Size describe the image geometry (Size×Size spatial).
	Channels, Size int
	// Classes is the label-space cardinality.
	Classes int

	images [][]float64 // one flat C*S*S image per sample
	labels []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.labels) }

// Label returns the label of sample i.
func (d *Dataset) Label(i int) int { return d.labels[i] }

// Batch assembles the samples at the given indices into an input tensor and
// label slice ready for Model.TrainStep.
func (d *Dataset) Batch(indices []int) (*tensor.Tensor, []int) {
	n := len(indices)
	sz := d.Channels * d.Size * d.Size
	x := tensor.New(n, d.Channels, d.Size, d.Size)
	labels := make([]int, n)
	xd := x.Data()
	for bi, i := range indices {
		copy(xd[bi*sz:(bi+1)*sz], d.images[i])
		labels[bi] = d.labels[i]
	}
	return x, labels
}

// Subset is a view over a subset of a dataset's samples, used as one
// client's local shard.
//
// Like Dataset, a Subset is immutable after construction: NewSubset copies
// the index slice and no method writes to it or to the parent. Sharing one
// Subset (or one partition of Subsets) across engines is safe; per-call
// randomness is injected via SampleBatch's rng parameter, so the Subset
// itself holds no mutable sampling state.
type Subset struct {
	parent  *Dataset
	indices []int
}

// NewSubset builds a view over the given sample indices.
func NewSubset(parent *Dataset, indices []int) *Subset {
	return &Subset{parent: parent, indices: append([]int(nil), indices...)}
}

// Len returns the number of samples in the subset.
func (s *Subset) Len() int { return len(s.indices) }

// Batch assembles a batch from subset-relative indices.
func (s *Subset) Batch(rel []int) (*tensor.Tensor, []int) {
	abs := make([]int, len(rel))
	for i, r := range rel {
		abs[i] = s.indices[r]
	}
	return s.parent.Batch(abs)
}

// SampleBatch draws a uniform batch of the given size with replacement from
// the subset using rng.
func (s *Subset) SampleBatch(rng *rand.Rand, size int) (*tensor.Tensor, []int) {
	ch, side := s.ImageShape()
	x, labels := tensor.New(size, ch, side, side), make([]int, size)
	s.SampleBatchInto(rng, x, labels)
	return x, labels
}

// SampleBatchInto is SampleBatch into storage the caller owns: x, shaped
// (len(labels), Channels, Size, Size), and labels. One rng.Intn over the
// subset per sample, in batch order.
func (s *Subset) SampleBatchInto(rng *rand.Rand, x *tensor.Tensor, labels []int) {
	d := s.parent
	sz := d.Channels * d.Size * d.Size
	if x.Dims() != 4 || x.Dim(0) != len(labels) || x.Len() != len(labels)*sz {
		panic(fmt.Sprintf("data: batch tensor %v for %d samples of %d×%d×%d", x.Shape(), len(labels), d.Channels, d.Size, d.Size))
	}
	xd := x.Data()
	for bi := range labels {
		i := s.indices[rng.Intn(len(s.indices))]
		copy(xd[bi*sz:(bi+1)*sz], d.images[i])
		labels[bi] = d.labels[i]
	}
}

// ImageShape returns the channels and the side of the subset's images.
func (s *Subset) ImageShape() (channels, size int) {
	return s.parent.Channels, s.parent.Size
}

// SampleBatchOf is SampleBatch under the spelling bench/ calls, which names
// the one element type. It remains only for bench/; ROADMAP item 14 deletes
// it.
func (s *Subset) SampleBatchOf(_ tensor.DType, rng *rand.Rand, size int) (*tensor.Tensor, []int) {
	return s.SampleBatch(rng, size)
}

// LabelHistogram counts subset samples per class.
func (s *Subset) LabelHistogram() []int {
	h := make([]int, s.parent.Classes)
	for _, i := range s.indices {
		h[s.parent.labels[i]]++
	}
	return h
}

// SynthConfig parameterizes a synthetic dataset build.
type SynthConfig struct {
	// Name labels the dataset.
	Name string
	// Channels and Size describe image geometry.
	Channels, Size int
	// Classes is the number of label classes.
	Classes int
	// Samples is the total sample count.
	Samples int
	// Noise is the per-pixel Gaussian noise standard deviation.
	Noise float64
	// Jitter is the maximum spatial shift (in pixels) applied per sample.
	Jitter int
	// Seed drives the entire generation deterministically.
	Seed int64
}

// Synthesize generates a dataset per the config. Each class receives a
// smooth random prototype image (a sum of random 2-D Gaussian blobs, giving
// MNIST-like spatial structure); each sample is its class prototype, shifted
// by up to Jitter pixels and perturbed with Gaussian pixel noise.
func Synthesize(cfg SynthConfig) *Dataset {
	if cfg.Classes <= 1 || cfg.Samples <= 0 || cfg.Size <= 0 || cfg.Channels <= 0 {
		panic(fmt.Sprintf("data: invalid synth config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := make([][]float64, cfg.Classes)
	for c := range protos {
		protos[c] = prototype(rng, cfg.Channels, cfg.Size)
	}
	d := &Dataset{
		Name:     cfg.Name,
		Channels: cfg.Channels,
		Size:     cfg.Size,
		Classes:  cfg.Classes,
		images:   make([][]float64, cfg.Samples),
		labels:   make([]int, cfg.Samples),
	}
	for i := 0; i < cfg.Samples; i++ {
		c := i % cfg.Classes // balanced classes
		d.labels[i] = c
		d.images[i] = perturb(rng, protos[c], cfg)
	}
	return d
}

// prototype draws a smooth class template: each channel is a sum of a few
// random Gaussian blobs normalized to roughly unit scale.
func prototype(rng *rand.Rand, channels, size int) []float64 {
	img := make([]float64, channels*size*size)
	for c := 0; c < channels; c++ {
		plane := img[c*size*size : (c+1)*size*size]
		blobs := 3 + rng.Intn(3)
		for b := 0; b < blobs; b++ {
			cx := rng.Float64() * float64(size)
			cy := rng.Float64() * float64(size)
			sigma := 1.5 + 2.5*rng.Float64()
			amp := 0.5 + rng.Float64()
			if rng.Intn(2) == 0 {
				amp = -amp
			}
			inv := 1.0 / (2 * sigma * sigma)
			for y := 0; y < size; y++ {
				for x := 0; x < size; x++ {
					dx, dy := float64(x)-cx, float64(y)-cy
					e := -(dx*dx + dy*dy) * inv
					if e > -20 {
						plane[y*size+x] += amp * math.Exp(e)
					}
				}
			}
		}
	}
	return img
}

// perturb produces one sample from a prototype: spatial jitter then pixel
// noise.
func perturb(rng *rand.Rand, proto []float64, cfg SynthConfig) []float64 {
	s := cfg.Size
	img := make([]float64, len(proto))
	dx, dy := 0, 0
	if cfg.Jitter > 0 {
		dx = rng.Intn(2*cfg.Jitter+1) - cfg.Jitter
		dy = rng.Intn(2*cfg.Jitter+1) - cfg.Jitter
	}
	for c := 0; c < cfg.Channels; c++ {
		src := proto[c*s*s : (c+1)*s*s]
		dst := img[c*s*s : (c+1)*s*s]
		for y := 0; y < s; y++ {
			sy := y + dy
			for x := 0; x < s; x++ {
				sx := x + dx
				v := 0.0
				if sy >= 0 && sy < s && sx >= 0 && sx < s {
					v = src[sy*s+sx]
				}
				dst[y*s+x] = v + cfg.Noise*rng.NormFloat64()
			}
		}
	}
	return img
}
