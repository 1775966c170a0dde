package nn

import (
	"fmt"
	"math/rand"
)

// ModelConfig parameterizes the paper's model zoo. Scale shrinks channel
// widths so the full training pipeline runs at laptop scale while keeping
// the architecture topology (and therefore the per-parameter trajectory
// behaviour) intact; Scale=1 reproduces the paper-size networks.
type ModelConfig struct {
	// InChannels and ImageSize describe the input tensor geometry.
	InChannels int
	ImageSize  int
	// NumClasses is the classifier output width.
	NumClasses int
	// Scale divides channel widths; 1 is paper scale. Values above 1
	// shrink the model (e.g. 8 → one-eighth width).
	Scale int
	// Seed drives weight initialization so every federated client can
	// build an identical replica.
	Seed int64
}

func (c ModelConfig) scaled(ch int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	v := ch / s
	if v < 2 {
		v = 2
	}
	return v
}

// NewPaperCNN builds the paper's EMNIST model: two 5x5 convolutional layers
// (each followed by ReLU and 2x2 max-pooling) and two fully-connected
// layers.
func NewPaperCNN(cfg ModelConfig) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c1, c2 := cfg.scaled(32), cfg.scaled(64)
	fc := cfg.scaled(512)
	// Two valid 5x5 convs with 2x2 pools: size -> (size-4)/2 -> ((size-4)/2-4)/2.
	s1 := (cfg.ImageSize - 4) / 2
	s2 := (s1 - 4) / 2
	if s2 < 1 {
		panic(fmt.Sprintf("nn: image size %d too small for PaperCNN", cfg.ImageSize))
	}
	net := NewSequential(
		NewConv2D(rng, cfg.InChannels, c1, 5),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewConv2D(rng, c1, c2, 5),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewLinear(rng, c2*s2*s2, fc),
		NewReLU(),
		NewLinear(rng, fc, cfg.NumClasses),
	)
	m := NewModel("cnn", net, cfg.NumClasses)
	namePrefix(m)
	return m
}

// NewResNet18 builds the ResNet-18 architecture adapted to small images
// (3x3 stem, no initial max-pool, as is standard for CIFAR-scale inputs):
// four stages of two basic residual blocks with channel widths
// 64-128-256-512, global average pooling, and a linear classifier.
func NewResNet18(cfg ModelConfig) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := []int{cfg.scaled(64), cfg.scaled(128), cfg.scaled(256), cfg.scaled(512)}
	seq := NewSequential(
		NewConv2D(rng, cfg.InChannels, w[0], 3, WithPadding(1), WithoutBias()),
		NewBatchNorm2D(w[0]),
		NewReLU(),
	)
	inC := w[0]
	for stage, outC := range w {
		stride := 1
		if stage > 0 {
			stride = 2
		}
		seq.Append(
			NewResidualBlock(rng, inC, outC, stride),
			NewResidualBlock(rng, outC, outC, 1),
		)
		inC = outC
	}
	seq.Append(
		NewGlobalAvgPool2D(),
		NewLinear(rng, inC, cfg.NumClasses),
	)
	m := NewModel("resnet18", seq, cfg.NumClasses)
	namePrefix(m)
	return m
}

// NewDenseNet121 builds the DenseNet-121 topology (dense blocks of 6, 12,
// 24, 16 layers with growth rate 32 and half-compression transitions)
// adapted to small images with a 3x3 stem. Scale reduces the growth rate
// and block depths proportionally so the concatenation structure — the
// source of DenseNet's distinctive per-parameter trajectories — survives at
// laptop scale.
func NewDenseNet121(cfg ModelConfig) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	growth := cfg.scaled(32)
	blocks := []int{6, 12, 24, 16}
	if cfg.Scale > 1 {
		for i := range blocks {
			blocks[i] = max(2, blocks[i]/cfg.Scale*2)
		}
	}
	stem := 2 * growth
	seq := NewSequential(
		NewConv2D(rng, cfg.InChannels, stem, 3, WithPadding(1), WithoutBias()),
		NewBatchNorm2D(stem),
		NewReLU(),
	)
	c := stem
	for i, depth := range blocks {
		db := NewDenseBlock(rng, c, growth, depth)
		seq.Append(db)
		c = db.OutChannels()
		if i < len(blocks)-1 {
			// Transition: BN-ReLU-1x1 conv (half compression)-2x2 avg pool.
			outC := c / 2
			seq.Append(
				NewBatchNorm2D(c),
				NewReLU(),
				NewConv2D(rng, c, outC, 1, WithoutBias()),
				NewAvgPool2D(2, 2),
			)
			c = outC
		}
	}
	seq.Append(
		NewBatchNorm2D(c),
		NewReLU(),
		NewGlobalAvgPool2D(),
		NewLinear(rng, c, cfg.NumClasses),
	)
	m := NewModel("densenet121", seq, cfg.NumClasses)
	namePrefix(m)
	return m
}

// NewMLP builds a small multi-layer perceptron; it is not one of the
// paper's models but serves as a fast workload for tests and examples.
func NewMLP(cfg ModelConfig, hidden ...int) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := cfg.InChannels * cfg.ImageSize * cfg.ImageSize
	seq := NewSequential(NewFlatten())
	prev := in
	for _, h := range hidden {
		seq.Append(NewLinear(rng, prev, h), NewReLU())
		prev = h
	}
	seq.Append(NewLinear(rng, prev, cfg.NumClasses))
	m := NewModel("mlp", seq, cfg.NumClasses)
	namePrefix(m)
	return m
}

// namePrefix gives every parameter a unique dotted name of the form
// "<model>.<index>.<local-name>" so diagnostics can identify parameters.
func namePrefix(m *Model) {
	for i, p := range m.params {
		p.Name = fmt.Sprintf("%s.%d.%s", m.Name, i, p.Name)
	}
}

// Builder constructs a fresh model replica; federated clients use it so
// every replica has an identical layout and initialization.
type Builder func() *Model
