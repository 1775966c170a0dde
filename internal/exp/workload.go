// Package exp implements one driver per table and figure of the paper's
// evaluation (Sec. VI): the three model/dataset workloads, the end-to-end
// scheme comparison (Table I, Fig. 5), the microscopic trajectory studies
// (Figs. 1, 2, 6, 7), the ablation (Fig. 8), the sensitivity sweeps
// (Figs. 9, 10), and the overhead measurement (Table II).
//
// Experiments run on the emulated cluster at a configurable scale. Byte and
// wall-clock accounting always uses the paper-scale parameter counts
// (WireParams), so per-round times and speedup factors are comparable to
// the paper even when the trained models are width-reduced.
package exp

import (
	"fmt"
	"io"
	"strings"

	"fedsu/internal/data"
	"fedsu/internal/nn"
	"fedsu/internal/tensor"
)

// Paper-scale parameter counts used for traffic/compute accounting.
const (
	// WireParamsCNN is the paper's EMNIST CNN (two 5x5 convs + two FC).
	WireParamsCNN = 600_000
	// WireParamsResNet18 is ResNet-18's parameter count.
	WireParamsResNet18 = 11_700_000
	// WireParamsDenseNet121 is DenseNet-121's parameter count.
	WireParamsDenseNet121 = 8_000_000
)

// Workload couples a model architecture with its dataset and training
// hyper-parameters, mirroring the paper's three evaluation workloads.
type Workload struct {
	// Name is the paper's workload label ("cnn", "resnet18",
	// "densenet121").
	Name string
	// TargetAccuracy is the Table I near-optimal accuracy target.
	TargetAccuracy float64
	// LR is the paper's SGD learning rate for this workload
	// (0.01 / 0.001 / 0.01).
	LR float64
	// EmuLR is the learning rate calibrated for the synthetic stand-in
	// tasks at emulation scale (the stand-ins have different loss
	// geometry than the real corpora); zero falls back to LR.
	EmuLR float64
	// EmuScale is the recommended model width divisor at laptop scale,
	// used when the experiment config does not override it.
	EmuScale int
	// WireParams is the paper-scale parameter count for accounting.
	WireParams int
	// DataName identifies the underlying corpus ("emnist", "fmnist",
	// "cifar10"), independent of the workload label. It keys the
	// shared-artifact dataset cache, so workloads that train different
	// models on the same stand-in share one synthesized corpus. Empty falls
	// back to Name.
	DataName string

	buildModel   func(scale int, seed int64) *nn.Model
	buildDataset func(samples int, seed int64) *data.Dataset
}

// Model builds a fresh model replica at the given width-reduction scale.
func (w Workload) Model(scale int, seed int64) *nn.Model { return w.buildModel(scale, seed) }

// ModelOf is Model under the spelling bench/ calls, which names the one
// element type. It remains only for bench/; ROADMAP item 14 deletes it.
func (w Workload) ModelOf(_ tensor.DType, scale int, seed int64) *nn.Model {
	return w.buildModel(scale, seed)
}

// EffectiveLR returns the emulation learning rate (EmuLR, falling back to
// the paper's LR).
func (w Workload) EffectiveLR() float64 {
	if w.EmuLR > 0 {
		return w.EmuLR
	}
	return w.LR
}

// EffectiveScale returns override when positive, otherwise the workload's
// recommended emulation scale (or paper scale 1 as a last resort).
func (w Workload) EffectiveScale(override int) int {
	if override > 0 {
		return override
	}
	if w.EmuScale > 0 {
		return w.EmuScale
	}
	return 1
}

// Dataset builds the workload's dataset stand-in. The result is immutable
// (see internal/data) and therefore safe to share across concurrent runs;
// grids route this call through the Artifacts cache so each distinct
// (DataKey, samples, seed) corpus is synthesized once per cache.
func (w Workload) Dataset(samples int, seed int64) *data.Dataset {
	return w.buildDataset(samples, seed)
}

// DataKey returns the corpus identity used by the dataset cache.
func (w Workload) DataKey() string {
	if w.DataName != "" {
		return w.DataName
	}
	return w.Name
}

// Workloads returns the paper's three evaluation workloads in presentation
// order: CNN/EMNIST, DenseNet-121/CIFAR-10, ResNet-18/FMNIST.
func Workloads() []Workload {
	return []Workload{CNNWorkload(), DenseNetWorkload(), ResNetWorkload()}
}

// CNNWorkload is the paper's CNN-on-EMNIST workload (target accuracy 0.60,
// LR 0.01).
func CNNWorkload() Workload {
	return Workload{
		Name:           "cnn",
		DataName:       "emnist",
		TargetAccuracy: 0.60,
		LR:             0.01,
		EmuLR:          0.01,
		EmuScale:       8,
		WireParams:     WireParamsCNN,
		buildModel: func(scale int, seed int64) *nn.Model {
			return nn.NewPaperCNN(nn.ModelConfig{
				InChannels: 1, ImageSize: 28, NumClasses: 47, Scale: scale, Seed: seed,
			})
		},
		buildDataset: func(samples int, seed int64) *data.Dataset {
			return data.EMNIST(data.WithSamples(samples), data.WithSeed(seed))
		},
	}
}

// ResNetWorkload is the paper's ResNet-18-on-FMNIST workload (target
// accuracy 0.85, LR 0.001).
func ResNetWorkload() Workload {
	return Workload{
		Name:           "resnet18",
		DataName:       "fmnist",
		TargetAccuracy: 0.85,
		LR:             0.001,
		EmuLR:          0.02,
		EmuScale:       16,
		WireParams:     WireParamsResNet18,
		buildModel: func(scale int, seed int64) *nn.Model {
			return nn.NewResNet18(nn.ModelConfig{
				InChannels: 1, ImageSize: 28, NumClasses: 10, Scale: scale, Seed: seed,
			})
		},
		buildDataset: func(samples int, seed int64) *data.Dataset {
			return data.FMNIST(data.WithSamples(samples), data.WithSeed(seed))
		},
	}
}

// DenseNetWorkload is the paper's DenseNet-121-on-CIFAR-10 workload (target
// accuracy 0.65, LR 0.01).
func DenseNetWorkload() Workload {
	return Workload{
		Name:           "densenet121",
		DataName:       "cifar10",
		TargetAccuracy: 0.65,
		LR:             0.01,
		EmuLR:          0.02,
		EmuScale:       12,
		WireParams:     WireParamsDenseNet121,
		buildModel: func(scale int, seed int64) *nn.Model {
			return nn.NewDenseNet121(nn.ModelConfig{
				InChannels: 3, ImageSize: 32, NumClasses: 10, Scale: scale, Seed: seed,
			})
		},
		buildDataset: func(samples int, seed int64) *data.Dataset {
			return data.CIFAR10(data.WithSamples(samples), data.WithSeed(seed))
		},
	}
}

// WorkloadByName resolves a workload label.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("exp: unknown workload %q (have %s)", name, strings.Join(WorkloadNames(), ", "))
}

// WorkloadNames lists the workload labels in presentation order.
func WorkloadNames() []string {
	ws := Workloads()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// logf writes progress when a sink is configured.
func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
