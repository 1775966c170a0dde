// Package nn implements a small neural-network training stack with explicit
// forward/backward layers: convolutions, linear layers, batch normalization,
// pooling, activations, residual and densely-connected blocks, and the
// softmax cross-entropy loss.
//
// The package exists as the deep-learning substrate for the FedSU
// reproduction: federated clients train these models locally with SGD and
// the federated layer synchronizes the flat parameter vectors the models
// expose through Params.
package nn

import (
	"fmt"

	"fedsu/internal/tensor"
)

// Param is a single trainable (or tracked) tensor of a model together with
// its gradient accumulator.
type Param struct {
	// Name identifies the parameter within its model, e.g. "conv1.weight".
	Name string
	// Value holds the current parameter values.
	Value *tensor.Tensor
	// Grad accumulates the gradient of the loss w.r.t. Value over a batch.
	Grad *tensor.Tensor
	// NoOpt marks tensors that are synchronized between federated clients
	// but not updated by the optimizer — batch-norm running statistics.
	NoOpt bool
}

// newParam constructs a zero parameter and its gradient of one shape.
func newParam(name string, shape ...int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(shape...),
		Grad:  tensor.New(shape...),
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one differentiable stage of a network. Forward consumes the
// previous activation and caches whatever Backward needs; Backward consumes
// the gradient w.r.t. the layer output, accumulates parameter gradients, and
// returns the gradient w.r.t. the layer input.
//
// Layers are stateful across a Forward/Backward pair and therefore not safe
// for concurrent use; each federated client owns a private model replica.
//
// Lifetime: the tensor Forward or Backward returns may be a buffer the layer
// keeps and overwrites, so it is valid until the next Forward, Backward or
// ReleaseScratch of the model the layer belongs to (scratch.go). Clone what
// must outlive that.
type Layer interface {
	// Forward computes the layer output. train distinguishes training-time
	// behaviour (batch-norm batch statistics) from inference.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward computes input gradients from output gradients and
	// accumulates parameter gradients. It must be called after Forward.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's parameters; empty for stateless layers.
	Params() []*Param
}

// Sequential chains layers, feeding each layer's output to the next.
type Sequential struct {
	layers []Layer
	// inputLayers is how many leading layers Backward may stop after with a
	// nil gradient: 0 until markInputLayer finds a layer to mark.
	inputLayers int
}

// inputGradSkipper is implemented by parameterised layers that can leave
// ∂loss/∂input uncomputed and return nil from Backward.
type inputGradSkipper interface {
	skipInputGrad()
}

// markInputLayer tells the chain's first parameterised layer — looking
// through a leading Flatten, which has no gradient of its own to lose — that
// its input is the network's input, whose gradient nobody reads.
func (s *Sequential) markInputLayer() {
	i := 0
	if len(s.layers) > 1 {
		if _, ok := s.layers[0].(*Flatten); ok {
			i = 1
		}
	}
	if i < len(s.layers) {
		if l, ok := s.layers[i].(inputGradSkipper); ok {
			l.skipInputGrad()
			s.inputLayers = i + 1
		}
	}
}

var _ Layer = (*Sequential)(nil)

// NewSequential builds a sequential container over the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{layers: layers}
}

// Append adds layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.layers = append(s.layers, layers...) }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer. It returns nil when the chain's input layer was
// marked by markInputLayer; a nil gradient from any other layer is a bug.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.layers) - 1; i >= 0; i-- {
		grad = s.layers[i].Backward(grad)
		if grad == nil {
			if i >= s.inputLayers {
				panic(fmt.Sprintf("nn: layer %d of a Sequential returned a nil gradient", i))
			}
			return nil
		}
	}
	return grad
}

func (s *Sequential) releaseScratch() {
	for _, l := range s.layers {
		releaseScratchOf(l)
	}
}

// Params implements Layer, concatenating all child parameters in order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// prefixParams renames parameters with a dotted prefix so composite blocks
// produce unique, navigable names.
func prefixParams(prefix string, ps []*Param) []*Param {
	for _, p := range ps {
		p.Name = fmt.Sprintf("%s.%s", prefix, p.Name)
	}
	return ps
}
