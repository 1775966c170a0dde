package nn

import (
	"fmt"

	"fedsu/internal/tensor"
)

// lossHead is the classification loss attached to a Model. It is an
// interface (rather than a concrete type) so the model can carry the loss
// instantiation matching its parameter width.
type lossHead interface {
	// Forward computes the mean loss of logits against labels and caches
	// what Backward needs.
	Forward(logits *tensor.Tensor, labels []int) float64
	// Backward returns dLoss/dLogits for the cached batch.
	Backward() *tensor.Tensor
	scratchHolder
}

// Model couples a network with a classification loss and exposes the flat
// parameter-vector view the federated synchronization layer works over.
//
// The synchronization vector is always float64 whatever the parameter
// storage width: ExtractVector widens float32 parameters exactly, and
// LoadVector rounds incoming values with the same round-to-nearest
// conversion the wire codec applies, so the float64 sync domain and the
// storage domain stay bit-consistent.
type Model struct {
	// Name identifies the architecture, e.g. "cnn" or "resnet18".
	Name string

	net    Layer
	loss   lossHead
	params []*Param

	size       int // total scalar count across all params
	optSize    int // scalar count across optimizer-visible params
	numClasses int
	dtype      tensor.DType
}

// NewModel wraps a network and records its parameter layout. The parameter
// order is the construction order of the layers and is therefore identical
// across model replicas built with the same constructor, which is what
// allows clients to exchange flat vectors. The loss head is instantiated at
// the parameter storage width. A model never reads the gradient with respect
// to its own input, so the first parameterised layer of a Sequential net is
// told not to compute it.
func NewModel(name string, net Layer, numClasses int) *Model {
	m := &Model{
		Name:       name,
		net:        net,
		params:     net.Params(),
		numClasses: numClasses,
	}
	if seq, ok := net.(*Sequential); ok {
		seq.markInputLayer()
	}
	if len(m.params) > 0 {
		m.dtype = m.params[0].Value.DType()
	}
	if m.dtype == tensor.Float32 {
		m.loss = newSoftmaxCrossEntropyOf[float32]()
	} else {
		m.loss = newSoftmaxCrossEntropyOf[float64]()
	}
	for _, p := range m.params {
		if p.Value.DType() != m.dtype {
			panic(fmt.Sprintf("nn: model %s mixes parameter dtypes (%s vs %s)", name, m.dtype, p.Value.DType()))
		}
		m.size += p.Value.Len()
		if !p.NoOpt {
			m.optSize += p.Value.Len()
		}
	}
	return m
}

// NumClasses returns the classifier output width.
func (m *Model) NumClasses() int { return m.numClasses }

// Size returns the total number of scalar parameters, including batch-norm
// running statistics.
func (m *Model) Size() int { return m.size }

// OptSize returns the number of optimizer-updated scalar parameters.
func (m *Model) OptSize() int { return m.optSize }

// DType returns the storage width of the model's parameters.
func (m *Model) DType() tensor.DType { return m.dtype }

// Params returns the model parameters in synchronization order.
func (m *Model) Params() []*Param { return m.params }

// ReleaseScratch returns the step buffers the layers and the loss head keep
// between steps (scratch.go) to the tensor arena. Whoever drives the model
// calls it when a run of steps is over — a client after its local
// iterations, the engine after an evaluation — so an idle replica holds no
// activations. Tensors previously returned by Forward are invalid afterwards;
// the next step draws fresh buffers.
func (m *Model) ReleaseScratch() {
	releaseScratchOf(m.net)
	m.loss.releaseScratch()
}

// Forward runs the network and returns logits, valid until the model's next
// Forward, TrainStep, Loss, Evaluate or ReleaseScratch.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.net.Forward(x, train)
}

// ZeroGrad clears every parameter gradient.
func (m *Model) ZeroGrad() {
	for _, p := range m.params {
		p.ZeroGrad()
	}
}

// TrainStep runs one forward/backward pass on a batch, accumulating
// gradients, and returns the batch loss. The caller applies the optimizer.
func (m *Model) TrainStep(x *tensor.Tensor, labels []int) float64 {
	logits := m.net.Forward(x, true)
	loss := m.loss.Forward(logits, labels)
	m.net.Backward(m.loss.Backward())
	return loss
}

// Loss computes the loss of a batch without accumulating gradients' side
// effects beyond the forward caches.
func (m *Model) Loss(x *tensor.Tensor, labels []int) float64 {
	logits := m.net.Forward(x, false)
	return m.loss.Forward(logits, labels)
}

// Evaluate returns the accuracy and mean loss of the model over the given
// batch in inference mode.
func (m *Model) Evaluate(x *tensor.Tensor, labels []int) (acc, loss float64) {
	logits := m.net.Forward(x, false)
	return Accuracy(logits, labels), m.loss.Forward(logits, labels)
}

// ExtractVector copies every parameter value into dst in synchronization
// order, widening float32 parameters exactly. dst must have length Size.
func (m *Model) ExtractVector(dst []float64) {
	if len(dst) != m.size {
		panic(fmt.Sprintf("nn: ExtractVector length %d, model size %d", len(dst), m.size))
	}
	off := 0
	for _, p := range m.params {
		n := p.Value.Len()
		p.Value.CopyToF64(dst[off : off+n])
		off += n
	}
}

// LoadVector copies src into the parameter values in synchronization order,
// rounding to the storage dtype (the wire codec's float32 conversion in
// float32 mode). src must have length Size.
func (m *Model) LoadVector(src []float64) {
	if len(src) != m.size {
		panic(fmt.Sprintf("nn: LoadVector length %d, model size %d", len(src), m.size))
	}
	off := 0
	for _, p := range m.params {
		n := p.Value.Len()
		p.Value.CopyFromF64(src[off : off+n])
		off += n
	}
}

// Vector allocates and returns the current flat parameter vector.
func (m *Model) Vector() []float64 {
	v := make([]float64, m.size)
	m.ExtractVector(v)
	return v
}
