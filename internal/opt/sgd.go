// Package opt implements the optimizer federated clients train with: SGD
// with weight decay, the paper's optimizer.
package opt

import (
	"fedsu/internal/nn"
	"fedsu/internal/tensor"
)

// SGD is stochastic gradient descent with L2 weight decay, matching the
// paper's training setup (SGD, weight decay 0.001). It keeps no state
// between steps.
type SGD struct {
	lr          float64
	weightDecay float64
}

// SGDOpt customizes an SGD optimizer at construction time.
type SGDOpt func(*SGD)

// WithWeightDecay enables L2 weight decay with coefficient wd.
func WithWeightDecay(wd float64) SGDOpt {
	return func(s *SGD) { s.weightDecay = wd }
}

// NewSGD constructs an SGD optimizer with learning rate lr.
func NewSGD(lr float64, opts ...SGDOpt) *SGD {
	s := &SGD{lr: lr}
	for _, o := range opts {
		o(s)
	}
	return s
}

// LR returns the learning rate.
func (s *SGD) LR() float64 { return s.lr }

// Step applies one update to every optimizer-visible parameter using the
// gradients accumulated since the last ZeroGrad.
func (s *SGD) Step(params []*nn.Param) {
	for _, p := range params {
		if p.NoOpt {
			continue
		}
		tensor.SGDUpdate(p.Value.Data(), p.Grad.Data(), s.lr, s.weightDecay)
	}
}
