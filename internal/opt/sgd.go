// Package opt implements the optimizer and learning-rate schedules used by
// federated clients: SGD with weight decay (the paper's optimizer) and the
// schedules its convergence analysis admits.
package opt

import (
	"math"

	"fedsu/internal/nn"
	"fedsu/internal/tensor"
)

// SGD is stochastic gradient descent with L2 weight decay, matching the
// paper's training setup (SGD, weight decay 0.001). Apart from the step
// count its schedule reads, it keeps no state between steps.
type SGD struct {
	lr          float64
	weightDecay float64
	schedule    Schedule
	step        int
}

// SGDOpt customizes an SGD optimizer at construction time.
type SGDOpt func(*SGD)

// WithWeightDecay enables L2 weight decay with coefficient wd.
func WithWeightDecay(wd float64) SGDOpt {
	return func(s *SGD) { s.weightDecay = wd }
}

// WithSchedule attaches a learning-rate schedule; the base learning rate is
// multiplied by the schedule value at each step.
func WithSchedule(sched Schedule) SGDOpt {
	return func(s *SGD) { s.schedule = sched }
}

// NewSGD constructs an SGD optimizer with base learning rate lr.
func NewSGD(lr float64, opts ...SGDOpt) *SGD {
	s := &SGD{lr: lr, schedule: Constant()}
	for _, o := range opts {
		o(s)
	}
	return s
}

// SetStep moves the schedule to step. A federated client calls it at the
// start of every round with round·LocalIters, so the rate is a function of
// the round, not of how many steps this replica happens to have taken: a
// joiner or a restored client trains at the fleet's rate.
func (s *SGD) SetStep(step int) { s.step = step }

// LR returns the effective learning rate at the current step.
func (s *SGD) LR() float64 { return s.lr * s.schedule(s.step) }

// Step applies one update to every optimizer-visible parameter using the
// gradients accumulated since the last ZeroGrad, then advances the step
// counter.
func (s *SGD) Step(params []*nn.Param) {
	lr := s.LR()
	for _, p := range params {
		if p.NoOpt {
			continue
		}
		tensor.SGDUpdate(p.Value.Data(), p.Grad.Data(), lr, s.weightDecay)
	}
	s.step++
}

// Schedule maps a step index to a multiplier on the base learning rate.
type Schedule func(step int) float64

// Constant returns the identity schedule.
func Constant() Schedule {
	return func(int) float64 { return 1 }
}

// InverseSqrt implements the 1/√(1+step/warm) schedule satisfying the
// divergent-sum / vanishing-ratio conditions of Theorem 1 (Eq. 13).
func InverseSqrt(warm int) Schedule {
	if warm <= 0 {
		warm = 1
	}
	return func(step int) float64 {
		return 1.0 / math.Sqrt(1+float64(step)/float64(warm))
	}
}
