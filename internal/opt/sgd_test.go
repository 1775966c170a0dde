package opt

import (
	"math"
	"math/rand"
	"testing"

	"fedsu/internal/nn"
	"fedsu/internal/tensor"
)

func makeParam(vals ...float64) *nn.Param {
	return &nn.Param{
		Name:  "p",
		Value: tensor.FromSlice(append([]float64(nil), vals...), len(vals)),
		Grad:  tensor.New(len(vals)),
	}
}

func TestSGDPlainStep(t *testing.T) {
	p := makeParam(1, 2)
	p.Grad.Data()[0] = 0.5
	p.Grad.Data()[1] = -1
	s := NewSGD(0.1)
	s.Step([]*nn.Param{p})
	if got := p.Value.At(0); math.Abs(got-0.95) > 1e-12 {
		t.Errorf("value[0] = %v, want 0.95", got)
	}
	if got := p.Value.At(1); math.Abs(got-2.1) > 1e-12 {
		t.Errorf("value[1] = %v, want 2.1", got)
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := makeParam(2)
	s := NewSGD(0.1, WithWeightDecay(0.5))
	s.Step([]*nn.Param{p})
	// grad = 0 + 0.5*2 = 1 → value = 2 − 0.1 = 1.9
	if got := p.Value.At(0); math.Abs(got-1.9) > 1e-12 {
		t.Errorf("value = %v, want 1.9", got)
	}
}

func TestSGDSkipsNoOpt(t *testing.T) {
	p := makeParam(5)
	p.NoOpt = true
	p.Grad.Data()[0] = 100
	s := NewSGD(0.1)
	s.Step([]*nn.Param{p})
	if p.Value.At(0) != 5 {
		t.Errorf("NoOpt param was updated to %v", p.Value.At(0))
	}
}

func TestSchedules(t *testing.T) {
	t.Run("constant", func(t *testing.T) {
		s := Constant()
		if s(0) != 1 || s(1000) != 1 {
			t.Error("constant schedule must always be 1")
		}
	})
	t.Run("step-decay", func(t *testing.T) {
		s := StepDecay(10, 0.5)
		if s(9) != 1 || s(10) != 0.5 || s(20) != 0.25 {
			t.Errorf("step decay = %v %v %v, want 1 0.5 0.25", s(9), s(10), s(20))
		}
	})
	t.Run("inverse-sqrt", func(t *testing.T) {
		s := InverseSqrt(100)
		if s(0) != 1 {
			t.Errorf("inverse-sqrt at 0 = %v, want 1", s(0))
		}
		if got := s(300); math.Abs(got-0.5) > 1e-12 {
			t.Errorf("inverse-sqrt at 300 = %v, want 0.5", got)
		}
		// Must be monotonically non-increasing.
		prev := math.Inf(1)
		for i := 0; i < 1000; i += 37 {
			if v := s(i); v > prev {
				t.Fatalf("schedule increased at step %d", i)
			} else {
				prev = v
			}
		}
	})
}

func TestSGDScheduleApplied(t *testing.T) {
	p := makeParam(0)
	s := NewSGD(1, WithSchedule(StepDecay(1, 0.5)))
	for i := 0; i < 3; i++ {
		p.Grad.Data()[0] = 1
		s.Step([]*nn.Param{p})
		p.ZeroGrad()
	}
	// Updates: 1*1 + 0.5 + 0.25 = 1.75.
	if got := p.Value.At(0); math.Abs(got+1.75) > 1e-12 {
		t.Errorf("value = %v, want -1.75", got)
	}
}

func TestSGDMatchesManualLoop(t *testing.T) {
	// Cross-check the optimizer against the manual update used in nn tests.
	rng := rand.New(rand.NewSource(3))
	p1 := makeParam(rng.Float64(), rng.Float64(), rng.Float64())
	p2 := makeParam(p1.Value.Data()[0], p1.Value.Data()[1], p1.Value.Data()[2])
	s := NewSGD(0.05)
	for step := 0; step < 5; step++ {
		for i := 0; i < 3; i++ {
			g := rng.NormFloat64()
			p1.Grad.Data()[i] = g
			p2.Grad.Data()[i] = g
		}
		s.Step([]*nn.Param{p1})
		p2.Value.AddScaled(-0.05, p2.Grad)
		p1.ZeroGrad()
		p2.ZeroGrad()
	}
	for i := 0; i < 3; i++ {
		if math.Abs(p1.Value.At(i)-p2.Value.At(i)) > 1e-12 {
			t.Fatalf("optimizer diverged from manual SGD at %d", i)
		}
	}
}
