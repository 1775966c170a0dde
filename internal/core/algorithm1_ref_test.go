package core

import (
	"fmt"
	"math"

	"fedsu/internal/sparse"
)

// algorithm1 is the oracle Manager is tested against: PAPER.md's Algorithm 1
// with Eqs. 2–3, plus exactly the deviations DESIGN.md §3 lists, written
// down one parameter at a time with no regard for speed — a struct per
// parameter, fresh slices per round, one pass per sentence of the paper. It
// shares no code with fedsu.go beyond Options and the v2 lottery hash (the
// spec, not an implementation of it), and
// it speaks to the fleet through the plain sparse.Aggregator interface on the
// default wire.
type algorithm1 struct {
	id      int
	opts    Options
	agg     sparse.Aggregator
	started bool
	rounds  int // rounds seen, Fig. 7's denominator
	p       []paramState
}

// paramState is one scalar parameter's row of the paper's manager state.
type paramState struct {
	x float64 // x_{k−1}: the global value after the previous synchronization

	// Linearity diagnosis (Sec. IV-A, Eq. 2), advanced only while the
	// parameter is synchronized.
	g1       float64 // g_{k−1}
	hasG1    bool
	meanG2   float64 // ⟨g′⟩θ
	meanAbs2 float64 // ⟨|g′|⟩θ
	hasG2    bool
	meanG    float64 // ⟨g⟩θ
	meanAbsG float64 // ⟨|g|⟩θ
	observed int     // synchronized rounds observed

	// Speculative updating (Sec. IV-B) and error feedback (Sec. IV-C, Eq. 3).
	predictable bool    // M_predictable
	slope       float64 // g_k profiled at launch
	period      int     // current no-checking period
	left        int     // rounds until the next check
	sumErr      float64 // Σ e_r since the last check
	specRounds  int
	specTotal   int
}

func newAlgorithm1(id, size int, agg sparse.Aggregator, opts Options) *algorithm1 {
	if err := opts.validate(); err != nil {
		panic(err)
	}
	return &algorithm1{id: id, opts: opts, agg: agg, p: make([]paramState, size)}
}

// ratio is ℛ of Eq. 2; all-zero second differences are a perfectly linear
// trajectory.
func (s *paramState) ratio() float64 {
	if !s.hasG2 {
		return 1
	}
	if s.meanAbs2 == 0 {
		return 0
	}
	return math.Abs(s.meanG2) / s.meanAbs2
}

func (s *paramState) revert() {
	s.predictable = false
	s.period, s.left = 0, 0
	s.sumErr = 0
	s.specRounds = 0
}

// sync is one call of Algorithm 1's SYNC. It returns the new local model and
// how many parameters went through each collective.
func (a *algorithm1) sync(round int, local []float64, contributor bool) (out []float64, synced, checked int, err error) {
	if len(local) != len(a.p) {
		return nil, 0, 0, fmt.Errorf("algorithm1: vector length %d, want %d", len(local), len(a.p))
	}
	out = make([]float64, len(local))
	theta := a.opts.Theta

	if !a.started {
		// The first round synchronizes everything.
		var send []float64
		if contributor {
			send = append([]float64{}, local...)
		}
		global, err := a.agg.AggregateModel(a.id, round, send)
		if err != nil {
			return nil, 0, 0, err
		}
		for i := range a.p {
			out[i] = local[i]
			if global != nil {
				out[i] = global[i]
			}
			a.p[i].x = out[i]
		}
		a.started = true
		a.rounds++
		return out, len(a.p), 0, nil
	}

	// Who is synchronized this round, who is predicted, and whose
	// no-checking period runs out.
	var regular, speculative, checking []int
	for i := range a.p {
		switch s := &a.p[i]; {
		case !s.predictable:
			regular = append(regular, i)
		default:
			speculative = append(speculative, i)
			if a.opts.Variant == VariantFull && s.left <= 1 {
				checking = append(checking, i)
			}
		}
	}

	// Synchronize the unpredictable parameters.
	var send []float64
	if contributor {
		send = []float64{}
		for _, i := range regular {
			send = append(send, local[i])
		}
	}
	global, err := a.agg.AggregateModel(a.id, round, send)
	if err != nil {
		return nil, 0, 0, err
	}
	if global != nil && len(global) != len(regular) {
		return nil, 0, 0, fmt.Errorf("algorithm1: %d values for %d parameters", len(global), len(regular))
	}
	for j, i := range regular {
		out[i] = local[i]
		if global != nil {
			out[i] = global[j]
		}
	}

	// Masked replacement: predictable parameters move by their profiled
	// slope, and the prediction error e_r accumulates locally.
	for _, i := range speculative {
		s := &a.p[i]
		out[i] = s.x + s.slope
		s.sumErr += local[i] - out[i]
		s.specRounds++
		s.specTotal++
	}

	// Error feedback where a no-checking period expires: aggregate Σe_r,
	// then extend the period by one or rectify and mask as unpredictable.
	checkedNow := map[int]bool{}
	if len(checking) > 0 {
		var errs []float64
		if contributor {
			errs = []float64{}
			for _, i := range checking {
				errs = append(errs, a.p[i].sumErr)
			}
		}
		meanErr, err := a.agg.AggregateError(a.id, round, errs)
		if err != nil {
			return nil, 0, 0, err
		}
		if meanErr != nil && len(meanErr) != len(checking) {
			return nil, 0, 0, fmt.Errorf("algorithm1: %d errors for %d parameters", len(meanErr), len(checking))
		}
		for j, i := range checking {
			s := &a.p[i]
			e := s.sumErr
			if meanErr != nil {
				e = meanErr[j]
			}
			// 𝒮 = |Σe_r| / |g_k|, the denominator floored at the parameter's
			// typical movement unless RawErrorNorm (DESIGN §5).
			denom := math.Abs(s.slope)
			if !a.opts.RawErrorNorm && s.meanAbsG > denom {
				denom = s.meanAbsG
			}
			if denom < 1e-12 {
				denom = 1e-12
			}
			if math.Abs(e)/denom < a.opts.TS {
				s.period++
				s.left = s.period
				s.sumErr = 0
			} else {
				out[i] += e
				s.revert()
			}
			checkedNow[i] = true
		}
	}

	// One round of every other no-checking period has passed; v1 and v2
	// leave speculation when their fixed period has.
	for _, i := range speculative {
		s := &a.p[i]
		if checkedNow[i] {
			continue
		}
		s.left--
		if a.opts.Variant != VariantFull && s.left <= 0 {
			s.revert()
		}
	}

	// Linearity diagnosis of the parameters that were synchronized.
	for _, i := range regular {
		s := &a.p[i]
		g := out[i] - s.x
		if s.hasG1 {
			g2 := g - s.g1
			if math.Abs(g2) < 1e-9*math.Abs(g) {
				g2 = 0 // roundoff of a straight line is not oscillation
			}
			if !s.hasG2 {
				s.meanG2, s.meanAbs2, s.hasG2 = g2, math.Abs(g2), true
			} else {
				s.meanG2 = theta*s.meanG2 + (1-theta)*g2
				s.meanAbs2 = theta*s.meanAbs2 + (1-theta)*math.Abs(g2)
			}
			s.meanG = theta*s.meanG + (1-theta)*g
			s.meanAbsG = theta*s.meanAbsG + (1-theta)*math.Abs(g)
		} else {
			s.meanG, s.meanAbsG = g, math.Abs(g)
		}
		s.g1, s.hasG1 = g, true
		s.observed++

		launch := false
		if a.opts.Variant == VariantV2 {
			launch = launchDraw(a.opts.Seed, round, i) < a.opts.LaunchProb
		} else {
			launch = s.observed >= a.opts.MinHistory && s.hasG2 && s.ratio() < a.opts.TR && g != 0
		}
		if launch {
			s.predictable = true
			s.slope = s.meanG
			if a.opts.RawSlope {
				s.slope = g
			}
			s.sumErr, s.specRounds = 0, 0
			s.period = 1
			if a.opts.Variant != VariantFull {
				s.period = a.opts.FixedPeriod
			}
			s.left = s.period
		}
	}

	for i := range a.p {
		a.p[i].x = out[i]
	}
	a.rounds++
	return out, len(regular), len(checking), nil
}

// mask is M_predictable.
func (a *algorithm1) mask() []bool {
	m := make([]bool, len(a.p))
	for i := range a.p {
		m[i] = a.p[i].predictable
	}
	return m
}

// state renders the oracle's rows in core.State's layout, for comparison
// with a manager's live state. The oracle runs the default wire: no residual.
func (a *algorithm1) state() *State {
	n := len(a.p)
	s := &State{
		SharedState: SharedState{
			Started:    a.started,
			PrevGlobal: make([]float64, n), LastG: make([]float64, n), HasLastG: make([]bool, n),
			EmaG2: make([]float64, n), EmaAbsG2: make([]float64, n), EmaG: make([]float64, n),
			EmaAbsG: make([]float64, n), EmaSeen: make([]bool, n), History: make([]int32, n),
			Mode: make([]paramMode, n), Slope: make([]float64, n), NoCheckPeriod: make([]int32, n),
			NoCheckLeft: make([]int32, n), SpecRounds: make([]int32, n),
		},
		LocalState: LocalState{AccumErr: make([]float64, n), SpecTotal: make([]int64, n), SeenTotal: int64(a.rounds)},
	}
	for i, p := range a.p {
		s.PrevGlobal[i], s.LastG[i], s.HasLastG[i] = p.x, p.g1, p.hasG1
		s.EmaG2[i], s.EmaAbsG2[i], s.EmaSeen[i] = p.meanG2, p.meanAbs2, p.hasG2
		s.EmaG[i], s.EmaAbsG[i], s.History[i] = p.meanG, p.meanAbsG, int32(p.observed)
		s.Mode[i] = modeRegular
		if p.predictable {
			s.Mode[i] = modeSpeculative
		}
		s.Slope[i], s.NoCheckPeriod[i], s.NoCheckLeft[i] = p.slope, int32(p.period), int32(p.left)
		s.AccumErr[i], s.SpecRounds[i], s.SpecTotal[i] = p.sumErr, int32(p.specRounds), int64(p.specTotal)
	}
	return s
}

// linearFractions is Fig. 7's per-parameter quantity.
func (a *algorithm1) linearFractions() []float64 {
	out := make([]float64, len(a.p))
	for i, p := range a.p {
		if a.rounds > 0 {
			out[i] = float64(p.specTotal) / float64(a.rounds)
		}
	}
	return out
}
