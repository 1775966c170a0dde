package core

import "fmt"

// State is a portable snapshot of a Manager's per-parameter bookkeeping.
// Per the paper's dynamicity handling (Sec. V), a client joining mid-run
// downloads — besides the latest model — the predictability mask and
// no-checking information; State carries exactly that (plus the diagnosis
// EMAs so the joiner's future decisions match the fleet's). It travels
// in-process to a joiner (fl.Engine.AddClient) and through internal/ckpt's
// binary format to disk; nothing puts it on the TCP wire.
//
// A snapshot is everything Algorithm 1's next decision depends on, and
// nothing else. Three pieces of manager state are left out on purpose:
//
//   - the lossy chain's error-feedback residual (wireErr) is what this
//     client's own past submissions lost on the wire — a joiner has sent
//     nothing, and a resumed client restarting it at zero forgoes at most one
//     quantization step per parameter, once;
//   - the Fig. 7 counters (specTotal, seenTotal) are a report about this
//     client's run so far, not an input to it;
//   - v2's launch lottery has no state: a draw is a function of (Seed, round,
//     parameter), so a restored manager launches what the fleet launches.
type State struct {
	Size       int
	Round      int
	Started    bool
	PrevGlobal []float64
	LastG      []float64
	HasLastG   []bool
	EmaG2      []float64
	EmaAbsG2   []float64
	EmaG       []float64
	EmaAbsG    []float64
	EmaSeen    []bool
	History    []int32

	Mode          []uint8
	Slope         []float64
	NoCheckPeriod []int32
	NoCheckLeft   []int32
	AccumErr      []float64
	SpecRounds    []int32
}

// Snapshot captures the manager's current state.
func (m *Manager) Snapshot() *State {
	s := &State{
		Size:          m.size,
		Round:         m.round,
		Started:       m.started,
		PrevGlobal:    append([]float64(nil), m.prevGlobal...),
		LastG:         append([]float64(nil), m.lastG...),
		HasLastG:      append([]bool(nil), m.hasLastG...),
		EmaG2:         append([]float64(nil), m.emaG2...),
		EmaAbsG2:      append([]float64(nil), m.emaAbsG2...),
		EmaG:          append([]float64(nil), m.emaG...),
		EmaAbsG:       append([]float64(nil), m.emaAbsG...),
		EmaSeen:       append([]bool(nil), m.emaSeen...),
		History:       append([]int32(nil), m.history...),
		Slope:         append([]float64(nil), m.slope...),
		NoCheckPeriod: append([]int32(nil), m.noCheckPeriod...),
		NoCheckLeft:   append([]int32(nil), m.noCheckLeft...),
		AccumErr:      append([]float64(nil), m.accumErr...),
		SpecRounds:    append([]int32(nil), m.specRounds...),
	}
	s.Mode = make([]uint8, m.size)
	for i, md := range m.mode {
		s.Mode[i] = uint8(md)
	}
	return s
}

// Restore overwrites the manager's state from a snapshot taken on another
// (same-sized) manager. The joiner's local error restarts at zero — errors
// are client-local observations, not shared state — so AccumErr from the
// donor is intentionally not blindly trusted: it is copied, which matches a
// donor mid-window, and the next error check re-aggregates across clients
// anyway.
func (m *Manager) Restore(s *State) error {
	if s.Size != m.size {
		return fmt.Errorf("core: restore size %d into manager of size %d", s.Size, m.size)
	}
	m.round = s.Round
	m.started = s.Started
	copy(m.prevGlobal, s.PrevGlobal)
	copy(m.lastG, s.LastG)
	copy(m.hasLastG, s.HasLastG)
	copy(m.emaG2, s.EmaG2)
	copy(m.emaAbsG2, s.EmaAbsG2)
	copy(m.emaG, s.EmaG)
	copy(m.emaAbsG, s.EmaAbsG)
	copy(m.emaSeen, s.EmaSeen)
	copy(m.history, s.History)
	for i, md := range s.Mode {
		m.mode[i] = paramMode(md)
	}
	copy(m.slope, s.Slope)
	copy(m.noCheckPeriod, s.NoCheckPeriod)
	copy(m.noCheckLeft, s.NoCheckLeft)
	copy(m.accumErr, s.AccumErr)
	copy(m.specRounds, s.SpecRounds)
	return nil
}
