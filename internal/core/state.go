package core

import "fedsu/internal/sparse"

// State is a Manager's live state, one slot per scalar parameter in every
// slice. It is the state itself, not a copy kept in step with it: the
// Manager holds one and the sparse.Stateful seam allocates and encodes it
// field by field, so a field added here is carried everywhere. It has two
// views.
//
//   - SharedState is what every client holds bit-identically, because only
//     post-sync global values move it: per the paper's dynamicity handling
//     (Sec. V), a client joining mid-run downloads it — the predictability
//     mask and no-checking information, plus the diagnosis EMAs so its
//     future decisions match the fleet's. A checkpoint stores it once.
//   - LocalState is what this client's own submissions produced: the
//     prediction error accumulated since the last check, the lossy chain's
//     error-feedback residual, and the Fig. 7 counters. A joiner starts it
//     at zero — it has sent nothing; a restart restores it from its own
//     checkpoint blob.
//
// v2's launch lottery has no state: a draw is a function of (Seed, round,
// parameter), so a joined or restored manager launches what the fleet
// launches.
type State struct {
	SharedState
	LocalState
}

// SharedState is the fleet-shared view of a Manager's state.
type SharedState struct {
	Started bool

	// Global-trajectory diagnosis state.
	PrevGlobal []float64 // x_{k-1} after the previous sync
	LastG      []float64 // first-order difference g_{k-1}
	HasLastG   []bool
	EmaG2      []float64 // ⟨g′⟩θ
	EmaAbsG2   []float64 // ⟨|g′|⟩θ
	EmaG       []float64 // ⟨g⟩θ — smoothed slope estimator
	EmaAbsG    []float64 // ⟨|g|⟩θ — typical per-round movement scale
	EmaSeen    []bool
	History    []int32 // observed rounds per parameter since last reset

	// Speculative-updating state.
	Mode          []paramMode
	Slope         []float64 // g_k profiled at speculation start
	NoCheckPeriod []int32   // current no-checking period length
	NoCheckLeft   []int32   // rounds until the next error check
	SpecRounds    []int32   // rounds spent in the current speculative phase
}

// LocalState is the client-local view of a Manager's state.
type LocalState struct {
	AccumErr []float64 // Σ e_r since the last check

	// WireErr carries the lossy chain's per-parameter residual (sent minus
	// wire image) into the next round's submission — error feedback in the
	// EF-SGD sense, so components below the quantization step accumulate
	// until they cross it instead of being rounded away forever. Allocated
	// on the first delta-domain sync; nil on the default wire.
	WireErr []float64 `state:"lazy"`

	// SpecTotal counts speculative rounds per parameter and SeenTotal the
	// rounds seen: the Fig. 7 linearity CDF.
	SpecTotal []int64
	SeenTotal int64
}

var _ sparse.Stateful = (*Manager)(nil)

// State implements sparse.Stateful.
func (m *Manager) State(v sparse.View) any {
	if v == sparse.Shared {
		return &m.st.SharedState
	}
	return &m.st.LocalState
}
