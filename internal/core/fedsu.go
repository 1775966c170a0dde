// Package core implements FedSU — Federated Learning with Speculative
// Updating (Yu et al., ICDCS 2025), the paper's primary contribution.
//
// FedSU observes that during federated training many scalar parameters
// evolve linearly across rounds. Borrowing speculative execution from
// computer architecture, it exempts such parameters from synchronization and
// refines them locally with a predicted per-round update. Two mechanisms
// make this safe and effective:
//
//   - Linearity diagnosis (Sec. IV-A): a parameter is predictable when its
//     second-order oscillation ratio ℛ = |⟨g′⟩θ| / ⟨|g′|⟩θ (Eq. 2) — an
//     EMA-smoothed measure of whether the second-order parameter difference
//     oscillates around zero — falls below a threshold T_ℛ.
//
//   - Error feedback (Sec. IV-C): during speculative updating, clients
//     accumulate the gap between their true local updates and the predicted
//     ones; when a parameter's no-checking period expires, the errors are
//     globally aggregated and the signal 𝒮 = |Σe_r| / |g_k| (Eq. 3) decides
//     whether to extend the no-checking period (𝒮 < T_𝒮) or to revert the
//     parameter to regular synchronization.
//
// The Manager type plays the role of the paper's FedSU_Manager Python
// module: one instance lives on each client, maintains the predictability
// and no-checking masks (identical across clients because they are computed
// from post-synchronization global values), and drives Sync per Algorithm 1.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"fedsu/internal/par"
	"fedsu/internal/sparse"
)

// Variant selects the FedSU algorithm variant; the ablation study (Fig. 8)
// compares the full algorithm against v1 and v2.
type Variant int

const (
	// VariantFull is standard FedSU: linearity diagnosis + error feedback.
	VariantFull Variant = iota + 1
	// VariantV1 keeps linearity diagnosis but replaces error feedback with
	// a fixed-length speculative period.
	VariantV1
	// VariantV2 drops linearity diagnosis too: parameters enter a
	// fixed-length speculative period at random with a preset probability.
	VariantV2
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantFull:
		return "fedsu"
	case VariantV1:
		return "fedsu-v1"
	case VariantV2:
		return "fedsu-v2"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Options configures a FedSU Manager.
type Options struct {
	// TR is the predictability threshold T_ℛ on the second-order
	// oscillation ratio (paper default 0.01).
	TR float64
	// TS is the error-feedback threshold T_𝒮 (paper default 1.0).
	TS float64
	// Theta is the EMA decay factor of Eq. 2 (default 0.9).
	Theta float64
	// MinHistory is the number of observed rounds required before a
	// parameter may be diagnosed (the ratio needs a few second-order
	// differences to be meaningful; default 3).
	MinHistory int
	// Variant selects full FedSU or an ablation variant.
	Variant Variant
	// FixedPeriod is the speculative-updating length for v1/v2.
	FixedPeriod int
	// LaunchProb is the per-round probability that an unpredictable
	// parameter enters speculative updating under v2.
	LaunchProb float64
	// Seed drives the v2 launch lottery; all clients must share it so
	// their masks agree.
	Seed int64
	// RawSlope uses the last-round update g_k as the speculative slope, as
	// Sec. IV-B literally states. The default (false) uses the EMA-smoothed
	// per-round update instead, which suppresses mini-batch noise in the
	// profiled slope — an ablation shows it lengthens speculative phases
	// substantially at emulation scale (see DESIGN.md §5).
	RawSlope bool
	// RawErrorNorm normalizes the feedback signal 𝒮 by |g_k| alone, as
	// Eq. 3 literally states. The default (false) floors the denominator at
	// the parameter's typical per-round movement ⟨|g|⟩θ so a near-zero
	// slope draw cannot make 𝒮 explode for a correctly stagnating
	// parameter.
	RawErrorNorm bool
	// Quantize rounds every synchronized output value through
	// sparse.QuantizeWire, keeping the manager's view of the global
	// trajectory inside the float32-representable set. Float32 engines set
	// it so that loading the sync result into a float32 model is exact:
	// predictions, aggregated means, and therefore prevGlobal/slope state
	// all live in the wire image, and speculative refinement accumulates no
	// storage-rounding error. Float64 engines leave it off (the historical
	// behaviour, bit-for-bit).
	Quantize bool
}

// DefaultOptions returns the paper's evaluation configuration
// (T_ℛ = 0.01, T_𝒮 = 1.0, θ = 0.9).
func DefaultOptions() Options {
	return Options{
		TR:          0.01,
		TS:          1.0,
		Theta:       0.9,
		MinHistory:  3,
		Variant:     VariantFull,
		FixedPeriod: 43,
		LaunchProb:  0.0053,
		Seed:        1,
	}
}

func (o *Options) validate() error {
	if o.TR <= 0 {
		return fmt.Errorf("core: TR = %v must be positive", o.TR)
	}
	if o.TS <= 0 {
		return fmt.Errorf("core: TS = %v must be positive", o.TS)
	}
	if o.Theta < 0 || o.Theta >= 1 {
		return fmt.Errorf("core: Theta = %v outside [0, 1)", o.Theta)
	}
	if o.Variant == 0 {
		o.Variant = VariantFull
	}
	if o.MinHistory < 1 {
		o.MinHistory = 1
	}
	if (o.Variant == VariantV1 || o.Variant == VariantV2) && o.FixedPeriod <= 0 {
		return fmt.Errorf("core: variant %v requires a positive FixedPeriod", o.Variant)
	}
	if o.Variant == VariantV2 && (o.LaunchProb <= 0 || o.LaunchProb > 1) {
		return fmt.Errorf("core: variant v2 requires LaunchProb in (0, 1]")
	}
	return nil
}

// paramMode is the per-parameter state machine position.
type paramMode uint8

const (
	// modeRegular: synchronized normally; oscillation ratio tracked.
	modeRegular paramMode = iota + 1
	// modeSpeculative: refined with the predicted gradient, within the
	// no-checking period.
	modeSpeculative
)

// Manager is the per-client FedSU state machine (the paper's
// FedSU_Manager). It implements sparse.Syncer.
type Manager struct {
	id   int
	size int
	agg  sparse.Aggregator
	opts Options
	wire sparse.Wire

	// Global-trajectory diagnosis state (identical across clients).
	prevGlobal []float64 // x_{k-1} after the previous sync
	lastG      []float64 // first-order difference g_{k-1}
	hasLastG   []bool
	emaG2      []float64 // ⟨g′⟩θ
	emaAbsG2   []float64 // ⟨|g′|⟩θ
	emaG       []float64 // ⟨g⟩θ — smoothed slope estimator
	emaAbsG    []float64 // ⟨|g|⟩θ — typical per-round movement scale
	emaSeen    []bool
	history    []int32 // observed rounds per parameter since last reset

	// Speculative-updating state.
	mode          []paramMode
	slope         []float64 // g_k profiled at speculation start
	noCheckPeriod []int32   // current no-checking period length
	noCheckLeft   []int32   // rounds until the next error check
	accumErr      []float64 // Σ e_r since the last check (local)
	specRounds    []int32   // rounds spent in the current speculative phase

	// wireErr carries the lossy chain's per-parameter residual (sent minus
	// wire image) into the next round's submission — error feedback in the
	// EF-SGD sense, so components below the quantization step accumulate
	// until they cross it instead of being rounded away forever. Allocated
	// lazily on the first delta-domain sync; nil on the default wire.
	wireErr []float64

	round   int
	started bool
	rng     *rand.Rand // v2 launch lottery (shared seed across clients)

	// Per-sync scratch, reused across rounds so a steady-state Sync
	// performs no allocation. scratchOut backs the vector returned to the
	// caller — see the ownership note on Sync. scratchSend/scratchErrSend
	// back the collective submissions; the aggregator only reads them for
	// the duration of the call (the fl.Server contract), so reusing them
	// the following round is safe. Each collective also lends the transport
	// a scratch that is idle while it runs, to decode the result into: the
	// model collective scratchDraw (filled only by diagnose, after the result
	// is consumed), the error collective scratchSend (consumed by then).
	scratchRegular  []int
	scratchChecking []int
	scratchSend     []float64
	scratchErrSend  []float64
	scratchOut      []float64
	scratchDraw     []float64 // pre-drawn v2 lottery values for diagnose

	// Cumulative speculative-round counters for the Fig. 7 linearity CDF.
	specTotal []int64
	seenTotal int64
}

var _ sparse.ContextSyncer = (*Manager)(nil)

// NewManager builds a FedSU manager for a model with size scalar
// parameters.
func NewManager(clientID, size int, agg sparse.Aggregator, opts Options) (*Manager, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("core: model size = %d", size)
	}
	m := &Manager{
		id: clientID, size: size, agg: agg, opts: opts,
		prevGlobal:    make([]float64, size),
		lastG:         make([]float64, size),
		hasLastG:      make([]bool, size),
		emaG2:         make([]float64, size),
		emaAbsG2:      make([]float64, size),
		emaG:          make([]float64, size),
		emaAbsG:       make([]float64, size),
		emaSeen:       make([]bool, size),
		history:       make([]int32, size),
		mode:          make([]paramMode, size),
		slope:         make([]float64, size),
		noCheckPeriod: make([]int32, size),
		noCheckLeft:   make([]int32, size),
		accumErr:      make([]float64, size),
		specRounds:    make([]int32, size),
		specTotal:     make([]int64, size),
		rng:           rand.New(rand.NewSource(opts.Seed)),

		scratchRegular:  make([]int, 0, size),
		scratchChecking: make([]int, 0, size),
		scratchSend:     make([]float64, size),
		scratchErrSend:  make([]float64, size),
		scratchOut:      make([]float64, size),
		scratchDraw:     make([]float64, size),
	}
	for i := range m.mode {
		m.mode[i] = modeRegular
	}
	return m, nil
}

// Factory returns a sparse.Factory building managers with the given
// options; all clients share the options (and therefore the v2 lottery
// seed).
func Factory(opts Options) sparse.Factory {
	return func(clientID, size int, agg sparse.Aggregator) sparse.Syncer {
		m, err := NewManager(clientID, size, agg, opts)
		if err != nil {
			// A Factory cannot return an error; options are validated by
			// the engine before fan-out, so this is a programming error.
			panic(err)
		}
		return m
	}
}

// Name implements sparse.Syncer.
func (m *Manager) Name() string { return m.opts.Variant.String() }

// SetWire implements sparse.WireSetter: traffic is charged at the
// negotiated chain's measured message sizes instead of the default
// codec's. The speculative state machine itself is untouched — FedSU's
// masked sends compose with any chain.
func (m *Manager) SetWire(w sparse.Wire) { m.wire = w }

// PredictableMask returns a copy of the current predictability mask.
func (m *Manager) PredictableMask() []bool {
	mask := make([]bool, m.size)
	for i, md := range m.mode {
		mask[i] = md == modeSpeculative
	}
	return mask
}

// PredictableCount returns how many parameters are currently speculative.
func (m *Manager) PredictableCount() int {
	n := 0
	for _, md := range m.mode {
		if md == modeSpeculative {
			n++
		}
	}
	return n
}

// OscillationRatio returns the current ℛ value for parameter i, or 1 when
// the parameter lacks history. A zero denominator means every observed
// second-order difference was exactly zero — a perfectly linear trajectory —
// so the ratio is 0 (|⟨g′⟩θ| ≤ ⟨|g′|⟩θ guarantees the numerator is zero too).
func (m *Manager) OscillationRatio(i int) float64 {
	if !m.emaSeen[i] {
		return 1
	}
	if m.emaAbsG2[i] == 0 {
		return 0
	}
	return math.Abs(m.emaG2[i]) / m.emaAbsG2[i]
}

// LinearFractions returns, per parameter, the fraction of observed rounds
// spent in speculative (diagnosed-as-linear) mode — the quantity whose CDF
// the paper plots in Fig. 7.
func (m *Manager) LinearFractions() []float64 {
	out := make([]float64, m.size)
	if m.seenTotal == 0 {
		return out
	}
	for i := range out {
		out[i] = float64(m.specTotal[i]) / float64(m.seenTotal)
	}
	return out
}

// Sync implements sparse.Syncer, following Algorithm 1 and the Fig. 3
// workflow. local is the client's post-training parameter vector x.
//
// The returned vector is owned by the Manager: it stays valid until the
// next Sync/SyncCtx call on the same Manager, which reuses its storage.
// Callers that keep per-round outputs across rounds must copy.
func (m *Manager) Sync(round int, local []float64, contributor bool) ([]float64, sparse.Traffic, error) {
	return m.SyncCtx(context.Background(), round, local, contributor)
}

// SyncCtx implements sparse.ContextSyncer: the collectives honour ctx
// cancellation when the aggregator supports it. The returned vector is
// manager-owned scratch — see Sync.
func (m *Manager) SyncCtx(ctx context.Context, round int, local []float64, contributor bool) ([]float64, sparse.Traffic, error) {
	if len(local) != m.size {
		return nil, sparse.Traffic{}, fmt.Errorf("fedsu: vector length %d, want %d", len(local), m.size)
	}
	m.round = round

	if !m.started {
		// Bootstrap round: full synchronization to establish the first
		// global snapshot every later diagnosis derives from.
		return m.bootstrap(ctx, round, local, contributor)
	}

	// Partition parameters: regular (synchronized), speculative
	// (predicted), and speculative-with-expiring-check (error aggregated).
	// The index slices never outgrow their construction-time capacity
	// (both are bounded by m.size), so the appends below cannot
	// reallocate.
	regular := m.scratchRegular[:0]
	checking := m.scratchChecking[:0]
	for i := 0; i < m.size; i++ {
		switch m.mode[i] {
		case modeRegular:
			regular = append(regular, i)
		case modeSpeculative:
			if m.noCheckLeft[i] <= 1 {
				checking = append(checking, i)
			}
		}
	}

	// Collective 1: aggregate the regular parameters' values. Under a
	// lossy chain the collective runs in the delta domain: clients ship
	// local − prevGlobal and add the reference back after aggregation.
	// prevGlobal is identical on every client (it is the post-sync
	// global), so the averaged delta plus the reference equals the
	// averaged values — but the chain's quantization grids then span the
	// per-round update range instead of the absolute weight range, which
	// is what keeps a 4-bit cell trainable. The default wire stays in the
	// value domain, bit-identical to every pre-chain run.
	delta := m.wire.Enabled()
	if delta && m.wireErr == nil {
		m.wireErr = make([]float64, m.size)
	}
	var send, img []float64
	if contributor {
		send = m.scratchSend[:len(regular)]
		for j, i := range regular {
			if delta {
				send[j] = local[i] - m.prevGlobal[i] + m.wireErr[i]
			} else {
				send[j] = local[i]
			}
		}
	}
	if delta && send != nil {
		// The submission's wire image comes back in the error collective's
		// send scratch, which is idle until that collective is built below.
		img = m.scratchErrSend[:len(send)]
	}
	aggModel, upBytes, downBytes, err := m.wire.Collect(ctx, sparse.AggModel, m.agg, m.id, round, send, img, m.scratchDraw)
	if err != nil {
		return nil, sparse.Traffic{}, fmt.Errorf("fedsu: aggregate model round %d: %w", round, err)
	}
	if aggModel != nil && len(aggModel) != len(regular) {
		return nil, sparse.Traffic{}, fmt.Errorf("fedsu: model aggregate returned %d values for %d regular params", len(aggModel), len(regular))
	}
	if img != nil {
		// Error feedback: carry what the chain lost of this submission into
		// the next round. img is what the transport's one encode decodes to,
		// on either transport, and the residual advances only now that the
		// collective has taken the submission: a failed call retried for the
		// same round must not fold it in twice.
		for j, i := range regular {
			m.wireErr[i] = send[j] - img[j]
		}
	}

	out := m.scratchOut

	// Regular parameters take the aggregated global value (reference plus
	// aggregated delta under a lossy chain).
	for j, i := range regular {
		switch {
		case aggModel == nil:
			out[i] = m.q(local[i])
		case delta:
			out[i] = m.q(m.prevGlobal[i] + aggModel[j])
		default:
			out[i] = m.q(aggModel[j])
		}
	}

	// Speculative parameters are refined by the predicted per-round update
	// (masked replacement), and their local prediction error accumulates.
	// Under Quantize the prediction itself is snapped to the wire image, so
	// the value the client stores (and trains from next round) is exactly
	// the value the manager accounted for.
	for i := 0; i < m.size; i++ {
		if m.mode[i] != modeSpeculative {
			continue
		}
		predicted := m.q(m.prevGlobal[i] + m.slope[i])
		out[i] = predicted
		// e_r = g̃_r − g_k, with the local update standing in for the true
		// gradient until aggregation.
		m.accumErr[i] += local[i] - predicted
		m.specRounds[i]++
		m.specTotal[i]++
	}

	// Collective 2: error feedback for parameters whose no-checking period
	// expires this round (full FedSU only). A round where it never runs
	// adds nothing to the traffic (no message, not even a header).
	if m.opts.Variant == VariantFull && len(checking) > 0 {
		var errSend []float64
		if contributor {
			errSend = m.scratchErrSend[:len(checking)]
			for j, i := range checking {
				errSend[j] = m.accumErr[i]
			}
		}
		aggErr, up, down, err := m.wire.Collect(ctx, sparse.AggError, m.agg, m.id, round, errSend, nil, m.scratchSend)
		if err != nil {
			return nil, sparse.Traffic{}, fmt.Errorf("fedsu: aggregate error round %d: %w", round, err)
		}
		if aggErr != nil && len(aggErr) != len(checking) {
			return nil, sparse.Traffic{}, fmt.Errorf("fedsu: error aggregate returned %d values for %d checking params", len(aggErr), len(checking))
		}
		upBytes += up
		downBytes += down
		for j, i := range checking {
			var e float64
			if aggErr != nil {
				e = aggErr[j]
			} else {
				e = m.accumErr[i]
			}
			s := m.feedbackSignal(i, e, m.slope[i])
			if s < m.opts.TS {
				// Linear pattern persists: extend the no-checking period by
				// one round and keep speculating.
				m.noCheckPeriod[i]++
				m.noCheckLeft[i] = m.noCheckPeriod[i]
				m.accumErr[i] = 0
			} else {
				// Prediction diverged: rectify with the aggregated error
				// and return the parameter to regular updating.
				out[i] = m.q(out[i] + e)
				m.revertToRegular(i)
			}
		}
	}

	// Tick down no-checking periods. Parameters that checked this round
	// were just reset (or reverted) and are skipped (next walks checking,
	// ascending like i); v1/v2 use the tick as their fixed-period exit back
	// to regular updating.
	next := 0
	for i := 0; i < m.size; i++ {
		checked := next < len(checking) && checking[next] == i
		if checked {
			next++
		}
		if m.mode[i] != modeSpeculative {
			continue
		}
		if m.opts.Variant == VariantFull {
			if !checked {
				m.noCheckLeft[i]--
			}
		} else {
			m.noCheckLeft[i]--
			if m.noCheckLeft[i] <= 0 {
				m.revertToRegular(i)
			}
		}
	}

	// Diagnosis: update the oscillation statistics of regular parameters
	// from the new global values and promote those below T_ℛ.
	m.diagnose(out, regular)

	copy(m.prevGlobal, out)
	m.seenTotal++

	nReg, nChk := len(regular), 0
	if m.opts.Variant == VariantFull {
		nChk = len(checking)
	}
	// Shipped bytes of the collective payloads: an abstaining
	// non-contributor uploads framing only, and a collective with no
	// contributors answers with a header-only downlink.
	tr := sparse.Traffic{
		UpBytes:       upBytes,
		DownBytes:     downBytes,
		SyncedParams:  nReg,
		CheckedParams: nChk,
		TotalParams:   m.size,
		FullBytes:     m.wire.FullRef(m.size),
	}
	return out, tr, nil
}

// bootstrap performs the first full synchronization.
func (m *Manager) bootstrap(ctx context.Context, round int, local []float64, contributor bool) ([]float64, sparse.Traffic, error) {
	var send []float64
	if contributor {
		send = m.scratchSend[:m.size]
		copy(send, local)
	}
	agg, up, down, err := m.wire.Collect(ctx, sparse.AggModel, m.agg, m.id, round, send, nil, m.scratchDraw)
	if err != nil {
		return nil, sparse.Traffic{}, fmt.Errorf("fedsu: bootstrap aggregate: %w", err)
	}
	out := m.scratchOut
	if agg != nil {
		copy(out, agg)
	} else {
		copy(out, local)
	}
	if m.opts.Quantize {
		for i, v := range out {
			out[i] = sparse.QuantizeWire(v)
		}
	}
	copy(m.prevGlobal, out)
	m.started = true
	m.seenTotal++
	return out, sparse.Traffic{
		UpBytes:      up,
		DownBytes:    down,
		SyncedParams: m.size,
		TotalParams:  m.size,
		FullBytes:    m.wire.FullRef(m.size),
	}, nil
}

// diagnoseGrain is the minimum number of regular parameters per parallel
// chunk in diagnose. Every EMA/promotion update touches only its own
// parameter's slots, so the chunk decomposition cannot change the
// arithmetic; the grain exists purely so models below a few thousand
// parameters run inline (keeping small-model Sync allocation-free) while
// paper-scale vectors fan the O(d) scan across the worker pool.
const diagnoseGrain = 2048

// diagnose refreshes the second-order oscillation statistics of the given
// regular parameters against the new global vector and promotes parameters
// whose ratio drops below T_ℛ (or, under v2, by lottery). The per-parameter
// scan runs on the par pool; output is bit-identical to serial execution at
// every worker count because each iteration reads and writes only slots of
// its own parameter (see TestDiagnoseParallelDeterminism).
func (m *Manager) diagnose(global []float64, regular []int) {
	// The v2 launch lottery consumes the shared rng; pre-draw serially — one
	// Float64 per regular parameter, in index order, exactly the sequence
	// the serial loop consumed — so the parallel scan stays deterministic.
	var draws []float64
	if m.opts.Variant == VariantV2 {
		draws = m.scratchDraw[:len(regular)]
		for j := range draws {
			draws[j] = m.rng.Float64()
		}
	}
	// Dispatch directly when the scan cannot fan out: ParallelizeGrain would
	// run the same single chunk inline, but building its closure costs one
	// heap allocation per round, and small-model Sync pins zero. A fanned
	// scan (paper-scale vectors on a multi-worker pool) accepts the
	// transient closure + waitgroup allocations, like the tensor kernels.
	if len(regular) <= diagnoseGrain || par.Workers() == 1 {
		m.diagnoseRange(global, regular, draws, 0, len(regular))
		return
	}
	par.ParallelizeGrain(len(regular), diagnoseGrain, func(lo, hi int) {
		m.diagnoseRange(global, regular, draws, lo, hi)
	})
}

// diagnoseRange processes regular[lo:hi]; it is the body diagnose fans out.
func (m *Manager) diagnoseRange(global []float64, regular []int, draws []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		i := regular[j]
		g := global[i] - m.prevGlobal[i]
		if m.hasLastG[i] {
			g2 := g - m.lastG[i]
			// Second differences at the float64 roundoff floor of the
			// gradient scale are measurement noise, not oscillation;
			// without the clamp a perfectly linear trajectory would show a
			// ratio made of pure rounding error.
			if math.Abs(g2) < 1e-9*math.Abs(g) {
				g2 = 0
			}
			if !m.emaSeen[i] {
				m.emaG2[i], m.emaAbsG2[i] = g2, math.Abs(g2)
				m.emaSeen[i] = true
			} else {
				th := m.opts.Theta
				m.emaG2[i] = th*m.emaG2[i] + (1-th)*g2
				m.emaAbsG2[i] = th*m.emaAbsG2[i] + (1-th)*math.Abs(g2)
			}
		}
		if !m.hasLastG[i] {
			m.emaG[i], m.emaAbsG[i] = g, math.Abs(g)
		} else {
			th := m.opts.Theta
			m.emaG[i] = th*m.emaG[i] + (1-th)*g
			m.emaAbsG[i] = th*m.emaAbsG[i] + (1-th)*math.Abs(g)
		}
		m.lastG[i] = g
		m.hasLastG[i] = true
		m.history[i]++

		promote := false
		switch m.opts.Variant {
		case VariantV2:
			promote = draws[j] < m.opts.LaunchProb
		default:
			promote = int(m.history[i]) >= m.opts.MinHistory &&
				m.emaSeen[i] &&
				m.OscillationRatio(i) < m.opts.TR &&
				g != 0
		}
		if promote {
			m.mode[i] = modeSpeculative
			if m.opts.RawSlope {
				m.slope[i] = g
			} else {
				m.slope[i] = m.emaG[i]
			}
			m.accumErr[i] = 0
			m.specRounds[i] = 0
			if m.opts.Variant == VariantFull {
				m.noCheckPeriod[i] = 1
				m.noCheckLeft[i] = 1
			} else {
				m.noCheckPeriod[i] = int32(m.opts.FixedPeriod)
				m.noCheckLeft[i] = int32(m.opts.FixedPeriod)
			}
		}
	}
}

// revertToRegular returns parameter i to regular synchronized updating,
// matching the paper's "reset the no-checking period to 0 and mask the
// parameter as unpredictable". The oscillation EMAs are kept: the
// post-reversion trajectory jump raises the ratio naturally, and a
// parameter that is again linear re-promotes without rebuilding history
// from scratch.
func (m *Manager) revertToRegular(i int) {
	m.mode[i] = modeRegular
	m.noCheckPeriod[i] = 0
	m.noCheckLeft[i] = 0
	m.accumErr[i] = 0
	m.specRounds[i] = 0
}

// q maps v to its wire image when Quantize is set (identity otherwise).
// Every value written to the sync output goes through it, so a float32
// model loads the output exactly.
func (m *Manager) q(v float64) float64 {
	if m.opts.Quantize {
		return sparse.QuantizeWire(v)
	}
	return v
}

// feedbackSignal computes 𝒮 = |Σe_r| / |g_k| (Eq. 3). Unless RawErrorNorm
// is set, the denominator is floored at the parameter's typical per-round
// movement ⟨|g|⟩θ so a stagnating parameter (slope ≈ a single noise draw)
// is judged against its movement scale rather than a near-zero divisor.
func (m *Manager) feedbackSignal(i int, accumErr, slope float64) float64 {
	denom := math.Abs(slope)
	if !m.opts.RawErrorNorm && m.emaAbsG[i] > denom {
		denom = m.emaAbsG[i]
	}
	if denom < 1e-12 {
		denom = 1e-12
	}
	return math.Abs(accumErr) / denom
}
