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

	"fedsu/internal/par"
	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
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

	// st is the live state (state.go). A pass over the parameters copies it
	// into a local once (p := m.st), loading every slice header a single
	// time instead of reloading each through m after every store.
	st State

	// Per-sync scratch, reused across rounds so a steady-state Sync
	// performs no allocation. scratchOut backs the vector returned to the
	// caller — see the ownership note on Sync. scratchSend/scratchErrSend
	// back the collective submissions, compacted to their heads; the
	// aggregator only reads them for the duration of the call (the fl.Server
	// contract), so reusing them the following round is safe. Each collective
	// also lends the transport storage to decode its result into: the model
	// collective scratchRecv, the error collective what scratchSend has left
	// behind the model submission; the model submission's wire image comes
	// back in the tail of scratchErrSend. ranks holds, per diagnoseGrain
	// boundary, how many regular and checking parameters precede it.
	scratchSend    []float64
	scratchErrSend []float64
	scratchRecv    []float64
	scratchOut     []float64
	ranks          [][2]int32
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
		scratchSend:    make([]float64, size),
		scratchErrSend: make([]float64, size),
		scratchRecv:    make([]float64, size),
		scratchOut:     make([]float64, size),
		ranks:          make([][2]int32, (size+diagnoseGrain-1)/diagnoseGrain),
	}
	sparse.MakeFields(&m.st, size)
	for i := range m.st.Mode {
		m.st.Mode[i] = modeRegular
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
	for i, md := range m.st.Mode {
		mask[i] = md == modeSpeculative
	}
	return mask
}

// PredictableCount returns how many parameters are currently speculative.
func (m *Manager) PredictableCount() int {
	n := 0
	for _, md := range m.st.Mode {
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
	if !m.st.EmaSeen[i] {
		return 1
	}
	if m.st.EmaAbsG2[i] == 0 {
		return 0
	}
	return math.Abs(m.st.EmaG2[i]) / m.st.EmaAbsG2[i]
}

// LinearFractions returns, per parameter, the fraction of observed rounds
// spent in speculative (diagnosed-as-linear) mode — the quantity whose CDF
// the paper plots in Fig. 7.
func (m *Manager) LinearFractions() []float64 {
	out := make([]float64, m.size)
	if m.st.SeenTotal == 0 {
		return out
	}
	for i := range out {
		out[i] = float64(m.st.SpecTotal[i]) / float64(m.st.SeenTotal)
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
//
// A round is two passes around its two collectives. stage reads the state
// and builds both submissions; the collectives run; commit then moves every
// parameter's state, once, in index order. Nothing the manager remembers
// changes before both collectives have returned, so a round that fails in
// either one can be retried as if it had never been tried.
func (m *Manager) SyncCtx(ctx context.Context, round int, local []float64, contributor bool) ([]float64, sparse.Traffic, error) {
	if len(local) != m.size {
		return nil, sparse.Traffic{}, fmt.Errorf("fedsu: vector length %d, want %d", len(local), m.size)
	}
	if !m.st.Started {
		// Bootstrap round: full synchronization to establish the first
		// global snapshot every later diagnosis derives from.
		return m.bootstrap(ctx, round, local, contributor)
	}

	// Under a lossy chain the model collective runs in the delta domain:
	// clients ship local − prevGlobal and add the reference back after
	// aggregation. prevGlobal is identical on every client (it is the
	// post-sync global), so the averaged delta plus the reference equals the
	// averaged values — but the chain's quantization grids then span the
	// per-round update range instead of the absolute weight range, which is
	// what keeps a 4-bit cell trainable. The default wire stays in the value
	// domain, bit-identical to every pre-chain run.
	delta := m.wire.Enabled()
	if delta && m.st.WireErr == nil {
		m.st.WireErr = make([]float64, m.size)
	}
	nReg, nChk := m.stage(local, contributor, delta)

	// Collective 1: the regular parameters' values. The submission's wire
	// image comes back in the tail of scratchErrSend; the error submission
	// sits at its head and nReg + nChk ≤ size, so the two never meet.
	var send, img, errSend []float64
	if contributor {
		send, errSend = m.scratchSend[:nReg], m.scratchErrSend[:nChk]
		if delta {
			img = m.scratchErrSend[m.size-nReg:]
		}
	}
	aggModel, upBytes, downBytes, err := m.wire.Collect(ctx, sparse.AggModel, m.agg, m.id, round, send, img, m.scratchRecv)
	if err != nil {
		return nil, sparse.Traffic{}, fmt.Errorf("fedsu: aggregate model round %d: %w", round, err)
	}
	if aggModel != nil && len(aggModel) != nReg {
		return nil, sparse.Traffic{}, fmt.Errorf("fedsu: model aggregate returned %d values for %d regular params", len(aggModel), nReg)
	}

	// Collective 2: error feedback for parameters whose no-checking period
	// expires this round (full FedSU only). A round where it never runs
	// adds nothing to the traffic (no message, not even a header). Its
	// result may land behind the model submission, which is spent.
	var aggErr []float64
	if nChk > 0 {
		var up, down int
		aggErr, up, down, err = m.wire.Collect(ctx, sparse.AggError, m.agg, m.id, round, errSend, nil, m.scratchSend[nReg:])
		if err != nil {
			return nil, sparse.Traffic{}, fmt.Errorf("fedsu: aggregate error round %d: %w", round, err)
		}
		if aggErr != nil && len(aggErr) != nChk {
			return nil, sparse.Traffic{}, fmt.Errorf("fedsu: error aggregate returned %d values for %d checking params", len(aggErr), nChk)
		}
		upBytes += up
		downBytes += down
	}

	// Every parameter's step touches only its own slots, so the commit fans
	// out across the worker pool in grain-aligned chunks, each starting from
	// the ranks stage recorded; output is bit-identical at every worker count
	// (TestDiagnoseParallelDeterminism). Dispatch directly when it cannot
	// fan out: ParallelizeGrain would run the same single chunk inline, but
	// building its closure costs one heap allocation per round, and
	// small-model Sync pins zero.
	if m.size <= diagnoseGrain || par.Workers() == 1 {
		m.commit(round, local, aggModel, aggErr, img, 0, m.size)
	} else {
		par.ParallelizeGrain(m.size, diagnoseGrain, func(lo, hi int) {
			m.commit(round, local, aggModel, aggErr, img, lo, hi)
		})
	}
	m.st.SeenTotal++

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
	return m.scratchOut, tr, nil
}

// diagnoseGrain is the number of parameters per chunk of a round's commit,
// and so the spacing of the ranks stage records. Every parameter's update
// touches only its own slots, so the chunk decomposition cannot change the
// arithmetic; the grain exists purely so models below a few thousand
// parameters run inline (keeping small-model Sync allocation-free) while
// paper-scale vectors fan the O(d) scan across the worker pool.
const diagnoseGrain = 2048

// stage is a round's read-only pass: it partitions the parameters into
// regular (synchronized), speculative (predicted) and — full FedSU only —
// speculative with an expiring no-checking period, and fills a contributor's
// two submissions, compacted in index order: the regular parameters' values
// (local − prevGlobal plus the carried residual under a lossy chain) into
// scratchSend, and for every checking parameter the accumulated error this
// round's commit will leave, Σe_r + (local − predicted), into
// scratchErrSend. It returns both counts, having recorded them as they stood
// at each diagnoseGrain boundary.
func (m *Manager) stage(local []float64, contributor, delta bool) (nReg, nChk int) {
	p := m.st
	send, errSend := m.scratchSend, m.scratchErrSend
	full, quantize := m.opts.Variant == VariantFull, m.opts.Quantize
	for b0 := 0; b0 < m.size; b0 += diagnoseGrain {
		m.ranks[b0/diagnoseGrain] = [2]int32{int32(nReg), int32(nChk)}
		for i := b0; i < min(b0+diagnoseGrain, m.size); i++ {
			switch {
			case p.Mode[i] == modeRegular:
				if contributor {
					v := local[i]
					if delta {
						v = v - p.PrevGlobal[i] + p.WireErr[i]
					}
					send[nReg] = v
				}
				nReg++
			case full && p.NoCheckLeft[i] <= 1:
				if contributor {
					errSend[nChk] = p.AccumErr[i] + (local[i] - wireImage(quantize, p.PrevGlobal[i]+p.Slope[i]))
				}
				nChk++
			}
		}
	}
	return nReg, nChk
}

// commit is a round's writing pass over parameters [lo, hi), lo a multiple
// of diagnoseGrain. A regular parameter takes the aggregated global value
// (reference plus aggregated delta under a lossy chain), carries what the
// chain lost of its submission into the next round, and is diagnosed: its
// oscillation statistics move to the new global value and it is promoted
// when the ratio drops below T_ℛ (or, under v2, by lottery). A speculative
// parameter is refined by the predicted per-round update (masked
// replacement) while its local prediction error accumulates; when its
// no-checking period expires the aggregated error either extends the period
// or rectifies the value and returns the parameter to regular updating; v1
// and v2 leave after their fixed period instead. A parameter promoted or
// reverted this round is next looked at in its new mode next round.
func (m *Manager) commit(round int, local, aggModel, aggErr, img []float64, lo, hi int) {
	o, p := m.opts, m.st
	full, quantize, th := o.Variant == VariantFull, o.Quantize, o.Theta
	delta := m.wire.Enabled()
	out, prev, send := m.scratchOut, p.PrevGlobal, m.scratchSend
	j, c := int(m.ranks[lo/diagnoseGrain][0]), int(m.ranks[lo/diagnoseGrain][1])
	for i := lo; i < hi; i++ {
		if p.Mode[i] != modeRegular {
			// Under Quantize the prediction itself is snapped to the wire
			// image, so the value the client stores (and trains from next
			// round) is exactly the value the manager accounted for.
			x := wireImage(quantize, prev[i]+p.Slope[i])
			// e_r = g̃_r − g_k, with the local update standing in for the
			// true gradient until aggregation.
			acc := p.AccumErr[i] + (local[i] - x)
			p.SpecRounds[i]++
			p.SpecTotal[i]++
			switch {
			case full && p.NoCheckLeft[i] <= 1:
				e := acc
				if aggErr != nil {
					e = aggErr[c]
				}
				c++
				if m.feedbackSignal(i, e, p.Slope[i]) < o.TS {
					// Linear pattern persists: extend the no-checking period
					// by one round and keep speculating.
					p.NoCheckPeriod[i]++
					p.NoCheckLeft[i] = p.NoCheckPeriod[i]
					acc = 0
				} else {
					// Prediction diverged: rectify with the aggregated error
					// and return the parameter to regular updating.
					x = wireImage(quantize, x+e)
					acc = 0
					m.revertToRegular(i)
				}
			case full:
				p.NoCheckLeft[i]--
			case p.NoCheckLeft[i] <= 1:
				// v1/v2 leave when their fixed period has run.
				acc = 0
				m.revertToRegular(i)
			default:
				p.NoCheckLeft[i]--
			}
			p.AccumErr[i] = acc
			out[i], prev[i] = x, x
			continue
		}

		var x float64
		switch {
		case aggModel == nil:
			x = wireImage(quantize, local[i])
		case delta:
			x = wireImage(quantize, prev[i]+aggModel[j])
		default:
			x = wireImage(quantize, aggModel[j])
		}
		if img != nil {
			// Error feedback: img is what the transport's one encode of the
			// submission decodes to, on either transport.
			p.WireErr[i] = send[j] - img[j]
		}
		j++

		g := x - prev[i]
		ag := math.Abs(g)
		seen := p.EmaSeen[i]
		if !p.HasLastG[i] {
			p.EmaG[i], p.EmaAbsG[i] = g, ag
			p.HasLastG[i] = true
		} else {
			g2 := g - p.LastG[i]
			// Second differences at the float64 roundoff floor of the
			// gradient scale are measurement noise, not oscillation;
			// without the clamp a perfectly linear trajectory would show a
			// ratio made of pure rounding error.
			if math.Abs(g2) < 1e-9*ag {
				g2 = 0
			}
			if !seen {
				p.EmaG2[i], p.EmaAbsG2[i] = g2, math.Abs(g2)
				p.EmaSeen[i], seen = true, true
			} else {
				p.EmaG2[i] = th*p.EmaG2[i] + (1-th)*g2
				p.EmaAbsG2[i] = th*p.EmaAbsG2[i] + (1-th)*math.Abs(g2)
			}
			p.EmaG[i] = th*p.EmaG[i] + (1-th)*g
			p.EmaAbsG[i] = th*p.EmaAbsG[i] + (1-th)*ag
		}
		p.LastG[i] = g
		p.History[i]++
		out[i], prev[i] = x, x

		var promote bool
		if o.Variant == VariantV2 {
			promote = launchDraw(o.Seed, round, i) < o.LaunchProb
		} else {
			// ℛ < T_ℛ; a zero denominator is a perfectly linear trajectory
			// (see OscillationRatio).
			promote = int(p.History[i]) >= o.MinHistory && seen && g != 0 &&
				(p.EmaAbsG2[i] == 0 || math.Abs(p.EmaG2[i])/p.EmaAbsG2[i] < o.TR)
		}
		if promote {
			period := int32(1)
			if !full {
				period = int32(o.FixedPeriod)
			}
			p.Mode[i] = modeSpeculative
			p.Slope[i] = p.EmaG[i]
			if o.RawSlope {
				p.Slope[i] = g
			}
			p.AccumErr[i], p.SpecRounds[i] = 0, 0
			p.NoCheckPeriod[i], p.NoCheckLeft[i] = period, period
		}
	}
}

// bootstrap performs the first full synchronization.
func (m *Manager) bootstrap(ctx context.Context, round int, local []float64, contributor bool) ([]float64, sparse.Traffic, error) {
	var send []float64
	if contributor {
		send = m.scratchSend[:m.size]
		copy(send, local)
	}
	agg, up, down, err := m.wire.Collect(ctx, sparse.AggModel, m.agg, m.id, round, send, nil, m.scratchRecv)
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
	copy(m.st.PrevGlobal, out)
	m.st.Started = true
	m.st.SeenTotal++
	return out, sparse.Traffic{
		UpBytes:      up,
		DownBytes:    down,
		SyncedParams: m.size,
		TotalParams:  m.size,
		FullBytes:    m.wire.FullRef(m.size),
	}, nil
}

// revertToRegular returns parameter i to regular synchronized updating,
// matching the paper's "reset the no-checking period to 0 and mask the
// parameter as unpredictable". The oscillation EMAs are kept: the
// post-reversion trajectory jump raises the ratio naturally, and a
// parameter that is again linear re-promotes without rebuilding history
// from scratch.
func (m *Manager) revertToRegular(i int) {
	m.st.Mode[i] = modeRegular
	m.st.NoCheckPeriod[i] = 0
	m.st.NoCheckLeft[i] = 0
	m.st.AccumErr[i] = 0
	m.st.SpecRounds[i] = 0
}

// wireImage maps v to its wire image under Options.Quantize (identity
// otherwise). Every value written to the sync output goes through it, so a
// float32 model loads the output exactly.
func wireImage(quantize bool, v float64) float64 {
	if quantize {
		return sparse.QuantizeWire(v)
	}
	return v
}

// launchDraw is v2's launch lottery: a uniform [0,1) draw that is a pure
// function of (seed, round, parameter) — the construction the chain
// quantizer's rounding uses — so every client of a round draws the same
// value for a parameter whenever it joined, restored or resumed, on any
// worker count.
func launchDraw(seed int64, round, i int) float64 {
	x := codec.Mix64(uint64(seed) + codec.Mix64(uint64(round)+codec.Mix64(uint64(i))))
	return float64(x>>11) / (1 << 53)
}

// feedbackSignal computes 𝒮 = |Σe_r| / |g_k| (Eq. 3). Unless RawErrorNorm
// is set, the denominator is floored at the parameter's typical per-round
// movement ⟨|g|⟩θ so a stagnating parameter (slope ≈ a single noise draw)
// is judged against its movement scale rather than a near-zero divisor.
func (m *Manager) feedbackSignal(i int, accumErr, slope float64) float64 {
	denom := math.Abs(slope)
	if !m.opts.RawErrorNorm && m.st.EmaAbsG[i] > denom {
		denom = m.st.EmaAbsG[i]
	}
	if denom < 1e-12 {
		denom = 1e-12
	}
	return math.Abs(accumErr) / denom
}
