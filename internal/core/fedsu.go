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
	"math/bits"
	"sync"

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
	// performs no allocation. scratchSend/scratchErrSend back the collective
	// submissions, compacted to their heads; the aggregator only reads them
	// for the duration of the call (the fl.Server contract), so reusing them
	// the following round is safe. Each collective
	// also lends the transport storage to decode its result into: the model
	// collective scratchRecv, the error collective what scratchSend has left
	// behind the model submission; the model submission's wire image comes
	// back in the tail of scratchErrSend. ranks holds, per diagnoseGrain
	// boundary, how many regular and checking parameters precede it.
	scratchSend    []float64
	scratchErrSend []float64
	scratchRecv    []float64
	ranks          [][2]int32

	// regBits and chkBits are stage's partition of the round, one bit per
	// parameter in words of 64: regular, and checking (speculative with an
	// expiring no-checking period). They are derived from Mode and
	// NoCheckLeft every round, so they are not state.
	regBits, chkBits []uint64

	// The error collective's call: SyncCtx fills errLeg and, when the
	// aggregator takes both legs at once (together), launches sibling —
	// m.runErrLeg, bound once, so the launch allocates nothing — beside the
	// model collective and joins it on legs before reading errLeg back.
	// Otherwise it calls collectErr itself after the model collective.
	errLeg   legCall
	together bool
	sibling  func()
	legs     sync.WaitGroup
}

// legCall is one collective call's arguments and results, handed to the
// goroutine that runs it.
type legCall struct {
	ctx       context.Context
	round     int
	send, dst []float64
	res       []float64
	up, down  int
	err       error
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
		ranks:          make([][2]int32, (size+diagnoseGrain-1)/diagnoseGrain),
		regBits:        make([]uint64, (size+63)/64),
		chkBits:        make([]uint64, (size+63)/64),
	}
	m.together, m.sibling = sparse.ConcurrentLegs(agg), m.runErrLeg
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
// The returned vector is the manager's state, the post-sync global
// (State.PrevGlobal): it is read-only, and valid until the next Sync/SyncCtx
// call on the same Manager, which updates it in place. Callers that keep
// per-round outputs across rounds must copy.
func (m *Manager) Sync(round int, local []float64, contributor bool) ([]float64, sparse.Traffic, error) {
	return m.SyncCtx(context.Background(), round, local, contributor)
}

// SyncCtx implements sparse.ContextSyncer: the collectives honour ctx
// cancellation when the aggregator supports it. The returned vector is the
// manager's state — see Sync.
//
// A round is two passes around its two collectives. stage reads the state
// and builds both submissions; the collectives run — at once, the error
// collective on a goroutine of its own, when the aggregator takes both legs
// together (sparse.LegAggregator), else one after the other; commit then
// moves every parameter's state, once. Nothing the manager remembers
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

	// The model collective carries the regular parameters' values, and its
	// submission's wire image comes back in the tail of scratchErrSend. The
	// error collective carries, from the head of scratchErrSend, the
	// accumulated error of every parameter whose no-checking period expires
	// this round (full FedSU only), and its result lands in scratchSend
	// behind the model submission. nReg + nChk ≤ size, so none of these
	// meet. A round without checks runs no error collective and adds nothing
	// to the traffic (no message, not even a header).
	var send, img, errSend []float64
	if contributor {
		send, errSend = m.scratchSend[:nReg], m.scratchErrSend[:nChk]
		if delta {
			img = m.scratchErrSend[m.size-nReg:]
		}
	}
	m.errLeg = legCall{ctx: ctx, round: round, send: errSend, dst: m.scratchSend[nReg:]}
	if nChk > 0 && m.together {
		m.legs.Add(1)
		go m.sibling()
	}
	aggModel, upBytes, downBytes, err := m.wire.Collect(ctx, sparse.ModelLeg, m.agg, m.id, round, send, img, m.scratchRecv)
	if nChk > 0 && !m.together && err == nil {
		m.collectErr()
	}
	m.legs.Wait()
	el := m.errLeg
	m.errLeg = legCall{}
	// When both legs fail, the model leg's error is the one reported.
	if err != nil {
		return nil, sparse.Traffic{}, fmt.Errorf("fedsu: aggregate model round %d: %w", round, err)
	}
	if el.err != nil {
		return nil, sparse.Traffic{}, fmt.Errorf("fedsu: aggregate error round %d: %w", round, el.err)
	}
	if aggModel != nil && len(aggModel) != nReg {
		return nil, sparse.Traffic{}, fmt.Errorf("fedsu: model aggregate returned %d values for %d regular params", len(aggModel), nReg)
	}
	aggErr := el.res
	if aggErr != nil && len(aggErr) != nChk {
		return nil, sparse.Traffic{}, fmt.Errorf("fedsu: error aggregate returned %d values for %d checking params", len(aggErr), nChk)
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
		UpBytes:       upBytes + el.up,
		DownBytes:     downBytes + el.down,
		SyncedParams:  nReg,
		CheckedParams: nChk,
		TotalParams:   m.size,
		FullBytes:     m.wire.FullRef(m.size),
	}
	return m.st.PrevGlobal, tr, nil
}

// runErrLeg is the goroutine SyncCtx launches for the error collective.
func (m *Manager) runErrLeg() {
	defer m.legs.Done()
	m.collectErr()
}

// collectErr runs the error collective SyncCtx put in errLeg.
func (m *Manager) collectErr() {
	l := &m.errLeg
	l.res, l.up, l.down, l.err = m.wire.Collect(l.ctx, sparse.ErrorLeg, m.agg, m.id, l.round, l.send, nil, l.dst)
}

// diagnoseGrain is the number of parameters per chunk of a round's commit,
// and so the spacing of the ranks stage records. Every parameter's update
// touches only its own slots, so the chunk decomposition cannot change the
// arithmetic; the grain exists purely so models below a few thousand
// parameters run inline (keeping small-model Sync allocation-free) while
// paper-scale vectors fan the O(d) scan across the worker pool. It is a
// multiple of 64, so no word of stage's bitmaps straddles two chunks.
const diagnoseGrain = 2048

// stage is a round's read-only pass: it partitions the parameters into
// regular (synchronized), speculative (predicted) and — full FedSU only —
// checking (speculative with an expiring no-checking period), records the
// regular and the checking set in regBits and chkBits, and fills a
// contributor's two submissions, compacted in index order: the regular
// parameters' values (local − prevGlobal plus the carried residual under a
// lossy chain) into scratchSend, and for every checking parameter the
// accumulated error this round's commit will leave, Σe_r + (local −
// predicted), into scratchErrSend. It returns both counts, having recorded
// them as they stood at each diagnoseGrain boundary.
func (m *Manager) stage(local []float64, contributor, delta bool) (nReg, nChk int) {
	p := m.st
	send, errSend := m.scratchSend, m.scratchErrSend
	full := m.opts.Variant == VariantFull
	for w := range m.regBits {
		b := 64 * w
		if b%diagnoseGrain == 0 {
			m.ranks[b/diagnoseGrain] = [2]int32{int32(nReg), int32(nChk)}
		}
		n := min(64, m.size-b)
		mode, left := p.Mode[b:b+n], p.NoCheckLeft[b:b+n]
		var reg, expiring uint64
		for k := range mode {
			reg |= bit(mode[k] == modeRegular) << k
			expiring |= bit(left[k] <= 1) << k
		}
		var chk uint64
		if full {
			chk = expiring &^ reg
		}
		m.regBits[w], m.chkBits[w] = reg, chk

		if contributor {
			loc, prev := local[b:b+n], p.PrevGlobal[b:b+n]
			j := nReg
			for x := reg; x != 0; x &= x - 1 {
				k := bits.TrailingZeros64(x)
				v := loc[k]
				if delta {
					v = v - prev[k] + p.WireErr[b+k]
				}
				send[j] = v
				j++
			}
			c := nChk
			for x := chk; x != 0; x &= x - 1 {
				k := bits.TrailingZeros64(x)
				errSend[c] = p.AccumErr[b+k] + (loc[k] - (prev[k] + p.Slope[b+k]))
				c++
			}
		}
		nReg += bits.OnesCount64(reg)
		nChk += bits.OnesCount64(chk)
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
//
// The pass walks stage's bitmaps a word at a time, the word's regular and
// then its speculative parameters, each set in index order over views of
// the state re-sliced to the word. The regular and the checking parameters
// keep their own ranks into their collectives' results, so every parameter
// takes the step a single index-order loop would give it.
func (m *Manager) commit(round int, local, aggModel, aggErr, img []float64, lo, hi int) {
	o, p := m.opts, m.st
	full, th := o.Variant == VariantFull, o.Theta
	rt := newRatioTest(o.TR)
	delta := m.wire.Enabled()
	send := m.scratchSend
	j, c := int(m.ranks[lo/diagnoseGrain][0]), int(m.ranks[lo/diagnoseGrain][1])
	for b := lo; b < hi; b += 64 {
		n := min(64, hi-b)
		reg, chk := m.regBits[b/64], m.chkBits[b/64]
		loc, prev := local[b:b+n], p.PrevGlobal[b:b+n]
		slope, accum := p.Slope[b:b+n], p.AccumErr[b:b+n]
		specRounds, specTotal := p.SpecRounds[b:b+n], p.SpecTotal[b:b+n]
		period, left := p.NoCheckPeriod[b:b+n], p.NoCheckLeft[b:b+n]
		lastG, hasLastG, history := p.LastG[b:b+n], p.HasLastG[b:b+n], p.History[b:b+n]
		emaG, emaAbsG := p.EmaG[b:b+n], p.EmaAbsG[b:b+n]
		emaG2, emaAbsG2, emaSeen := p.EmaG2[b:b+n], p.EmaAbsG2[b:b+n], p.EmaSeen[b:b+n]
		mode := p.Mode[b : b+n]

		for x := reg; x != 0; x &= x - 1 {
			k := bits.TrailingZeros64(x)
			var v float64
			switch {
			case aggModel == nil:
				v = loc[k]
			case delta:
				v = prev[k] + aggModel[j]
			default:
				v = aggModel[j]
			}
			if img != nil {
				// Error feedback: img is what the transport's one encode of
				// the submission decodes to, on either transport.
				p.WireErr[b+k] = send[j] - img[j]
			}
			j++

			g := v - prev[k]
			ag := math.Abs(g)
			seen := emaSeen[k]
			if !hasLastG[k] {
				emaG[k], emaAbsG[k] = g, ag
				hasLastG[k] = true
			} else {
				g2 := g - lastG[k]
				// Second differences at the float64 roundoff floor of the
				// gradient scale are measurement noise, not oscillation;
				// without the clamp a perfectly linear trajectory would show a
				// ratio made of pure rounding error.
				if math.Abs(g2) < 1e-9*ag {
					g2 = 0
				}
				if !seen {
					emaG2[k], emaAbsG2[k] = g2, math.Abs(g2)
					emaSeen[k], seen = true, true
				} else {
					emaG2[k] = th*emaG2[k] + (1-th)*g2
					emaAbsG2[k] = th*emaAbsG2[k] + (1-th)*math.Abs(g2)
				}
				emaG[k] = th*emaG[k] + (1-th)*g
				emaAbsG[k] = th*emaAbsG[k] + (1-th)*ag
			}
			lastG[k] = g
			history[k]++
			prev[k] = v

			var promote bool
			if o.Variant == VariantV2 {
				promote = launchDraw(o.Seed, round, b+k) < o.LaunchProb
			} else {
				// ℛ < T_ℛ; a zero denominator is a perfectly linear trajectory
				// (see OscillationRatio).
				promote = int(history[k]) >= o.MinHistory && seen && g != 0 &&
					rt.below(math.Abs(emaG2[k]), emaAbsG2[k])
			}
			if promote {
				per := int32(1)
				if !full {
					per = int32(o.FixedPeriod)
				}
				mode[k] = modeSpeculative
				slope[k] = emaG[k]
				if o.RawSlope {
					slope[k] = g
				}
				accum[k], specRounds[k] = 0, 0
				period[k], left[k] = per, per
			}
		}

		// A speculative parameter's value is the prediction, so the value the
		// client stores (and trains from next round) is exactly the value the
		// manager accounted for. e_r = g̃_r − g_k, with the local update
		// standing in for the true gradient until aggregation.
		for x := ^reg & (^uint64(0) >> (64 - n)); x != 0; x &= x - 1 {
			k := bits.TrailingZeros64(x)
			v := prev[k] + slope[k]
			acc := accum[k] + (loc[k] - v)
			specRounds[k]++
			specTotal[k]++
			switch {
			case chk>>k&1 != 0:
				e := acc
				if aggErr != nil {
					e = aggErr[c]
				}
				c++
				if m.feedbackSignal(b+k, e, slope[k]) < o.TS {
					// Linear pattern persists: extend the no-checking period
					// by one round and keep speculating.
					period[k]++
					left[k] = period[k]
				} else {
					// Prediction diverged: rectify with the aggregated error
					// and return the parameter to regular updating.
					v += e
					m.revertToRegular(b + k)
				}
				acc = 0
			case full:
				left[k]--
			case left[k] <= 1:
				// v1/v2 leave when their fixed period has run.
				acc = 0
				m.revertToRegular(b + k)
			default:
				left[k]--
			}
			accum[k] = acc
			prev[k] = v
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
	agg, up, down, err := m.wire.Collect(ctx, sparse.ModelLeg, m.agg, m.id, round, send, nil, m.scratchRecv)
	if err != nil {
		return nil, sparse.Traffic{}, fmt.Errorf("fedsu: bootstrap aggregate: %w", err)
	}
	out := m.st.PrevGlobal
	if agg != nil {
		copy(out, agg)
	} else {
		copy(out, local)
	}
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

// bit is b as 0 or 1; the compiler makes it a flag move, not a branch.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
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

// ratioTest is the promotion test ℛ < T_ℛ, ℛ = a/d with a = |⟨g′⟩θ| and
// d = ⟨|g′|⟩θ (d = 0 passes: see OscillationRatio), decided without
// dividing where it can be. Outside a relative band of ratioBand around
// the threshold, a < T_ℛ·d decides: the band is far wider than the
// rounding of the product and of the division it stands in for, so the
// product cannot disagree with the division there. Inside the band, and
// whenever the products are not normal finite numbers (a zero, subnormal,
// infinite or NaN operand), it divides. Either way the answer is the
// division's, bit for bit (FuzzRatioTest).
type ratioTest struct{ t, lo, hi float64 }

const ratioBand = 0x1p-40

func newRatioTest(t float64) ratioTest {
	r := ratioTest{t: t, lo: t * (1 - ratioBand), hi: t * (1 + ratioBand)}
	if !(r.lo >= 0x1p-1022 && r.hi <= math.MaxFloat64) {
		r.lo = math.NaN() // no band fits around this threshold: always divide
	}
	return r
}

// below reports d == 0 || a/d < t.
func (r ratioTest) below(a, d float64) bool {
	if lo, hi := r.lo*d, r.hi*d; lo >= 0x1p-1022 && hi <= math.MaxFloat64 {
		if a < lo {
			return true
		}
		if a > hi {
			return false
		}
	}
	return d == 0 || a/d < r.t
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
