package core

import (
	"context"
	"fmt"
	"math"

	"fedsu/internal/sparse"
)

// The multi-loop Sync as it stood before the round became two passes around
// its collectives: partition into index lists, gather, model collective,
// residual, scatter, a speculative loop, the error collective and its checks,
// a tick loop, a diagnose walk over the regular list, copy(prevGlobal, out).
// Kept as the reference the two-pass code is held to bit for bit on both
// wires (TestTwoPassMatchesMultiLoop); it allocates what it needs, and it
// moves state as it goes — which is why a failed error collective left a
// round half-applied (TestFailedCollectiveDoesNotAdvanceResidual). One
// deliberate difference: the v2 lottery is launchDraw (the retired rand.Rand
// stream was the joiner bug).

func (m *Manager) refSync(round int, local []float64, contributor bool) ([]float64, sparse.Traffic, error) {
	ctx := context.Background()
	if len(local) != m.size {
		return nil, sparse.Traffic{}, fmt.Errorf("fedsu: vector length %d, want %d", len(local), m.size)
	}
	if !m.st.Started {
		out, tr, err := m.bootstrap(ctx, round, local, contributor)
		return append([]float64(nil), out...), tr, err
	}

	// Partition parameters: regular (synchronized), speculative
	// (predicted), and speculative-with-expiring-check (error aggregated).
	// The index slices never outgrow their construction-time capacity
	// (both are bounded by m.size), so the appends below cannot
	// reallocate.
	regular := []int(nil)
	checking := []int(nil)
	for i := 0; i < m.size; i++ {
		switch m.st.Mode[i] {
		case modeRegular:
			regular = append(regular, i)
		case modeSpeculative:
			if m.st.NoCheckLeft[i] <= 1 {
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
	if delta && m.st.WireErr == nil {
		m.st.WireErr = make([]float64, m.size)
	}
	var send, img []float64
	if contributor {
		send = make([]float64, len(regular))
		for j, i := range regular {
			if delta {
				send[j] = local[i] - m.st.PrevGlobal[i] + m.st.WireErr[i]
			} else {
				send[j] = local[i]
			}
		}
	}
	if delta && send != nil {
		// The submission's wire image comes back in the error collective's
		// send scratch, which is idle until that collective is built below.
		img = make([]float64, len(send))
	}
	aggModel, upBytes, downBytes, err := m.wire.Collect(ctx, sparse.ModelLeg, m.agg, m.id, round, send, img, nil)
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
			m.st.WireErr[i] = send[j] - img[j]
		}
	}

	out := make([]float64, m.size)

	// Regular parameters take the aggregated global value (reference plus
	// aggregated delta under a lossy chain).
	for j, i := range regular {
		switch {
		case aggModel == nil:
			out[i] = local[i]
		case delta:
			out[i] = m.st.PrevGlobal[i] + aggModel[j]
		default:
			out[i] = aggModel[j]
		}
	}

	// Speculative parameters are refined by the predicted per-round update
	// (masked replacement), and their local prediction error accumulates.
	for i := 0; i < m.size; i++ {
		if m.st.Mode[i] != modeSpeculative {
			continue
		}
		predicted := m.st.PrevGlobal[i] + m.st.Slope[i]
		out[i] = predicted
		// e_r = g̃_r − g_k, with the local update standing in for the true
		// gradient until aggregation.
		m.st.AccumErr[i] += local[i] - predicted
		m.st.SpecRounds[i]++
		m.st.SpecTotal[i]++
	}

	// Collective 2: error feedback for parameters whose no-checking period
	// expires this round (full FedSU only). A round where it never runs
	// adds nothing to the traffic (no message, not even a header).
	if m.opts.Variant == VariantFull && len(checking) > 0 {
		var errSend []float64
		if contributor {
			errSend = make([]float64, len(checking))
			for j, i := range checking {
				errSend[j] = m.st.AccumErr[i]
			}
		}
		aggErr, up, down, err := m.wire.Collect(ctx, sparse.ErrorLeg, m.agg, m.id, round, errSend, nil, nil)
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
				e = m.st.AccumErr[i]
			}
			s := m.feedbackSignal(i, e, m.st.Slope[i])
			if s < m.opts.TS {
				// Linear pattern persists: extend the no-checking period by
				// one round and keep speculating.
				m.st.NoCheckPeriod[i]++
				m.st.NoCheckLeft[i] = m.st.NoCheckPeriod[i]
				m.st.AccumErr[i] = 0
			} else {
				// Prediction diverged: rectify with the aggregated error
				// and return the parameter to regular updating.
				out[i] += e
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
		if m.st.Mode[i] != modeSpeculative {
			continue
		}
		if m.opts.Variant == VariantFull {
			if !checked {
				m.st.NoCheckLeft[i]--
			}
		} else {
			m.st.NoCheckLeft[i]--
			if m.st.NoCheckLeft[i] <= 0 {
				m.revertToRegular(i)
			}
		}
	}

	// Diagnosis: update the oscillation statistics of regular parameters
	// from the new global values and promote those below T_ℛ.
	m.refDiagnoseRange(round, out, regular)

	copy(m.st.PrevGlobal, out)
	m.st.SeenTotal++

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

// refDiagnoseRange is the retired diagnose walk over the regular list.
func (m *Manager) refDiagnoseRange(round int, global []float64, regular []int) {
	for _, i := range regular {
		g := global[i] - m.st.PrevGlobal[i]
		if m.st.HasLastG[i] {
			g2 := g - m.st.LastG[i]
			// Second differences at the float64 roundoff floor of the
			// gradient scale are measurement noise, not oscillation;
			// without the clamp a perfectly linear trajectory would show a
			// ratio made of pure rounding error.
			if math.Abs(g2) < 1e-9*math.Abs(g) {
				g2 = 0
			}
			if !m.st.EmaSeen[i] {
				m.st.EmaG2[i], m.st.EmaAbsG2[i] = g2, math.Abs(g2)
				m.st.EmaSeen[i] = true
			} else {
				th := m.opts.Theta
				m.st.EmaG2[i] = th*m.st.EmaG2[i] + (1-th)*g2
				m.st.EmaAbsG2[i] = th*m.st.EmaAbsG2[i] + (1-th)*math.Abs(g2)
			}
		}
		if !m.st.HasLastG[i] {
			m.st.EmaG[i], m.st.EmaAbsG[i] = g, math.Abs(g)
		} else {
			th := m.opts.Theta
			m.st.EmaG[i] = th*m.st.EmaG[i] + (1-th)*g
			m.st.EmaAbsG[i] = th*m.st.EmaAbsG[i] + (1-th)*math.Abs(g)
		}
		m.st.LastG[i] = g
		m.st.HasLastG[i] = true
		m.st.History[i]++

		promote := false
		switch m.opts.Variant {
		case VariantV2:
			promote = launchDraw(m.opts.Seed, round, i) < m.opts.LaunchProb
		default:
			promote = int(m.st.History[i]) >= m.opts.MinHistory &&
				m.st.EmaSeen[i] &&
				m.OscillationRatio(i) < m.opts.TR &&
				g != 0
		}
		if promote {
			m.st.Mode[i] = modeSpeculative
			if m.opts.RawSlope {
				m.st.Slope[i] = g
			} else {
				m.st.Slope[i] = m.st.EmaG[i]
			}
			m.st.AccumErr[i] = 0
			m.st.SpecRounds[i] = 0
			if m.opts.Variant == VariantFull {
				m.st.NoCheckPeriod[i] = 1
				m.st.NoCheckLeft[i] = 1
			} else {
				m.st.NoCheckPeriod[i] = int32(m.opts.FixedPeriod)
				m.st.NoCheckLeft[i] = int32(m.opts.FixedPeriod)
			}
		}
	}
}
