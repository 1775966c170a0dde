package sparse

import (
	"context"
	"fmt"
	"math"
)

// Unwrapper is implemented by syncer middleware (EventTrigger) to expose
// the strategy underneath. The state seam (AppendState, DecodeState) walks
// every layer through it; engine code that probes for a concrete strategy
// (predictability accounting) resolves wrappers through UnwrapSyncer first.
type Unwrapper interface {
	Unwrap() Syncer
}

// UnwrapSyncer peels syncer middleware until it reaches the underlying
// strategy.
func UnwrapSyncer(s Syncer) Syncer {
	for u := unwrap(s); u != nil; u = unwrap(s) {
		s = u
	}
	return s
}

// unwrap is the layer under s, or nil when s is the strategy itself.
func unwrap(s Syncer) Syncer {
	if u, ok := s.(Unwrapper); ok {
		return u.Unwrap()
	}
	return nil
}

// EventTrigger wraps any Syncer with event-triggered participation
// (Online-Fed's partial-sharing scheme): the client offers an upload only
// when the L2 norm of its accumulated local change — the drift since the
// vector it last offered — crosses Threshold. Below the threshold the
// inner strategy runs with contributor forced to false, so the client
// abstains through the strategy's ordinary abstention path: it still joins
// every collective (keeping barrier bookkeeping and fleet-consistent
// strategy state), ships a header-only message on the wire, and receives
// the round's global result.
//
// Drift accumulates across abstained rounds: the reference vector advances
// only when an upload is actually offered, so a client whose per-round
// change is small still contributes once the changes compound past the
// threshold. A zero threshold disables gating (every round contributes,
// exactly the unwrapped behaviour). The first synchronization always
// contributes — there is no reference yet to measure drift against.
//
// EventTrigger composes with every strategy (FedSU, CMFL, APF, QSGD,
// FedAvg) because it speaks only the Syncer interface and dispatches
// through SyncContext; an inner strategy with its own gating (CMFL
// relevance) simply sees fewer contributor rounds.
type EventTrigger struct {
	inner     Syncer
	threshold float64
	held[triggerState]
}

// triggerState is the trigger's state, all of it Local.
type triggerState struct {
	// Ref is the vector last offered (nil before the first offer).
	Ref []float64 `state:"lazy"`
	// Triggered / Suppressed count contributor rounds passed through vs
	// gated off, for diagnostics and tests.
	Triggered, Suppressed int64
}

var _ ContextSyncer = (*EventTrigger)(nil)
var _ Unwrapper = (*EventTrigger)(nil)

// NewEventTrigger wraps inner with an upload threshold on the L2 norm of
// the accumulated local change. threshold <= 0 passes every round through.
func NewEventTrigger(inner Syncer, threshold float64) *EventTrigger {
	return &EventTrigger{inner: inner, threshold: threshold, held: held[triggerState]{view: Local}}
}

// Name identifies the wrapped strategy; the trigger is transparent
// middleware, so strategy-name plumbing (round drivers, checkpoints)
// keeps working.
func (e *EventTrigger) Name() string { return e.inner.Name() }

// Unwrap implements Unwrapper.
func (e *EventTrigger) Unwrap() Syncer { return e.inner }

// SetWire implements WireSetter by delegating to the wrapped strategy, so
// chain accounting survives middleware wrapping in either order.
func (e *EventTrigger) SetWire(w Wire) { SetSyncerWire(e.inner, w) }

// TriggerCounts reports contributor rounds passed through vs suppressed.
func (e *EventTrigger) TriggerCounts() (triggered, suppressed int) {
	return int(e.st.Triggered), int(e.st.Suppressed)
}

// Sync implements Syncer.
func (e *EventTrigger) Sync(round int, local []float64, contributor bool) ([]float64, Traffic, error) {
	return e.SyncCtx(context.Background(), round, local, contributor)
}

// SyncCtx implements ContextSyncer.
func (e *EventTrigger) SyncCtx(ctx context.Context, round int, local []float64, contributor bool) ([]float64, Traffic, error) {
	st := &e.st
	if contributor && e.threshold > 0 && st.Ref != nil {
		if len(st.Ref) != len(local) {
			return nil, Traffic{}, fmt.Errorf("event trigger: vector length %d, reference %d", len(local), len(st.Ref))
		}
		if driftNorm(local, st.Ref) < e.threshold {
			contributor = false
			st.Suppressed++
		}
	}
	if contributor {
		st.Triggered++
		// The reference advances to the vector offered this round; drift for
		// the next trigger decision accumulates from here.
		if len(st.Ref) != len(local) {
			st.Ref = make([]float64, len(local))
		}
		copy(st.Ref, local)
	}
	return SyncContext(ctx, e.inner, round, local, contributor)
}

// driftNorm is the L2 norm of a-b.
func driftNorm(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
