// Package sparse defines the client-side synchronization-strategy interface
// of the federated engine and implements the paper's baseline algorithms:
// FedAvg (full synchronization), CMFL (relevance-gated uploads), and APF
// (adaptive parameter freezing). The paper's own algorithm, FedSU, lives in
// internal/core and implements the same interface.
package sparse

import (
	"context"
	"fmt"
)

// BytesPerValue is the wire size of one parameter value. Models train in
// float64 but synchronize as 32-bit floats, matching the paper's setup.
const BytesPerValue = 4

// HeaderBytes approximates the fixed per-message framing cost (round id,
// client id, lengths, checksums).
const HeaderBytes = 64

// Traffic accounts one client's communication during one synchronization.
type Traffic struct {
	// UpBytes and DownBytes are the payload sizes transferred.
	UpBytes, DownBytes int
	// SyncedParams is the number of parameter values exchanged through the
	// server this round (model values, not error-feedback values).
	SyncedParams int
	// CheckedParams is the number of error-feedback values exchanged
	// (FedSU only).
	CheckedParams int
	// TotalParams is the model size, the denominator for ratios.
	TotalParams int
	// FullBytes is the full-model exchange reference cost this traffic is
	// measured against — one dense uplink plus one dense downlink under the
	// negotiated wire chain (Wire.FullRef). Zero means the strategy predates
	// chain accounting; SparsificationRatio then falls back to the legacy
	// default-wire reference.
	FullBytes int
}

// Add accumulates o into t.
func (t *Traffic) Add(o Traffic) {
	t.UpBytes += o.UpBytes
	t.DownBytes += o.DownBytes
	t.SyncedParams += o.SyncedParams
	t.CheckedParams += o.CheckedParams
	t.TotalParams += o.TotalParams
	t.FullBytes += o.FullBytes
}

// SparsificationRatio is the fraction of a full-model exchange saved this
// round, computed from actual bytes so FedSU's error-feedback traffic is
// charged against its savings: 1 − bytes/(full-model bytes). The reference
// cost is the dense wire encoding of the full model in each direction under
// the same chain the measured bytes shipped with (FullBytes) — comparing
// chain-compressed traffic against the uncompressed dense cost would let a
// quantizing chain masquerade as sparsification. Traffic recorded before
// chain accounting (FullBytes == 0) keeps the legacy default-wire reference.
func (t Traffic) SparsificationRatio() float64 {
	if t.TotalParams == 0 {
		return 0
	}
	full := t.FullBytes
	if full == 0 {
		full = 2 * DenseMessageBytes(t.TotalParams)
	}
	used := t.UpBytes + t.DownBytes
	r := 1 - float64(used)/float64(full)
	if r < 0 {
		return 0
	}
	return r
}

// Aggregator is the server-side collective the strategies call into. All
// clients of a round must issue the same sequence of collective calls; a
// nil values slice abstains from contributing while still participating in
// the collective (used by CMFL's irrelevant clients and by clients outside
// the round's participation quorum).
type Aggregator interface {
	// AggregateModel submits model values for element-wise averaging across
	// the round's contributors and returns the average. The returned slice
	// is shared and must not be mutated.
	AggregateModel(clientID, round int, values []float64) ([]float64, error)
	// AggregateError does the same for FedSU error-feedback vectors.
	AggregateError(clientID, round int, values []float64) ([]float64, error)
}

// Syncer is the per-client synchronization strategy: it consumes the
// client's post-training parameter vector and produces the vector the next
// round starts from, issuing whatever collective calls the strategy needs.
//
// contributor reports whether this client is inside the round's
// participation quorum; non-contributors follow the identical control flow
// (so their strategy state stays consistent with the fleet) but abstain
// from the collectives.
//
// The returned vector belongs to the strategy: it is valid until the next
// Sync on the same strategy starts, which may reuse its storage (FedAvg and
// core.Manager do; over TCP the transport decodes the next result straight
// into it). A caller that keeps a round's output across rounds copies it.
type Syncer interface {
	// Name identifies the strategy ("fedavg", "cmfl", "apf", "fedsu").
	Name() string
	Sync(round int, local []float64, contributor bool) ([]float64, Traffic, error)
}

// ContextAggregator is an optional extension of Aggregator for transports
// that can abort a blocked collective: the wait honours ctx cancellation
// (and, over a network, drives retry/reconnect). Strategies detect it via
// the AggModel/AggError helpers; aggregators that do not implement it are
// called through the plain interface and block until the barrier resolves.
type ContextAggregator interface {
	AggregateModelCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error)
	AggregateErrorCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error)
}

// AggModel submits to the model collective, routing through the
// aggregator's context-aware path when it has one.
func AggModel(ctx context.Context, agg Aggregator, clientID, round int, values []float64) ([]float64, error) {
	if ca, ok := agg.(ContextAggregator); ok {
		return ca.AggregateModelCtx(ctx, clientID, round, values)
	}
	return agg.AggregateModel(clientID, round, values)
}

// AggError submits to the error collective, routing through the
// aggregator's context-aware path when it has one.
func AggError(ctx context.Context, agg Aggregator, clientID, round int, values []float64) ([]float64, error) {
	if ca, ok := agg.(ContextAggregator); ok {
		return ca.AggregateErrorCtx(ctx, clientID, round, values)
	}
	return agg.AggregateError(clientID, round, values)
}

// Dispatcher is AggModel or AggError as a value (Wire.Collect runs either).
type Dispatcher func(ctx context.Context, agg Aggregator, clientID, round int, values []float64) ([]float64, error)

// ContextSyncer is an optional extension of Syncer whose synchronization
// accepts a context, propagated into the aggregator's collectives. All
// in-tree strategies implement it.
type ContextSyncer interface {
	Syncer
	SyncCtx(ctx context.Context, round int, local []float64, contributor bool) ([]float64, Traffic, error)
}

// SyncContext runs a strategy's synchronization with ctx when the strategy
// supports it, falling back to the plain (uncancellable) path otherwise.
func SyncContext(ctx context.Context, s Syncer, round int, local []float64, contributor bool) ([]float64, Traffic, error) {
	if cs, ok := s.(ContextSyncer); ok {
		return cs.SyncCtx(ctx, round, local, contributor)
	}
	return s.Sync(round, local, contributor)
}

// Factory builds one Syncer per client. Strategies receive the client id
// and the shared aggregator.
type Factory func(clientID int, size int, agg Aggregator) Syncer

// FedAvg synchronizes the full model every round — the paper's baseline.
type FedAvg struct {
	id   int
	size int
	agg  Aggregator
	wire Wire
	// out backs the vector Sync returns (see Syncer's lifetime rule).
	out []float64
}

var _ ContextSyncer = (*FedAvg)(nil)

// NewFedAvg constructs the full-synchronization strategy.
func NewFedAvg(clientID, size int, agg Aggregator) *FedAvg {
	return &FedAvg{id: clientID, size: size, agg: agg, out: make([]float64, size)}
}

// FedAvgFactory adapts NewFedAvg to the Factory signature.
func FedAvgFactory(clientID, size int, agg Aggregator) Syncer {
	return NewFedAvg(clientID, size, agg)
}

// Name implements Syncer.
func (f *FedAvg) Name() string { return "fedavg" }

// SetWire implements WireSetter: subsequent rounds charge the chain's
// measured message sizes.
func (f *FedAvg) SetWire(w Wire) { f.wire = w }

// Sync implements Syncer.
func (f *FedAvg) Sync(round int, local []float64, contributor bool) ([]float64, Traffic, error) {
	return f.SyncCtx(context.Background(), round, local, contributor)
}

// SyncCtx implements ContextSyncer.
func (f *FedAvg) SyncCtx(ctx context.Context, round int, local []float64, contributor bool) ([]float64, Traffic, error) {
	if len(local) != f.size {
		return nil, Traffic{}, fmt.Errorf("fedavg: vector length %d, want %d", len(local), f.size)
	}
	send := local
	if !contributor {
		send = nil
	}
	global, up, down, err := f.wire.Collect(ctx, AggModel, f.agg, f.id, round, send, nil, f.out)
	if err != nil {
		return nil, Traffic{}, fmt.Errorf("fedavg: aggregate round %d: %w", round, err)
	}
	switch {
	case global == nil:
		// A round without contributors keeps the local vector.
		copy(f.out, local)
	case len(global) != f.size:
		return nil, Traffic{}, fmt.Errorf("fedavg: model aggregate returned %d values for %d", len(global), f.size)
	case f.wire.rc.Owned:
		// Decoded for this client alone: into f.out when it had the capacity.
		f.out = global
	default:
		copy(f.out, global)
	}
	// Charged at what the wire shipped: an abstaining client's uplink is
	// framing only, and a round with no contributors has a header-only
	// downlink.
	tr := Traffic{
		UpBytes:      up,
		DownBytes:    down,
		SyncedParams: f.size,
		TotalParams:  f.size,
		FullBytes:    f.wire.FullRef(f.size),
	}
	return f.out, tr, nil
}
