package sparse

import (
	"context"
	"fmt"
	"math"

	"fedsu/internal/sparse/codec"
)

// QSGD implements the quantization-style baseline the paper positions
// sparsification against (Alistarh et al., NeurIPS 2017): each client
// stochastically quantizes its model *update* to a configurable number of
// bits before upload, and the server averages dequantized updates. Unlike
// sparsification, quantization's compression ceiling is the minimum bit
// width that preserves convergence — the limitation Sec. II-B cites.
//
// The implementation quantizes per synchronization round over the whole
// update vector with a shared scale (max-norm), using unbiased stochastic
// rounding so the expected dequantized update equals the true one. A
// rounding draw is a hash of (seed, client, round, index), not a stream, so
// a restarted client rounds exactly as one that never stopped.
type QSGD struct {
	id   int
	size int
	agg  Aggregator
	wire Wire

	bits int
	seed int64

	held[qsgdState]
}

// qsgdState is QSGD's live state, Shared: the global the next update is
// measured from, nil until the bootstrap round.
type qsgdState struct {
	PrevGlobal []float64 `state:"lazy"`
}

var _ ContextSyncer = (*QSGD)(nil)

// NewQSGD constructs a quantizing strategy with the given bit width
// (2..16; 4 bits is a typical aggressive setting, 8 conservative).
func NewQSGD(clientID, size int, agg Aggregator, bits int, seed int64) (*QSGD, error) {
	if bits < 2 || bits > 16 {
		return nil, fmt.Errorf("sparse: qsgd bits = %d outside [2, 16]", bits)
	}
	return &QSGD{
		id: clientID, size: size, agg: agg,
		bits: bits,
		seed: seed,
		held: held[qsgdState]{view: Shared},
	}, nil
}

// QSGDFactory returns a Factory with 8-bit quantization.
func QSGDFactory(clientID, size int, agg Aggregator) Syncer {
	q, err := NewQSGD(clientID, size, agg, 8, 1)
	if err != nil {
		// bits=8 is always valid; reaching here is a programming error.
		panic(err)
	}
	return q
}

// Name implements Syncer.
func (q *QSGD) Name() string { return "qsgd" }

// SetWire implements WireSetter. With a non-default chain attached the
// quantized rounds charge the chain's measured encoded bytes (the values
// QSGD ships are its own dequantized grid points, which the chain then
// compresses further — e.g. an entropy stage squeezes the grid's symbol
// redundancy) instead of the analytic bits-per-value model.
func (q *QSGD) SetWire(w Wire) { q.wire = w }

// Quantize stochastically rounds v, this client's update in round, onto the
// bit-width grid scaled by the vector's max-norm and returns the dequantized
// values (what the server would reconstruct); element i's draw hashes
// (seed, client, round, i). Exported for tests and the compression ablation.
func (q *QSGD) Quantize(round int, v []float64) []float64 {
	scale := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > scale {
			scale = a
		}
	}
	out := make([]float64, len(v))
	if scale == 0 {
		return out
	}
	levels := float64(int(1)<<(q.bits-1)) - 1 // signed grid
	h := codec.Mix64(uint64(q.seed) + codec.Mix64(uint64(q.id)+codec.Mix64(uint64(round))))
	for i, x := range v {
		t := x / scale * levels
		lo := math.Floor(t)
		p := t - lo
		if float64(codec.Mix64(h+codec.Mix64(uint64(i)))>>11)/(1<<53) < p {
			lo++
		}
		out[i] = lo / levels * scale
	}
	return out
}

// Sync implements Syncer: quantize the local update, aggregate, apply.
func (q *QSGD) Sync(round int, local []float64, contributor bool) ([]float64, Traffic, error) {
	return q.SyncCtx(context.Background(), round, local, contributor)
}

// SyncCtx implements ContextSyncer.
func (q *QSGD) SyncCtx(ctx context.Context, round int, local []float64, contributor bool) ([]float64, Traffic, error) {
	if len(local) != q.size {
		return nil, Traffic{}, fmt.Errorf("qsgd: vector length %d, want %d", len(local), q.size)
	}
	// First round bootstraps full precision to establish a shared base.
	if q.st.PrevGlobal == nil {
		var send []float64
		if contributor {
			send = append([]float64(nil), local...)
		}
		agg, up, down, err := q.wire.Collect(ctx, ModelLeg, q.agg, q.id, round, send, nil, nil)
		if err != nil {
			return nil, Traffic{}, fmt.Errorf("qsgd: bootstrap: %w", err)
		}
		out := make([]float64, q.size)
		if agg != nil {
			copy(out, agg)
		} else {
			copy(out, local)
		}
		q.st.PrevGlobal = append([]float64(nil), out...)
		// The bootstrap is a plain full-precision exchange, so it is charged
		// at what the wire shipped; the quantized rounds below keep QSGD's
		// own bits-per-value payload model.
		return out, Traffic{
			UpBytes:      up,
			DownBytes:    down,
			SyncedParams: q.size,
			TotalParams:  q.size,
			FullBytes:    q.wire.FullRef(q.size),
		}, nil
	}

	update := make([]float64, q.size)
	for i := range update {
		update[i] = local[i] - q.st.PrevGlobal[i]
	}
	var send []float64
	if contributor {
		send = q.Quantize(round, update)
	}
	aggUpd, up, down, err := q.wire.Collect(ctx, ModelLeg, q.agg, q.id, round, send, nil, nil)
	if err != nil {
		return nil, Traffic{}, fmt.Errorf("qsgd: aggregate round %d: %w", round, err)
	}
	out := make([]float64, q.size)
	if aggUpd == nil {
		copy(out, q.st.PrevGlobal)
	} else {
		for i := range out {
			out[i] = q.st.PrevGlobal[i] + aggUpd[i]
		}
	}
	copy(q.st.PrevGlobal, out)

	if !q.wire.Enabled() {
		// Analytic wire cost in place of what the default wire shipped:
		// bits per value + the shared scale, both directions (downlink
		// carries the aggregated update at the same width). The default
		// vector codec has no sub-float32 width, so the model stands in for
		// a bespoke QSGD packing. Under a chain the shipped bytes stand.
		up = (q.size*q.bits+7)/8 + 8 + HeaderBytes
		down = up
	}
	return out, Traffic{
		UpBytes:      up,
		DownBytes:    down,
		SyncedParams: q.size,
		TotalParams:  q.size,
		FullBytes:    q.wire.FullRef(q.size),
	}, nil
}
