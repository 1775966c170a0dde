package sparse

import (
	"context"

	"fedsu/internal/sparse/codec"
)

// Wire binds a strategy's traffic accounting to the compression chain the
// transport actually ships. The zero value (nil Chain) is the legacy
// default wire — the PR 4 bitmap/index codec — so existing constructions
// keep their historical byte counts untouched. Strategies issue their
// collectives through Collect; Bytes, ReplyBytes and Image compute what it
// reports from a vector, for a leg nothing encoded and for probes.
type Wire struct {
	Chain *codec.Chain
	// rc is Collect's per-call receipt, reused call after call.
	rc Receipt
}

// Enabled reports whether a non-default chain is attached: the cue for
// strategies that otherwise use analytic size models (QSGD) to charge
// measured chain bytes instead.
func (w Wire) Enabled() bool {
	return w.Chain != nil && !w.Chain.IsDefault()
}

// Bytes is the wire cost of one collective message carrying vec under
// this wire's chain: HeaderBytes of framing plus the chain's exact
// encoded payload size. A nil vec (abstention) is framing only. With a
// nil chain this is exactly MessageBytes.
func (w Wire) Bytes(vec []float64) int {
	if vec == nil {
		return HeaderBytes
	}
	if w.Chain == nil {
		return MessageBytes(vec)
	}
	return HeaderBytes + w.Chain.PayloadSize(vec)
}

// ReplyBytes is the wire cost of one downlink message carrying vec: the
// collective reply ships under the chain's Reply variant (quantizers
// widened to 8 bits — see codec.Chain.Reply). With a nil chain this is
// exactly MessageBytes, like Bytes.
func (w Wire) ReplyBytes(vec []float64) int {
	if vec == nil {
		return HeaderBytes
	}
	if w.Chain == nil {
		return MessageBytes(vec)
	}
	return HeaderBytes + w.Chain.Reply().PayloadSize(vec)
}

// DenseBytes is the wire's reference cost for a fully-dense n-parameter
// message (see codec.Chain.DensePayloadSize for why entropy and low-rank
// stages are excluded from the reference).
func (w Wire) DenseBytes(n int) int {
	if w.Chain == nil {
		return DenseMessageBytes(n)
	}
	return HeaderBytes + w.Chain.DensePayloadSize(n)
}

// FullRef is the full-model exchange reference — one dense uplink plus
// one dense downlink (at the reply chain's cost) — that
// SparsificationRatio charges savings against.
func (w Wire) FullRef(n int) int {
	if w.Chain == nil {
		return 2 * DenseMessageBytes(n)
	}
	return w.DenseBytes(n) + HeaderBytes + w.Chain.Reply().DensePayloadSize(n)
}

// RoundTrip is the wire image of values under this wire's chain: what a
// receiver observes after one encode→decode trip. With a nil chain the
// image is the identity here — the legacy float32 rounding is applied by
// the transport itself (QuantizeWire), not by the strategy layer.
func (w Wire) RoundTrip(values []float64) []float64 {
	if w.Chain == nil {
		return values
	}
	return w.Chain.RoundTrip(values)
}

// Image is RoundTrip without charging the chain's per-stage counters:
// strategies probe the wire image of a pending submission (to carry its
// loss forward as an error-feedback residual) without it registering as
// wire traffic.
func (w Wire) Image(values []float64) []float64 {
	if w.Chain == nil {
		return values
	}
	return w.Chain.WireImage(values)
}

// Receipt is what one collective call put on the wire, filled in by
// whoever encoded it — flrpc.Client over TCP, ChainAggregator in-process —
// so the strategy that issued the call never re-encodes a payload to learn
// its size. It is the ctx Collect dispatches with, so it passes through
// every wrapper that forwards ctx; living in the strategy's Wire, attaching
// it allocates nothing (context.WithValue would, once per collective).
type Receipt struct {
	context.Context
	// UpBytes and DownBytes are the shipped message sizes, HeaderBytes
	// included; zero when nothing on the call path encoded.
	UpBytes, DownBytes int
	// Image, when the strategy supplies it (len == the upload's), receives
	// the upload's wire image: what receivers decoded.
	Image []float64
	// Dst, when the strategy supplies it, is storage of its own that a
	// transport decoding the result for this caller alone decodes into, when
	// its capacity suffices.
	Dst []float64
	// Owned says the result is the caller's alone to keep and mutate:
	// flrpc.Client sets it, having decoded the reply into Dst's storage or a
	// fresh slice. The in-process aggregators hand every client one shared
	// slice and leave it unset.
	Owned bool
}

type receiptKey struct{}

func (r *Receipt) Value(key any) any {
	if key == (receiptKey{}) {
		return r
	}
	return r.Context.Value(key)
}

// ReceiptFrom returns the receipt of the Collect call ctx descends from,
// nil when there is none (a direct AggModel/AggError call).
func ReceiptFrom(ctx context.Context) *Receipt {
	r, _ := ctx.Value(receiptKey{}).(*Receipt)
	return r
}

// Collect runs one collective for a strategy — dispatch is AggModel or
// AggError — and reports what it cost on the wire: the encoder's receipt
// when the call path encoded the legs, the sizes computed under this wire
// when nothing did (an in-process default-wire run). A non-nil image
// (len(send) long) receives the upload's wire image the same way. The
// result is shared and must not be mutated, unless the receipt says Owned —
// then it is the caller's, in dst's storage when a transport decoded it and
// dst had the capacity (dst may be nil).
func (w *Wire) Collect(ctx context.Context, dispatch Dispatcher, agg Aggregator, clientID, round int, send, image, dst []float64) (res []float64, up, down int, err error) {
	w.rc = Receipt{Context: ctx, Image: image, Dst: dst}
	res, err = dispatch(&w.rc, agg, clientID, round, send)
	if err != nil {
		return nil, 0, 0, err
	}
	if w.rc.UpBytes != 0 {
		return res, w.rc.UpBytes, w.rc.DownBytes, nil
	}
	if image != nil {
		copy(image, w.Image(send))
	}
	return res, w.Bytes(send), w.ReplyBytes(res), nil
}

// WireSetter is implemented by strategies whose byte accounting can be
// rebound to a chain. The engine calls SetWire right after the Factory
// builds the strategy, before the first Sync.
type WireSetter interface {
	SetWire(Wire)
}

// SetSyncerWire rebinds s's accounting to w when the strategy supports
// it; strategies without chain-aware accounting are left untouched.
func SetSyncerWire(s Syncer, w Wire) {
	if ws, ok := s.(WireSetter); ok {
		ws.SetWire(w)
	}
}

// ChainAggregator applies a chain's wire image to an in-process
// aggregator: every submission and every aggregated result is passed
// through Chain.RoundTrip, exactly what a TCP transport's encode→decode
// does on each leg. Wrapping the aggregator — rather than having
// strategies pre-image their sends — means values are encoded exactly
// once on either transport, so in-process and TCP runs stay bit-identical
// even for stages whose re-encoding is not a fixed point (low-rank). As the
// party that encodes, it fills the caller's Receipt.
type ChainAggregator struct {
	agg   Aggregator
	chain *codec.Chain
}

var _ ContextAggregator = (*ChainAggregator)(nil)

// WrapAggregator returns agg with chain's wire image applied to both
// collective legs. A nil or default chain returns agg unchanged: the
// legacy float32 wire rounding stays where it always was (the transport).
func WrapAggregator(agg Aggregator, chain *codec.Chain) Aggregator {
	if agg == nil || chain == nil || chain.IsDefault() {
		return agg
	}
	return &ChainAggregator{agg: agg, chain: chain}
}

// AggregateModel implements Aggregator.
func (c *ChainAggregator) AggregateModel(clientID, round int, values []float64) ([]float64, error) {
	return c.collect(context.Background(), AggModel, clientID, round, values)
}

// AggregateError implements Aggregator.
func (c *ChainAggregator) AggregateError(clientID, round int, values []float64) ([]float64, error) {
	return c.collect(context.Background(), AggError, clientID, round, values)
}

// AggregateModelCtx implements ContextAggregator.
func (c *ChainAggregator) AggregateModelCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	return c.collect(ctx, AggModel, clientID, round, values)
}

// AggregateErrorCtx implements ContextAggregator.
func (c *ChainAggregator) AggregateErrorCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	return c.collect(ctx, AggError, clientID, round, values)
}

// collect round-trips the submission through the session chain and the
// result through its Reply variant, exactly what the TCP coordinator's
// reply encoder ships. The inner aggregator reads the submission only
// until it returns, so the caller's Image buffer can stage it.
func (c *ChainAggregator) collect(ctx context.Context, dispatch Dispatcher, clientID, round int, values []float64) ([]float64, error) {
	r := ReceiptFrom(ctx)
	if r == nil {
		r = &Receipt{} // nobody is asking; filled and dropped
	}
	sent, up := c.chain.RoundTripSized(r.Image, values)
	out, err := dispatch(ctx, c.agg, clientID, round, sent)
	if err != nil {
		return nil, err
	}
	res, down := c.chain.Reply().RoundTripSized(nil, out)
	r.UpBytes, r.DownBytes = HeaderBytes+up, HeaderBytes+down
	return res, nil
}
