package sparse

import "fedsu/internal/sparse/codec"

// The self-describing dense-vector wire codec used by flrpc lives in
// internal/sparse/codec since the compression-pipeline refactor: the
// historical bitmap/index encoding is the codec package's base stage,
// and these wrappers keep the sparse-package API (and its wire image)
// exactly as PR 4 shipped it — the exact-size bitmap/index selection,
// the ~3 % density crossover, float32 values, zeros elided. The codec
// package adds the chainable stages (quantization, low-rank factors,
// entropy coding); DecodeVectorPayloadInto dispatches on the leading
// format tag, so a receiver decodes chain payloads with no negotiation.
//
// Wire semantics, shared with QuantizeWire: zeros (including negative
// zero) are elided and decode as +0; nonzero values round-trip through
// float32. Tests comparing values across the wire must compare against
// QuantizeWire(sent), not sent. Under a non-default chain the wire
// image is the chain's round-trip instead (codec.Chain.RoundTrip).

const (
	vecFormatBitmap = codec.FormatBitmap
	vecFormatIndex  = codec.FormatIndex
)

// defaultMaxVectorParams bounds the decoded vector length accepted when
// the caller does not supply its own limit (see codec.DefaultMaxParams).
const defaultMaxVectorParams = codec.DefaultMaxParams

// MessageBytes is the actual wire cost of one collective message carrying
// vec: HeaderBytes of framing plus the vector codec's exact encoded size.
// A nil vec (abstention, or a collective that produced no result) costs the
// header alone. This is what Wire.Collect charges a default-wire leg that
// nothing on the call path encoded — actual encoded bytes, not a
// per-parameter estimate — and what a transport that did encode it reports.
func MessageBytes(vec []float64) int {
	if vec == nil {
		return HeaderBytes
	}
	return HeaderBytes + codec.BaseSize(vec)
}

// DenseMessageBytes is MessageBytes for a fully-dense vector of n
// parameters, computed without materializing it: with every entry nonzero
// the codec always picks the bitmap form, whose size depends only on n.
// Used as the full-model reference cost (sparsification ratios, first-round
// load estimates).
func DenseMessageBytes(n int) int {
	return HeaderBytes + codec.DenseBaseSize(n)
}

// QuantizeWire maps v to the value a receiver observes after one trip
// through the vector codec: zeros collapse to +0, everything else rounds
// through float32.
func QuantizeWire(v float64) float64 {
	if v == 0 {
		return 0
	}
	return float64(float32(v))
}

// EncodeVectorPayload encodes vec with AppendVectorPayload into a fresh
// buffer.
func EncodeVectorPayload(vec []float64) []byte {
	return AppendVectorPayload(nil, vec)
}

// AppendVectorPayload appends the base-stage vector encoding of vec to
// dst and returns the extended slice, growing dst at most once. The
// format tag is chosen by exact encoded size, so codec.BaseSize(vec) always
// predicts the number of bytes appended.
func AppendVectorPayload(dst []byte, vec []float64) []byte {
	return codec.AppendBase(dst, vec)
}

// DecodeVectorPayload decodes a vector payload into a fresh slice,
// applying the default length cap.
func DecodeVectorPayload(b []byte) ([]float64, error) {
	return DecodeVectorPayloadInto(nil, b, 0)
}

// DecodeVectorPayloadInto decodes a vector payload, reusing dst's storage
// when its capacity suffices (so a pooled codec.GetVals slice makes steady-state
// decoding allocation-free). maxParams bounds the claimed vector length —
// receivers that know the model size should pass it; maxParams <= 0 applies
// defaultMaxVectorParams. The returned slice is fully overwritten: elided
// positions are +0. Every chain stage's tag is accepted (the encoding is
// self-describing), with the PR 4 allocation-bomb bounds applied per tag.
func DecodeVectorPayloadInto(dst []float64, b []byte, maxParams int) ([]float64, error) {
	return codec.DecodeInto(dst, b, maxParams)
}
