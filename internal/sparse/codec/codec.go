// Package codec implements the composable compression pipeline the wire
// path ships vectors through: a Stage interface (sparsify, quantize,
// low-rank factor, entropy-code) with a Chain combinator that stacks
// stages into one self-describing encoding. The PR 4 bitmap/index codec
// is the base stage, so the default wire image is the degenerate
// one-stage chain — byte-identical to the historical encoder, pinned by
// tests in this package and in internal/sparse.
//
// Every stage writes a one-byte format tag first, so a receiver
// negotiates per message: DecodeInto dispatches on the tag recursively
// (an entropy payload wraps an inner payload, a quantized payload is a
// leaf) and needs no out-of-band chain description. Decoding is bounded
// against allocation bombs the same way the PR 4 decoders are: every
// length header is validated against the bytes actually present and
// against the caller's maxParams before anything is allocated, and the
// recursive dispatch is depth-capped so nested entropy frames cannot
// stack unboundedly.
package codec

import "fmt"

// Format tags. One byte, first on the wire, one per stage family.
// 0x03 is owned by internal/sparse's tree partial-aggregate codec
// (raw float64 + counts); partials are deliberately NOT part of any
// chain — see DESIGN.md §5l — so the tag is reserved here and rejected.
const (
	FormatBitmap  = 0x01 // base stage, bitmap body (PR 4)
	FormatIndex   = 0x02 // base stage, delta-varint index body (PR 4)
	formatPartial = 0x03 // reserved: tree partial codec, never chained
	FormatQuant   = 0x04 // k-bit stochastically quantized values
	FormatLowRank = 0x05 // U·Vᵀ factor pair
	formatFenwick = 0x06 // retired: the per-symbol Fenwick-model range coder (PR 10–16)
	FormatEntropy = 0x07 // range-coded wrapper around an inner payload
)

// DefaultMaxParams bounds the decoded vector length when the caller does
// not supply its own limit (same rationale and value as the sparse
// package's defaultMaxVectorParams: an index body is legitimately tiny
// for any total, so the length header cannot be bounded by input size).
const DefaultMaxParams = 1 << 24

// maxDecodeDepth caps recursive tag dispatch: a hostile stream of nested
// entropy frames must not recurse (or inflate) without bound. Parse
// enforces the same cap on chain length, so every encodable chain
// decodes.
const maxDecodeDepth = 4

// Vector is the value flowing between stages of a chain: numeric at the
// head (Values set, Bytes nil) and encoded after the first serializing
// stage (Bytes set, Values nil). Stages declare which form they accept.
type Vector struct {
	Values []float64
	Bytes  []byte
}

// Stage is one link of a compression chain. Encode appends the stage's
// self-describing encoding of v to dst and returns the extended slice;
// it returns ErrSkip when the stage judges itself non-beneficial for
// this vector (the chain passes v through unchanged). Decode reverses
// Encode for a payload beginning with one of the stage's format tags;
// maxParams bounds the decoded length (<= 0 applies DefaultMaxParams).
type Stage interface {
	Name() string
	Encode(dst []byte, v Vector) ([]byte, error)
	Decode(dst []float64, payload []byte, maxParams int) ([]float64, error)
}

// ErrSkip is returned by Stage.Encode when the stage does not apply to
// this vector (e.g. the low-rank gate measured no benefit); the chain
// forwards the input unchanged.
var errSkip = fmt.Errorf("codec: stage skipped")

// DecodeInto decodes any chain-encoded payload into dst (reused when its
// capacity suffices), dispatching recursively on the leading format tag.
// The returned slice is fully overwritten; elided positions are +0.
func DecodeInto(dst []float64, b []byte, maxParams int) ([]float64, error) {
	return decodeDepth(dst, b, maxParams, 0)
}

func decodeDepth(dst []float64, b []byte, maxParams, depth int) ([]float64, error) {
	if maxParams <= 0 {
		maxParams = DefaultMaxParams
	}
	if depth > maxDecodeDepth {
		return nil, fmt.Errorf("codec: payload nests deeper than %d frames", maxDecodeDepth)
	}
	if len(b) < 1 {
		return nil, fmt.Errorf("codec: empty vector payload")
	}
	switch b[0] {
	case FormatBitmap:
		return decodeBaseBitmap(dst, b[1:], maxParams)
	case FormatIndex:
		return decodeBaseIndex(dst, b[1:], maxParams)
	case FormatQuant:
		return decodeQuant(dst, b[1:], maxParams)
	case FormatLowRank:
		return decodeLowRank(dst, b[1:], maxParams)
	case FormatEntropy:
		return decodeEntropy(dst, b[1:], maxParams, depth)
	case formatFenwick:
		return nil, fmt.Errorf("codec: tag 0x06 is a retired format (the entropy stage ships 0x07)")
	case formatPartial:
		return nil, fmt.Errorf("codec: tag 0x03 is the tree partial codec, not a chain payload")
	default:
		return nil, fmt.Errorf("codec: unknown vector payload format 0x%02x", b[0])
	}
}

// SizeVector returns dst resized to n, reusing its storage when possible.
// Never nil: a decoded empty vector stays distinguishable from "no
// vector" (flrpc's abstain/Nil wire flags rely on it).
func SizeVector(dst []float64, n int) []float64 {
	if dst == nil && n == 0 {
		return []float64{}
	}
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}

// growBytes extends dst by n bytes in a single step (one allocation at
// most); the new bytes are unspecified and must be fully overwritten.
func growBytes(dst []byte, n int) []byte {
	total := len(dst) + n
	if cap(dst) >= total {
		return dst[:total]
	}
	grown := make([]byte, total)
	copy(grown, dst)
	return grown
}
