package sparse

import (
	"encoding/binary"
	"fmt"
	"math"

	"fedsu/internal/sparse/codec"
)

// Partial-aggregate wire message: what a tree tier (fl.Tree leaf or mid
// aggregator) forwards upward — the canonical partial SUM over its rank
// block, the contributor WEIGHT it folded, and the client TRAFFIC it
// accounted. Unlike the client-upload vector codec (wire.go), the sum
// ships as raw float64: a partial is an intermediate of the canonical
// pairwise fold, and rounding it through float32 at every tier would
// break the bit-identity contract between a tree run and a flat server
// over the same cohort. Partial sums are dense (a sum of models has no
// exploitable zero structure), so sparsity elision would buy nothing for
// the precision it costs. The root fan-in is O(fanout), so the 8
// bytes/param price is paid a handful of times per round, not once per
// participant.

// partialFormatV1 tags the partial-aggregate payload; the tag space is
// shared with the vector codec (0x01/0x02) so a misrouted payload fails
// loudly instead of decoding as the wrong message.
const partialFormatV1 = 0x03

// defaultMaxPartialParams bounds the decoded sum length against hostile
// length headers when the caller does not know the model size.
const defaultMaxPartialParams = defaultMaxVectorParams

// Partial is one decoded partial-aggregate message.
type Partial struct {
	// RankLo is the first roster rank of the sender's aligned block (the
	// receiver validates it against the sender's child slot).
	RankLo int
	// Weight is the contributor count folded into Sum (0 with a nil Sum
	// for an identity/empty partial).
	Weight int
	// Traffic is the cumulative encoded client-upload bytes the subtree
	// accounted, carried upward for RoundStats.
	Traffic int64
	// Sum is the canonical partial sum (raw float64; nil for identity).
	Sum []float64
}

// PartialPayloadSize is the exact encoded size of a partial carrying an
// n-element sum.
func PartialPayloadSize(n int) int {
	return 1 + 8*4 + 8*n
}

// growBytes extends dst by n bytes in a single step (one allocation at
// most), returning the lengthened slice; the new bytes are unspecified and
// must be fully overwritten by the caller.
func growBytes(dst []byte, n int) []byte {
	total := len(dst) + n
	if cap(dst) >= total {
		return dst[:total]
	}
	grown := make([]byte, total)
	copy(grown, dst)
	return grown
}

// AppendPartialPayload appends the encoding of p to dst and returns the
// extended slice, growing dst at most once. An identity partial (nil
// Sum, zero Weight) encodes with span 0.
func AppendPartialPayload(dst []byte, p Partial) []byte {
	base := len(dst)
	dst = growBytes(dst, PartialPayloadSize(len(p.Sum)))
	out := dst[base:]
	out[0] = partialFormatV1
	binary.LittleEndian.PutUint64(out[1:], uint64(p.RankLo))
	binary.LittleEndian.PutUint64(out[9:], uint64(len(p.Sum)))
	binary.LittleEndian.PutUint64(out[17:], uint64(p.Weight))
	binary.LittleEndian.PutUint64(out[25:], uint64(p.Traffic))
	vals := out[33:]
	for i, v := range p.Sum {
		binary.LittleEndian.PutUint64(vals[8*i:], math.Float64bits(v))
	}
	return dst
}

// DecodePartialPayloadInto decodes a partial payload, reusing dst's
// storage for the sum when its capacity suffices (a pooled codec.GetVals slice
// makes steady-state decoding allocation-free). maxParams bounds the
// claimed sum length — receivers that know the model size should pass
// it; maxParams <= 0 applies defaultMaxPartialParams. The claimed span is
// additionally bounded by the actual payload size BEFORE any allocation,
// so a hostile header cannot force an allocation bomb.
func DecodePartialPayloadInto(dst []float64, b []byte, maxParams int) (Partial, error) {
	if maxParams <= 0 {
		maxParams = defaultMaxPartialParams
	}
	if len(b) < 1 {
		return Partial{}, fmt.Errorf("sparse: empty partial payload")
	}
	if b[0] != partialFormatV1 {
		return Partial{}, fmt.Errorf("sparse: unknown partial payload format 0x%02x", b[0])
	}
	body := b[1:]
	if len(body) < 32 {
		return Partial{}, fmt.Errorf("sparse: partial payload too short (%d bytes)", len(b))
	}
	rankLo := binary.LittleEndian.Uint64(body[0:8])
	span := binary.LittleEndian.Uint64(body[8:16])
	weight := binary.LittleEndian.Uint64(body[16:24])
	traffic := binary.LittleEndian.Uint64(body[24:32])
	vals := body[32:]
	// Allocation bound: the sum must actually be present in the payload.
	if span > uint64(len(vals))/8 || span > uint64(maxParams) {
		return Partial{}, fmt.Errorf("sparse: partial span %d exceeds payload or limit", span)
	}
	if uint64(len(vals)) != 8*span {
		return Partial{}, fmt.Errorf("sparse: partial payload has %d value bytes, want %d", len(vals), 8*span)
	}
	const maxMeta = 1 << 40 // rank/weight sanity: far above any roster, far below overflow
	if rankLo > maxMeta || weight > maxMeta || traffic > uint64(1)<<62 {
		return Partial{}, fmt.Errorf("sparse: partial metadata out of range")
	}
	if weight > 0 && span == 0 {
		return Partial{}, fmt.Errorf("sparse: partial weight %d with empty sum", weight)
	}
	p := Partial{RankLo: int(rankLo), Weight: int(weight), Traffic: int64(traffic)}
	if span == 0 {
		return p, nil
	}
	sum := codec.SizeVector(dst, int(span))
	for i := range sum {
		sum[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:]))
	}
	p.Sum = sum
	return p, nil
}
