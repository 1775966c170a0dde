package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"fedsu/internal/tensor"
)

// The base stage is the PR 4 self-describing bitmap/index codec, ported
// here verbatim so the one-stage chain is byte-identical to the
// historical wire image (internal/sparse delegates its encoders to this
// file, and a regression test pins the bytes against an independent
// reference). The exact-size format selection — the documented ~3%
// density crossover — lives here too: both body sizes are computed
// exactly and the smaller one wins, with the bitmap taking ties.
//
// Wire semantics: zeros (including negative zero) are elided and decode
// as +0; nonzero values round-trip through float32.

type baseStage struct{}

// Base returns the bitmap/index sparsifying stage ("topk" in chain
// specs). It heads a chain: it accepts numeric input only.
func Base() Stage { return baseStage{} }

func (baseStage) Name() string { return "topk" }

func (baseStage) Encode(dst []byte, v Vector) ([]byte, error) {
	if v.Values == nil {
		return nil, fmt.Errorf("codec: topk stage needs numeric input (it must head its chain)")
	}
	return AppendBase(dst, v.Values), nil
}

func (baseStage) Decode(dst []float64, payload []byte, maxParams int) ([]float64, error) {
	return DecodeInto(dst, payload, maxParams)
}

// AppendBase appends the base-stage encoding of vec to dst and returns
// the extended slice, growing dst at most once. The format tag is chosen
// by exact encoded size (the bitmap takes ties), so BaseSize(vec) always
// predicts the number of bytes appended.
//
// bitmap ≤ index ⇔ ⌈n/8⌉ ≤ 8 + varBytes, so the index form is out of the
// race once its footprint reaches ⌈n/8⌉ − 8 (at the latest when the nonzero
// count does; from the start for n ≤ 64). The bitmap's value region starts
// at a fixed offset whatever the count, so from there on, when dst has room
// for every remaining value to be nonzero (a pooled buffer sized by
// DenseBaseSize), the rest of the vector is not counted first: it is encoded
// in the one pass and the slice cut to what was written.
func AppendBase(dst []byte, vec []float64) []byte {
	base, n := len(dst), len(vec)
	i, nnz, varBytes := basePrefix(vec, (n+7)/8-8)
	if most := 1 + bitmapBodyBytes(n, nnz+n-i); i < n && cap(dst)-base >= most {
		dst = dst[:base+most]
		return dst[:base+1+bitmapBodyBytes(n, encodeBaseBitmap(dst[base:], vec))]
	}
	nnz += countNonzero(vec[i:])
	bitmapSize, indexSize := 1+bitmapBodyBytes(n, nnz), 1+8+8+varBytes+4*nnz
	if bitmapSize <= indexSize {
		dst = growBytes(dst, bitmapSize)
		encodeBaseBitmap(dst[base:], vec)
	} else {
		dst = growBytes(dst, indexSize)
		encodeBaseIndex(dst[base:], vec, nnz)
	}
	return dst
}

// BaseSize is the exact encoded size of vec under the base stage, in
// bytes, without materializing the payload: indexSize is exact if smaller.
func BaseSize(vec []float64) int {
	nnz, varBytes := baseStats(vec, (len(vec)+7)/8-8)
	return min(1+bitmapBodyBytes(len(vec), nnz), 1+8+8+varBytes+4*nnz)
}

// DenseBaseSize is BaseSize for a fully-dense vector of n parameters,
// computed without materializing it: with every entry nonzero the
// selection always picks the bitmap form, whose size depends only on n.
func DenseBaseSize(n int) int {
	return 1 + bitmapBodyBytes(n, n)
}

// bitmapBodyBytes is the bitmap body size: length header, one bit per
// parameter, four bytes per selected value.
func bitmapBodyBytes(totalParams, selected int) int {
	return 8 + (totalParams+7)/8 + 4*selected
}

// uvarintLen is the encoded size of x under binary.PutUvarint: one byte
// per started 7-bit group.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// baseStats scans vec once for the nonzero count and the delta-varint
// footprint of the nonzero positions. The footprint is priced only while
// below limit, past which the caller's bitmap alternative has won whatever
// follows (it only grows, by at least a byte per nonzero); the rest of the
// vector is only counted. varBytes is exact when it comes back below limit
// and a lower bound ≥ limit otherwise.
func baseStats(vec []float64, limit int) (nnz, varBytes int) {
	i, nnz, varBytes := basePrefix(vec, limit)
	return nnz + countNonzero(vec[i:]), varBytes
}

// basePrefix is the priced part of baseStats: it stops at a position i where
// the footprint of vec[:i] has reached limit, or at len(vec). It prices a
// mask word per step — inside a word every delta but the first is below 64,
// one varint byte — and the last < 64 positions one by one.
func basePrefix(vec []float64, limit int) (i, nnz, varBytes int) {
	prev := 0
	for ; varBytes < limit && len(vec)-i >= 64; i += 64 {
		if w := tensor.NonzeroMask((*[64]float64)(vec[i:])); w != 0 {
			c := bits.OnesCount64(w)
			varBytes += uvarintLen(uint64(i+bits.TrailingZeros64(w)-prev)) + c - 1
			prev, nnz = i+63-bits.LeadingZeros64(w), nnz+c
		}
	}
	for ; varBytes < limit && i < len(vec); i++ {
		if vec[i] != 0 {
			varBytes += uvarintLen(uint64(i - prev))
			prev = i
			nnz++
		}
	}
	return i, nnz, varBytes
}

func countNonzero(vec []float64) (nnz int) {
	for ; len(vec) >= 64; vec = vec[64:] {
		nnz += bits.OnesCount64(tensor.NonzeroMask((*[64]float64)(vec)))
	}
	for _, v := range vec {
		if v != 0 {
			nnz++
		}
	}
	return nnz
}

// putF32 and getF32 are the base wire format's only value conversions.
func putF32(dst []byte, v float64) {
	//lint:allow precision -- the base wire format stores values as f32 by contract (PR 4 byte-identity)
	binary.LittleEndian.PutUint32(dst, math.Float32bits(float32(v)))
}

func getF32(src []byte) float64 {
	//lint:allow precision -- widening the f32 wire value back to the f64 vector, exact
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(src)))
}

// encodeBaseBitmap writes the bitmap form of vec into out, which has room
// for at least vec's nonzeros, and returns their count. It works a
// 64-position mask word per step: the word is stored once, an all-ones word
// narrows its 64 values in one call, any other word scatters its set
// positions; the last < 64 positions go bit by bit.
func encodeBaseBitmap(out []byte, vec []float64) (nnz int) {
	out[0] = FormatBitmap
	binary.LittleEndian.PutUint64(out[1:9], uint64(len(vec)))
	nb := (len(vec) + 7) / 8
	bm, vals := out[9:9+nb], out[9+nb:]
	for ; len(vec) >= 64; vec, bm = vec[64:], bm[8:] {
		chunk := (*[64]float64)(vec)
		w := tensor.NonzeroMask(chunk)
		binary.LittleEndian.PutUint64(bm, w)
		if w == ^uint64(0) {
			tensor.NarrowLE(vals[4*nnz:], chunk[:])
			nnz += 64
			continue
		}
		for ; w != 0; w &= w - 1 {
			putF32(vals[4*nnz:], chunk[bits.TrailingZeros64(w)&63])
			nnz++
		}
	}
	clear(bm)
	for i, v := range vec {
		if v != 0 {
			bm[i/8] |= 1 << (i % 8)
			putF32(vals[4*nnz:], v)
			nnz++
		}
	}
	return nnz
}

// encodeBaseIndex writes the index form into out, which has exactly the
// required size: tag, total length, count, delta varints, float32 values.
func encodeBaseIndex(out []byte, vec []float64, nnz int) {
	out[0] = FormatIndex
	body := out[1:]
	binary.LittleEndian.PutUint64(body[:8], uint64(len(vec)))
	binary.LittleEndian.PutUint64(body[8:16], uint64(nnz))
	pos := 16
	prev := 0
	valBase := len(body) - 4*nnz
	k := 0
	for i, v := range vec {
		if v != 0 {
			pos += binary.PutUvarint(body[pos:], uint64(i-prev))
			prev = i
			putF32(body[valBase+4*k:], v)
			k++
		}
	}
}

// decodeBaseBitmap is encodeBaseBitmap's inverse: a run of all-ones words is
// checked against the value bytes left once and widened in one pass; any
// other word has its popcount checked the same way, then clears its 64
// positions and scatters what it has.
func decodeBaseBitmap(dst []float64, b []byte, maxParams int) ([]float64, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("codec: bitmap vector payload too short (%d bytes)", len(b))
	}
	n64 := binary.LittleEndian.Uint64(b[:8])
	b = b[8:]
	// The bitmap itself must be present, which caps the claimed length by
	// the input size before any allocation.
	if n64 > uint64(len(b))*8 || n64 > uint64(maxParams) {
		return nil, fmt.Errorf("codec: bitmap vector length %d exceeds payload or limit", n64)
	}
	n := int(n64)
	nb := (n + 7) / 8
	bm, vals := b[:nb], b[nb:]
	out := SizeVector(dst, n)
	rest := out
	for len(rest) >= 64 {
		w := binary.LittleEndian.Uint64(bm)
		if w == ^uint64(0) {
			run := 1
			for 64*run+64 <= len(rest) && binary.LittleEndian.Uint64(bm[8*run:]) == ^uint64(0) {
				run++
			}
			if 256*run > len(vals) {
				return nil, fmt.Errorf("codec: bitmap vector payload truncated")
			}
			tensor.WidenLE(rest[:64*run], vals[:256*run])
			rest, bm, vals = rest[64*run:], bm[8*run:], vals[256*run:]
			continue
		}
		used := 4 * bits.OnesCount64(w)
		if used > len(vals) {
			return nil, fmt.Errorf("codec: bitmap vector payload truncated")
		}
		chunk, src := rest[:64], vals[:used]
		rest, bm, vals = rest[64:], bm[8:], vals[used:]
		clear(chunk)
		for ; w != 0; w, src = w&(w-1), src[4:] {
			chunk[bits.TrailingZeros64(w)] = getF32(src)
		}
	}
	for i := range rest {
		rest[i] = 0
		if bm[i/8]&(1<<(i%8)) != 0 {
			if len(vals) < 4 {
				return nil, fmt.Errorf("codec: bitmap vector payload truncated")
			}
			rest[i], vals = getF32(vals), vals[4:]
		}
	}
	if got := len(b) - nb; len(vals) != 0 {
		return nil, fmt.Errorf("codec: bitmap vector payload has %d value bytes, want %d", got, got-len(vals))
	}
	return out, nil
}

func decodeBaseIndex(dst []float64, b []byte, maxParams int) ([]float64, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("codec: index vector payload too short (%d bytes)", len(b))
	}
	total64 := binary.LittleEndian.Uint64(b[:8])
	count64 := binary.LittleEndian.Uint64(b[8:16])
	b = b[16:]
	if total64 > uint64(maxParams) {
		return nil, fmt.Errorf("codec: index vector length %d exceeds limit %d", total64, maxParams)
	}
	// Each entry needs one varint byte plus four value bytes, bounding the
	// claimed count by the remaining payload before any allocation.
	if count64 > uint64(len(b))/5 || count64 > total64 {
		return nil, fmt.Errorf("codec: index vector payload truncated")
	}
	total, count := int(total64), int(count64)
	out := SizeVector(dst, total)
	clear(out)
	valBase := len(b) - 4*count
	pos := 0
	prev := 0
	for k := 0; k < count; k++ {
		d, w := binary.Uvarint(b[pos:valBase])
		if w <= 0 {
			return nil, fmt.Errorf("codec: bad varint at entry %d", k)
		}
		pos += w
		// Checking d before the int conversion keeps a hostile varint from
		// overflowing the position arithmetic.
		if d > uint64(total) {
			return nil, fmt.Errorf("codec: index delta overflow at entry %d", k)
		}
		idx := prev + int(d)
		if idx >= total {
			return nil, fmt.Errorf("codec: index out of range at entry %d", k)
		}
		out[idx] = getF32(b[valBase+4*k:])
		prev = idx
	}
	if pos != valBase {
		return nil, fmt.Errorf("codec: index vector payload has %d stray varint bytes", valBase-pos)
	}
	return out, nil
}
