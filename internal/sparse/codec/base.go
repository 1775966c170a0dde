package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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
// by exact encoded size, so BaseSize(vec) always predicts the number of
// bytes appended.
func AppendBase(dst []byte, vec []float64) []byte {
	nnz, bitmapSize, indexSize := baseSizes(vec)
	base := len(dst)
	if bitmapSize <= indexSize {
		dst = growBytes(dst, bitmapSize)
		encodeBaseBitmap(dst[base:], vec, nnz)
	} else {
		dst = growBytes(dst, indexSize)
		encodeBaseIndex(dst[base:], vec, nnz)
	}
	return dst
}

// BaseSize is the exact encoded size of vec under the base stage, in
// bytes, without materializing the payload.
func BaseSize(vec []float64) int {
	_, bitmapSize, indexSize := baseSizes(vec)
	return min(bitmapSize, indexSize)
}

// baseSizes prices both forms for the selection (the bitmap takes ties).
// bitmap ≤ index ⇔ ⌈n/8⌉ ≤ 8 + varBytes, so the index form is out of the
// race once its footprint reaches ⌈n/8⌉ − 8 (at the latest when the nonzero
// count does; from the start for n ≤ 64): indexSize is exact if smaller.
func baseSizes(vec []float64) (nnz, bitmapSize, indexSize int) {
	nnz, varBytes := baseStats(vec, (len(vec)+7)/8-8)
	return nnz, 1 + bitmapBodyBytes(len(vec), nnz), 1 + 8 + 8 + varBytes + 4*nnz
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
// vector is a compare-and-count loop. varBytes is exact when it comes back
// below limit and a lower bound ≥ limit otherwise.
func baseStats(vec []float64, limit int) (nnz, varBytes int) {
	prev, i := 0, 0
	for ; i < len(vec) && varBytes < limit; i++ {
		if vec[i] != 0 {
			varBytes += uvarintLen(uint64(i - prev))
			prev = i
			nnz++
		}
	}
	for _, v := range vec[i:] {
		if v != 0 {
			nnz++
		}
	}
	return nnz, varBytes
}

// encodeBaseBitmap writes the bitmap form into out, which has exactly
// the required size.
func encodeBaseBitmap(out []byte, vec []float64, nnz int) {
	out[0] = FormatBitmap
	body := out[1:]
	binary.LittleEndian.PutUint64(body[:8], uint64(len(vec)))
	bm := body[8 : 8+(len(vec)+7)/8]
	clear(bm)
	vals := body[8+len(bm):]
	k := 0
	for i, v := range vec {
		if v != 0 {
			bm[i/8] |= 1 << (i % 8)
			//lint:allow precision -- the base wire format stores values as f32 by contract (PR 4 byte-identity)
			binary.LittleEndian.PutUint32(vals[4*k:], math.Float32bits(float32(v)))
			k++
		}
	}
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
			//lint:allow precision -- the base wire format stores values as f32 by contract (PR 4 byte-identity)
			binary.LittleEndian.PutUint32(body[valBase+4*k:], math.Float32bits(float32(v)))
			k++
		}
	}
}

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
	bm := b[:nb]
	vals := b[nb:]
	out := sizeVector(dst, n)
	k := 0
	for i := 0; i < n; i++ {
		if bm[i/8]&(1<<(i%8)) != 0 {
			if 4*k+4 > len(vals) {
				return nil, fmt.Errorf("codec: bitmap vector payload truncated")
			}
			//lint:allow precision -- widening the f32 wire value back to the f64 vector, exact
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(vals[4*k:])))
			k++
		} else {
			out[i] = 0
		}
	}
	if len(vals) != 4*k {
		return nil, fmt.Errorf("codec: bitmap vector payload has %d value bytes, want %d", len(vals), 4*k)
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
	out := sizeVector(dst, total)
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
		//lint:allow precision -- widening the f32 wire value back to the f64 vector, exact
		out[idx] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[valBase+4*k:])))
		prev = idx
	}
	if pos != valBase {
		return nil, fmt.Errorf("codec: index vector payload has %d stray varint bytes", valBase-pos)
	}
	return out, nil
}
