package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The per-bit base-stage kernels as they stood before the word-wide
// rewrite (PR 16), kept verbatim as the reference the word kernels are
// tested and fuzzed against: one float64 tested and one mask bit set or
// probed per iteration.

// scalarBaseStats scans vec once for the nonzero count and the
// delta-varint footprint of the nonzero positions, pricing the footprint
// only while it is below limit.
func scalarBaseStats(vec []float64, limit int) (nnz, varBytes int) {
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

// scalarAppendBase is AppendBase over the scalar kernels.
func scalarAppendBase(vec []float64) []byte {
	nnz, varBytes := scalarBaseStats(vec, (len(vec)+7)/8-8)
	bitmapSize, indexSize := 1+bitmapBodyBytes(len(vec), nnz), 1+8+8+varBytes+4*nnz
	if bitmapSize <= indexSize {
		out := make([]byte, bitmapSize)
		scalarEncodeBaseBitmap(out, vec)
		return out
	}
	out := make([]byte, indexSize)
	encodeBaseIndex(out, vec, nnz)
	return out
}

// scalarEncodeBaseBitmap writes the bitmap form into out, which has
// exactly the required size.
func scalarEncodeBaseBitmap(out []byte, vec []float64) {
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
			binary.LittleEndian.PutUint32(vals[4*k:], math.Float32bits(float32(v)))
			k++
		}
	}
}

// scalarDecodeBaseBitmap decodes a bitmap body (the payload after its
// format tag).
func scalarDecodeBaseBitmap(dst []float64, b []byte, maxParams int) ([]float64, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("codec: bitmap vector payload too short (%d bytes)", len(b))
	}
	n64 := binary.LittleEndian.Uint64(b[:8])
	b = b[8:]
	if n64 > uint64(len(b))*8 || n64 > uint64(maxParams) {
		return nil, fmt.Errorf("codec: bitmap vector length %d exceeds payload or limit", n64)
	}
	n := int(n64)
	nb := (n + 7) / 8
	bm := b[:nb]
	vals := b[nb:]
	out := SizeVector(dst, n)
	k := 0
	for i := 0; i < n; i++ {
		if bm[i/8]&(1<<(i%8)) != 0 {
			if 4*k+4 > len(vals) {
				return nil, fmt.Errorf("codec: bitmap vector payload truncated")
			}
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
