package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The quant stage's per-element encoder and decoder as they stood before the
// block kernel replaced them: one symbol call per value through math.Round,
// math.Floor and math.Abs, math.Min/math.Max ranges, a *refSymReader call per
// decoded value. Kept verbatim as the reference the block code is held to,
// byte for byte on the encode side and bit for bit on the decode side
// (TestQuantBlocksMatchReference, FuzzQuantStage).

func (q *quantStage) refAppend(dst []byte, vec []float64) []byte {
	bitmapPart := (len(vec) + 7) / 8
	nnz, varBytes := baseStats(vec, bitmapPart)
	symBytes := (nnz*q.bits + 7) / 8
	mode, indexPart := byte(quantModeBitmap), bitmapPart
	if varBytes < bitmapPart {
		mode, indexPart = quantModeIndex, varBytes
	}
	if nnz == len(vec) && nnz > 0 {
		mode, indexPart = quantModeDense, 0
	}

	// Pass 1: per-block [lo, hi] over finite nonzeros, in block order. A
	// block whose nonzeros are all non-finite gets the degenerate (0, 0)
	// grid, matching the single-value case's "everything decodes to lo".
	rngBuf := GetVals(2 * (len(vec)/quantBlock + 1))
	defer PutVals(rngBuf)
	ranges := (*rngBuf)[:0]
	curB := -1
	for i, v := range vec {
		if v == 0 {
			continue
		}
		if b := i / quantBlock; b != curB {
			curB = b
			ranges = append(ranges, math.Inf(1), math.Inf(-1))
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		k := len(ranges)
		ranges[k-2] = math.Min(ranges[k-2], v)
		ranges[k-1] = math.Max(ranges[k-1], v)
	}
	for j := 0; j < len(ranges); j += 2 {
		if ranges[j] > ranges[j+1] {
			ranges[j], ranges[j+1] = 0, 0
		}
	}
	rangePart := quantRangeBytes * len(ranges) / 2

	base := len(dst)
	dst = growBytes(dst, 1+quantHeaderBytes+indexPart+rangePart+symBytes)
	out := dst[base:]
	out[0] = FormatQuant
	body := out[1:]
	body[0] = byte(q.bits)
	body[1] = mode
	binary.LittleEndian.PutUint64(body[2:], uint64(len(vec)))
	binary.LittleEndian.PutUint64(body[10:], uint64(nnz))
	idx := body[quantHeaderBytes : quantHeaderBytes+indexPart]
	rng := body[quantHeaderBytes+indexPart : quantHeaderBytes+indexPart+rangePart]
	syms := body[quantHeaderBytes+indexPart+rangePart:]
	if mode == quantModeBitmap {
		clear(idx)
	}
	for j, f := range ranges {
		binary.LittleEndian.PutUint64(rng[8*j:], math.Float64bits(f))
	}

	// Pass 2: index bits/varints plus grid symbols, swapping grids at
	// block boundaries.
	steps := float64(int(1)<<q.bits - 1)
	var lo, scale float64
	curB = -1
	r := 0
	var acc uint64
	accBits := 0
	pos := 0 // varint cursor (index mode)
	prev := 0
	for i, v := range vec {
		if v == 0 {
			continue
		}
		if b := i / quantBlock; b != curB {
			curB = b
			lo = ranges[2*r]
			hi := ranges[2*r+1]
			r++
			scale = 0
			if hi > lo {
				scale = steps / (hi - lo)
			}
		}
		switch mode {
		case quantModeBitmap:
			idx[i/8] |= 1 << (i % 8)
		case quantModeIndex:
			pos += binary.PutUvarint(idx[pos:], uint64(i-prev))
			prev = i
		}
		sym := q.refSymbol(v, lo, scale, steps, i)
		acc |= uint64(sym) << accBits
		accBits += q.bits
		for accBits >= 8 {
			syms[0] = byte(acc)
			syms = syms[1:]
			acc >>= 8
			accBits -= 8
		}
	}
	if accBits > 0 {
		syms[0] = byte(acc)
	}
	return dst
}

// symbol maps one nonzero value onto the grid with seeded stochastic
// rounding. Non-finite values clamp deterministically (NaN to the low
// edge): the stage is documented lossy and total, never failing.
func (q *quantStage) refSymbol(v, lo, scale, steps float64, pos int) int {
	t := (v - lo) * scale
	if math.IsNaN(t) || t < 0 {
		t = 0
	} else if t > steps {
		t = steps
	}
	// Grid values must re-quantize to themselves (value-level idempotence,
	// asserted by FuzzChainRoundTrip): snap near-integer t before rounding
	// so the float error of decode→re-encode cannot flip a coin.
	r := math.Round(t)
	if math.Abs(t-r) <= 1e-9 {
		return int(r)
	}
	f := math.Floor(t)
	if rnd01(q.seed, pos, math.Float64bits(v)) < t-f {
		f++
	}
	return int(f)
}

// rnd01 is a uniform [0,1) draw that is a pure function of (seed, position,
// value bits); symbols writes the same three rounds out in its loop.
func rnd01(seed uint64, pos int, vbits uint64) float64 {
	x := Mix64(seed + Mix64(uint64(pos)+Mix64(vbits)))
	return float64(x>>11) / (1 << 53)
}

// quantRange is the affine grid's [lo, hi] over finite nonzero values.
func quantRange(vec []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vec {
		if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo > hi { // no finite nonzero values
		return 0, 0
	}
	return lo, hi
}

// refBlockGrid tracks the decoder's current per-block grid, advancing
// through the range section as positions cross block boundaries.
type refBlockGrid struct {
	rng   []byte
	steps float64
	curB  int
	lo    float64
	step  float64
}

// at returns (lo, step) for the block owning position i, consuming the
// next range pair on a block change. ok is false when the range section
// is exhausted — the payload claimed fewer non-empty blocks than its
// index part describes.
func (g *refBlockGrid) at(i int) (lo, step float64, ok bool) {
	if b := i / quantBlock; b != g.curB {
		if len(g.rng) < quantRangeBytes {
			return 0, 0, false
		}
		g.curB = b
		g.lo = math.Float64frombits(binary.LittleEndian.Uint64(g.rng))
		hi := math.Float64frombits(binary.LittleEndian.Uint64(g.rng[8:]))
		g.rng = g.rng[quantRangeBytes:]
		g.step = 0
		if hi > g.lo && g.steps > 0 {
			g.step = (hi - g.lo) / g.steps
		}
	}
	return g.lo, g.step, true
}

func refDecodeQuant(dst []float64, b []byte, maxParams int) ([]float64, error) {
	if len(b) < quantHeaderBytes {
		return nil, fmt.Errorf("codec: quant payload too short (%d bytes)", len(b))
	}
	qbits := int(b[0])
	mode := b[1]
	n64 := binary.LittleEndian.Uint64(b[2:])
	nnz64 := binary.LittleEndian.Uint64(b[10:])
	b = b[quantHeaderBytes:]
	if qbits < 2 || qbits > 8 {
		return nil, fmt.Errorf("codec: quant bits %d out of range", qbits)
	}
	if n64 > uint64(maxParams) {
		return nil, fmt.Errorf("codec: quant vector length %d exceeds limit %d", n64, maxParams)
	}
	if nnz64 > n64 {
		return nil, fmt.Errorf("codec: quant payload claims %d nonzeros of %d", nnz64, n64)
	}
	// Every nonzero needs at least qbits symbol bits plus (index mode) one
	// varint byte, so the claimed count is bounded by the bytes present
	// before any allocation.
	if nnz64 > 8*uint64(len(b))/uint64(qbits) {
		return nil, fmt.Errorf("codec: quant payload truncated")
	}
	n, nnz := int(n64), int(nnz64)
	symBytes := (nnz*qbits + 7) / 8
	out := SizeVector(dst, n)
	steps := float64(int(1)<<qbits - 1)

	switch mode {
	case quantModeDense:
		rangePart := quantRangeBytes * ((n + quantBlock - 1) / quantBlock)
		if nnz != n || n == 0 || len(b) != rangePart+symBytes {
			return nil, fmt.Errorf("codec: quant dense payload has %d bytes for %d of %d values, want %d", len(b), nnz, n, rangePart+symBytes)
		}
		grid := refBlockGrid{rng: b[:rangePart], steps: steps, curB: -1}
		syms := newRefSymReader(b[rangePart:], qbits)
		for base := 0; base < n; base += quantBlock {
			lo, step, _ := grid.at(base)
			for i := base; i < min(base+quantBlock, n); i++ {
				out[i] = lo + float64(syms.next())*step
			}
		}
	case quantModeBitmap:
		clear(out)
		nb := (n + 7) / 8
		if len(b) < nb {
			return nil, fmt.Errorf("codec: quant bitmap truncated (%d of %d bytes)", len(b), nb)
		}
		positions := b[:nb]
		// First pass over the bitmap: the set-bit count pins nnz and the
		// non-empty block count pins the range section's length.
		k, nBlocks, curB := 0, 0, -1
		for i := 0; i < n; i++ {
			if positions[i/8]&(1<<(i%8)) != 0 {
				k++
				if blk := i / quantBlock; blk != curB {
					curB = blk
					nBlocks++
				}
			}
		}
		if k != nnz {
			return nil, fmt.Errorf("codec: quant bitmap has %d bits set, want %d", k, nnz)
		}
		rangePart := quantRangeBytes * nBlocks
		if len(b) != nb+rangePart+symBytes {
			return nil, fmt.Errorf("codec: quant bitmap payload has %d bytes, want %d", len(b), nb+rangePart+symBytes)
		}
		grid := refBlockGrid{rng: b[nb : nb+rangePart], steps: steps, curB: -1}
		syms := newRefSymReader(b[nb+rangePart:], qbits)
		for i := 0; i < n; i++ {
			if positions[i/8]&(1<<(i%8)) != 0 {
				lo, step, _ := grid.at(i)
				out[i] = lo + float64(syms.next())*step
			}
		}
	case quantModeIndex:
		clear(out)
		// First pass over the varints: find where the index part ends and
		// how many non-empty blocks the positions span.
		pos, prev, nBlocks, curB := 0, 0, 0, -1
		for k := 0; k < nnz; k++ {
			d, w := binary.Uvarint(b[pos:])
			if w <= 0 {
				return nil, fmt.Errorf("codec: quant bad varint at entry %d", k)
			}
			pos += w
			if d > uint64(n) {
				return nil, fmt.Errorf("codec: quant index delta overflow at entry %d", k)
			}
			idx := prev + int(d)
			if idx >= n {
				return nil, fmt.Errorf("codec: quant index out of range at entry %d", k)
			}
			prev = idx
			if blk := idx / quantBlock; blk != curB {
				curB = blk
				nBlocks++
			}
		}
		varEnd := pos
		rangePart := quantRangeBytes * nBlocks
		if len(b) != varEnd+rangePart+symBytes {
			return nil, fmt.Errorf("codec: quant index payload has %d bytes, want %d", len(b), varEnd+rangePart+symBytes)
		}
		grid := refBlockGrid{rng: b[varEnd : varEnd+rangePart], steps: steps, curB: -1}
		syms := newRefSymReader(b[varEnd+rangePart:], qbits)
		pos, prev = 0, 0
		for k := 0; k < nnz; k++ {
			d, _ := binary.Uvarint(b[pos:])
			pos += uvarintLen(d)
			idx := prev + int(d)
			lo, step, ok := grid.at(idx)
			if !ok {
				return nil, fmt.Errorf("codec: quant range section exhausted at entry %d", k)
			}
			out[idx] = lo + float64(syms.next())*step
			prev = idx
		}
	default:
		return nil, fmt.Errorf("codec: unknown quant index mode 0x%02x", mode)
	}
	return out, nil
}

// refSymReader unpacks little-endian bit-packed symbols. Bounds are checked
// by the callers' exact size arithmetic before construction.
type refSymReader struct {
	b    []byte
	bits int
	acc  uint64
	have int
}

func newRefSymReader(b []byte, bits int) *refSymReader {
	return &refSymReader{b: b, bits: bits}
}

func (r *refSymReader) next() uint64 {
	for r.have < r.bits {
		var by byte
		if len(r.b) > 0 {
			by = r.b[0]
			r.b = r.b[1:]
		}
		r.acc |= uint64(by) << r.have
		r.have += 8
	}
	sym := r.acc & (1<<r.bits - 1)
	r.acc >>= r.bits
	r.have -= r.bits
	return sym
}
