package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The quant stage generalizes the QSGD codec to k-bit (2..8) stochastic
// quantization of a sparse vector's nonzero values, with the rounding
// decision a pure hash of (seed, position, value bits) — no RNG stream —
// so the encoding is a deterministic function of its input regardless of
// worker count, submission order, or retries (a resubmitted message
// re-encodes to identical bytes, which the flrpc idempotent-resubmission
// path relies on).
//
// Values are mapped onto (2^bits − 1)-step affine grids over the
// nonzero values' [min, max] ranges (affine min–max rather than QSGD's
// signed max-norm grid: strategies ship raw parameter values, not just
// zero-centred updates, and an affine grid spends its levels on the
// range actually occupied). The grid is per block of quantBlock
// positions, not global: model vectors concatenate layers whose scales
// differ by orders of magnitude, and a single global grid would burn
// all its levels on the widest layer. Stochastic rounding keeps each
// grid unbiased: E[decode] = value, so quantization noise averages out
// across the round's contributors.
//
// Layout after the 0x04 tag:
//
//	[bits u8][mode u8][n u64][nnz u64]
//	[index part: bitmap (mode 1), delta varints (mode 2), nothing (mode 3)]
//	[block ranges: lo f64, hi f64 per block containing a nonzero]
//	[bit-packed symbols, nnz·bits bits, little-endian packing]
//
// The bitmap-vs-index crossover is recomputed for this stage's value
// width: with nnz carried in the header both index parts are compared by
// exact size (ceil(n/8) vs the varint footprint), a different break-even
// density than the base stage's, where the index form pays an extra
// 8-byte count field. Blocks with no nonzeros ship no range pair — the
// decoder reconstructs which blocks are present from the index part. A
// vector with no zero at all (what core.Manager syncs: it compacts first)
// ships no index part: nnz == n says where every value goes.

const (
	quantModeBitmap = 0x01
	quantModeIndex  = 0x02
	quantModeDense  = 0x03
)

// quantHeaderBytes is the fixed body prefix: bits, mode, n, nnz.
const quantHeaderBytes = 2 + 8 + 8

// quantBlock is the positions-per-grid block size. Blocks are by
// position (i / quantBlock), never by nonzero rank: a decoded value
// that lands exactly on zero drops out of the next encode's nonzero
// set, and position-based membership keeps every other value in its
// block — the property that makes the grid idempotent.
const quantBlock = 256

// quantRangeBytes is one non-empty block's [lo, hi] pair.
const quantRangeBytes = 16

type quantStage struct {
	bits int
	seed uint64
}

// NewQuant returns a k-bit stochastic quantization stage. bits must be
// in [2, 8]. The seed fixes the rounding hash; both ends of a wire can
// decode regardless of seed (the grid parameters ship in the header).
func NewQuant(bits int, seed uint64) (Stage, error) {
	if bits < 2 || bits > 8 {
		return nil, fmt.Errorf("codec: quant bits must be in [2,8], got %d", bits)
	}
	return &quantStage{bits: bits, seed: seed}, nil
}

func (q *quantStage) Name() string { return fmt.Sprintf("q%d", q.bits) }

// Encode quantizes numeric input directly, or transcodes a base-stage
// payload (tags 0x01/0x02) by decoding it first — so "topk,q4" chains
// quantize the float32 wire image the base stage would have shipped.
func (q *quantStage) Encode(dst []byte, v Vector) ([]byte, error) {
	if v.Values != nil {
		return q.append(dst, v.Values), nil
	}
	if len(v.Bytes) < 9 || (v.Bytes[0] != FormatBitmap && v.Bytes[0] != FormatIndex) {
		return nil, fmt.Errorf("codec: quant stage accepts numeric input or a base-stage payload")
	}
	// Both base forms lead with the vector length: peek it so the decode
	// scratch comes from the right pool class instead of allocating per
	// message (this is the hot transcode of every "topk,q..." chain).
	n := int(binary.LittleEndian.Uint64(v.Bytes[1:]))
	if n < 0 {
		return nil, fmt.Errorf("codec: quant transcode: negative length")
	}
	scratch := GetVals(n)
	defer PutVals(scratch)
	vals, err := DecodeInto(*scratch, v.Bytes, 0)
	if err != nil {
		return nil, fmt.Errorf("codec: quant transcode: %w", err)
	}
	*scratch = vals // pool the possibly-regrown buffer on the way out
	return q.append(dst, vals), nil
}

func (q *quantStage) Decode(dst []float64, payload []byte, maxParams int) ([]float64, error) {
	if len(payload) < 1 || payload[0] != FormatQuant {
		return nil, fmt.Errorf("codec: quant stage expects a 0x04 payload")
	}
	return decodeQuant(dst, payload[1:], maxParams)
}

// append encodes vec a quantBlock at a time: gather the block's nonzeros,
// take their range, decide every symbol, pack. All three index modes run the
// same per-block kernel (symbols); they differ in what the gather emits — a
// bitmap bit, a delta varint, or nothing, when the block slice itself is the
// nonzero set. The bytes are those of the per-element encoder this replaced
// (quant_ref_test.go).
func (q *quantStage) append(dst []byte, vec []float64) []byte {
	n := len(vec)
	bitmapPart := (n + 7) / 8
	nnz, varBytes := baseStats(vec, bitmapPart)
	symBytes := (nnz*q.bits + 7) / 8
	mode, indexPart := byte(quantModeBitmap), bitmapPart
	if varBytes < bitmapPart {
		mode, indexPart = quantModeIndex, varBytes
	}
	// Blocks with no nonzeros ship no range pair, and the symbols start
	// behind the last pair: count the pairs first.
	blocks := 0
	if nnz == n && nnz > 0 {
		mode, indexPart = quantModeDense, 0
		blocks = (n + quantBlock - 1) / quantBlock
	} else {
		for b0 := 0; b0 < n; b0 += quantBlock {
			for _, v := range vec[b0:min(b0+quantBlock, n)] {
				if v != 0 {
					blocks++
					break
				}
			}
		}
	}
	rangePart := quantRangeBytes * blocks

	base := len(dst)
	dst = growBytes(dst, 1+quantHeaderBytes+indexPart+rangePart+symBytes)
	out := dst[base:]
	out[0] = FormatQuant
	body := out[1:]
	body[0] = byte(q.bits)
	body[1] = mode
	binary.LittleEndian.PutUint64(body[2:], uint64(n))
	binary.LittleEndian.PutUint64(body[10:], uint64(nnz))
	idx := body[quantHeaderBytes : quantHeaderBytes+indexPart]
	rng := body[quantHeaderBytes+indexPart : quantHeaderBytes+indexPart+rangePart]
	pack := symPacker{out: body[quantHeaderBytes+indexPart+rangePart:], bits: uint(q.bits)}
	if mode == quantModeBitmap {
		clear(idx)
	}

	var (
		vals [quantBlock]float64 // the block's nonzeros, gathered
		offs [quantBlock]uint8   // their offsets inside the block
		syms [quantBlock]uint8
	)
	if mode == quantModeDense {
		for k := range offs {
			offs[k] = uint8(k)
		}
	}
	steps := float64(int(1)<<q.bits - 1)
	pos, prev := 0, 0 // varint cursor and last position (index mode)
	for b0 := 0; b0 < n; b0 += quantBlock {
		nz := vec[b0:min(b0+quantBlock, n)]
		if mode != quantModeDense {
			k := 0
			for j, v := range nz {
				if v == 0 {
					continue
				}
				vals[k], offs[k] = v, uint8(j)
				k++
				if i := b0 + j; mode == quantModeBitmap {
					idx[i/8] |= 1 << (i % 8)
				} else {
					pos += binary.PutUvarint(idx[pos:], uint64(i-prev))
					prev = i
				}
			}
			if k == 0 {
				continue
			}
			nz = vals[:k]
		}
		lo, hi := blockRange(nz)
		binary.LittleEndian.PutUint64(rng, math.Float64bits(lo))
		binary.LittleEndian.PutUint64(rng[8:], math.Float64bits(hi))
		rng = rng[quantRangeBytes:]
		scale := 0.0
		if hi > lo {
			scale = steps / (hi - lo)
		}
		blockSyms := syms[:len(nz)]
		q.symbols(blockSyms, nz, offs[:len(nz)], b0, lo, scale, steps)
		pack.put(blockSyms)
	}
	pack.flush()
	return dst
}

// blockRange is the affine grid's [lo, hi] over the finite values of a
// block's nonzeros; a block with none gets the degenerate (0, 0) grid, on
// which everything decodes to lo. v-v is zero exactly for a finite v, and
// among finite nonzeros the comparisons pick what math.Min and math.Max do.
func blockRange(nz []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range nz {
		if v-v != 0 {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

// symbols maps a block's nonzeros onto its grid with seeded stochastic
// rounding; nz[k] sits at position b0+offs[k]. Non-finite values clamp
// deterministically (NaN to the low edge): the stage is documented lossy and
// total, never failing.
//
// Grid values must re-quantize to themselves (value-level idempotence,
// asserted by FuzzChainRoundTrip), so a t within 1e-9 of an integer snaps to
// it and only the rest round up on a draw below their fraction. With t in
// [0, 255], f = trunc(t) and d = t − f, both d and (f+1) − t are exact
// differences of neighbouring floats, so the two snap tests are
// |t − math.Round(t)| ≤ 1e-9 and d is t − math.Floor(t) without the calls.
// The draw is a uniform [0,1) that is a pure function of (seed, position,
// value bits) — the determinism contract of the stage — so taking it for
// every value, snapped or not, changes no symbol and lets the decision be
// arithmetic on comparison results: a branch on a coin flip mispredicts every
// other value (DESIGN.md §5l).
func (q *quantStage) symbols(syms []uint8, nz []float64, offs []uint8, b0 int, lo, scale, steps float64) {
	offs, syms = offs[:len(nz)], syms[:len(nz)] // one bounds check each, here
	for k, v := range nz {
		t := (v - lo) * scale
		if !(t >= 0) { // negative or NaN
			t = 0
		} else if t > steps {
			t = steps
		}
		fi := int(t)
		f := float64(fi)
		d := t - f
		x := mix64(q.seed + mix64(uint64(b0+int(offs[k]))+mix64(math.Float64bits(v))))
		draw := float64(x>>11) / (1 << 53)
		snapUp := b2i(d >= 0.5) & b2i((f+1)-t <= 1e-9)
		syms[k] = uint8(fi + b2i(d > 1e-9)&(snapUp|b2i(draw < d)))
	}
}

// b2i is 1 for true; the compiler turns it into a flag read, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// mix64 is the splitmix64 finalizer, the repo's standard seeded hash
// (same construction as the cohort sampler's position hashing).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// symPacker writes symbols bits wide, little-endian, behind one another.
// With no bits pending a byte-wide or nibble-wide block goes out whole; in
// the dense mode every full block is a whole number of bytes, so q4 and q8
// never touch the accumulator before the last block.
type symPacker struct {
	out  []byte
	bits uint
	acc  uint64
	have uint
}

func (p *symPacker) put(syms []uint8) {
	if p.have == 0 && p.bits == 8 {
		p.out = p.out[copy(p.out, syms):]
		return
	}
	if p.have == 0 && p.bits == 4 {
		pairs := len(syms) / 2
		out := p.out[:pairs]
		for k := range out {
			out[k] = syms[2*k] | syms[2*k+1]<<4
		}
		p.out, syms = p.out[pairs:], syms[2*pairs:]
	}
	for _, s := range syms {
		p.acc |= uint64(s) << p.have
		if p.have += p.bits; p.have >= 8 {
			p.out[0] = byte(p.acc)
			p.out = p.out[1:]
			p.acc >>= 8
			p.have -= 8
		}
	}
}

func (p *symPacker) flush() {
	if p.have > 0 {
		p.out[0] = byte(p.acc)
	}
}

// symUnpacker is symPacker's inverse. Bounds are checked by the callers'
// exact size arithmetic before construction; a read past the end sees zeros.
type symUnpacker struct {
	in   []byte
	bits uint
	acc  uint64
	have uint
}

func (u *symUnpacker) next() uint64 {
	if u.have < u.bits { // bits ≤ 8: one byte always covers a symbol
		if len(u.in) > 0 {
			u.acc |= uint64(u.in[0]) << u.have
			u.in = u.in[1:]
		}
		u.have += 8
	}
	sym := u.acc & (1<<u.bits - 1)
	u.acc >>= u.bits
	u.have -= u.bits
	return sym
}

// gridAt reads one block's [lo, hi] pair and returns the grid's origin and
// step.
func gridAt(rng []byte, steps float64) (lo, step float64) {
	lo = math.Float64frombits(binary.LittleEndian.Uint64(rng))
	hi := math.Float64frombits(binary.LittleEndian.Uint64(rng[8:]))
	if hi > lo && steps > 0 {
		step = (hi - lo) / steps
	}
	return lo, step
}

// blockGrid tracks the decoder's current per-block grid, advancing
// through the range section as positions cross block boundaries.
type blockGrid struct {
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
func (g *blockGrid) at(i int) (lo, step float64, ok bool) {
	if b := i / quantBlock; b != g.curB {
		if len(g.rng) < quantRangeBytes {
			return 0, 0, false
		}
		g.curB = b
		g.lo, g.step = gridAt(g.rng, g.steps)
		g.rng = g.rng[quantRangeBytes:]
	}
	return g.lo, g.step, true
}

func decodeQuant(dst []float64, b []byte, maxParams int) ([]float64, error) {
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
		// A block at a time: a full block is a whole number of bytes, so q8
		// reads a byte a value and q4 two values a byte through the block's
		// sixteen grid points — the expression the general path evaluates,
		// evaluated once per symbol value. Other widths, and q4's odd last
		// block, unpack through the accumulator.
		rng := b[:rangePart]
		syms := symUnpacker{in: b[rangePart:], bits: uint(qbits)}
		for base := 0; base < n; base += quantBlock {
			lo, step := gridAt(rng, steps)
			rng = rng[quantRangeBytes:]
			blk := out[base:min(base+quantBlock, n)]
			switch {
			case qbits == 8:
				in := syms.in[:len(blk)]
				for k, s := range in {
					blk[k] = lo + float64(s)*step
				}
				syms.in = syms.in[len(in):]
			case qbits == 4 && len(blk)%2 == 0:
				var grid [16]float64
				for s := range grid {
					grid[s] = lo + float64(s)*step
				}
				in := syms.in[:len(blk)/2]
				for k, s := range in {
					blk[2*k], blk[2*k+1] = grid[s&15], grid[s>>4]
				}
				syms.in = syms.in[len(in):]
			default:
				for k := range blk {
					blk[k] = lo + float64(syms.next())*step
				}
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
		grid := blockGrid{rng: b[nb : nb+rangePart], steps: steps, curB: -1}
		syms := symUnpacker{in: b[nb+rangePart:], bits: uint(qbits)}
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
		grid := blockGrid{rng: b[varEnd : varEnd+rangePart], steps: steps, curB: -1}
		syms := symUnpacker{in: b[varEnd+rangePart:], bits: uint(qbits)}
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
