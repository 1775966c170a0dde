package codec

import "encoding/binary"

// The per-symbol Fenwick-model range coder that shipped as tag 0x06 until
// PR 18, moved here verbatim (types renamed ref*) as the compression and
// speed reference for the block-adaptive model in entropy.go: it updates
// its model after every symbol, so its coded size is what the block
// model's lag is measured against.

// refAppendEntropy is the retired appendEntropy: same frame, tag 0x06.
func refAppendEntropy(dst []byte, inner []byte) []byte {
	base := len(dst)
	dst = growBytes(dst, 2)
	dst[base] = formatFenwick
	dst = binary.AppendUvarint(dst[:base+2], uint64(len(inner)))
	dst[base+1] = entropyCoded
	mark := len(dst)
	enc := refRangeEncoder{out: dst}
	var m refEntropyModel
	m.init()
	for _, by := range inner {
		enc.encode(&m, by)
	}
	dst = enc.flush()
	if len(dst)-mark >= len(inner) {
		dst = dst[:mark]
		dst[base+1] = entropyRaw
		return append(dst, inner...)
	}
	return dst
}

// refDecodeRange inverts a coded 0x06 body into out, reporting overrun.
func refDecodeRange(out, body []byte) bool {
	dec := newRefRangeDecoder(body)
	var m refEntropyModel
	m.init()
	for i := range out {
		out[i] = dec.decode(&m)
	}
	return !dec.overrun
}

// refEntropyModel is an adaptive order-0 model over the byte alphabet:
// plain frequencies plus a Fenwick tree for O(log 256) cumulative sums
// and symbol lookup. Totals stay well under the coder's 2^24 range
// floor, so range/total never truncates to zero.
type refEntropyModel struct {
	freq [256]uint32
	tree [257]uint32 // Fenwick, 1-based
	tot  uint32
}

const (
	refEntropyInc     = 24
	refEntropyRescale = 1 << 15
)

func (m *refEntropyModel) init() {
	for i := range m.freq {
		m.freq[i] = 1
	}
	m.rebuild()
}

func (m *refEntropyModel) rebuild() {
	clear(m.tree[:])
	m.tot = 0
	for s, f := range m.freq {
		m.tot += f
		i := s + 1
		for ; i <= 256; i += i & (-i) {
			m.tree[i] += f
		}
	}
}

// cum is the cumulative frequency of symbols strictly below s.
func (m *refEntropyModel) cum(s int) uint32 {
	var c uint32
	for i := s; i > 0; i -= i & (-i) {
		c += m.tree[i]
	}
	return c
}

// find returns the symbol whose cumulative interval contains target,
// plus that symbol's cumulative base.
func (m *refEntropyModel) find(target uint32) (sym int, base uint32) {
	idx := 0
	for bit := 256; bit > 0; bit >>= 1 {
		next := idx + bit
		if next <= 256 && m.tree[next] <= target {
			target -= m.tree[next]
			base += m.tree[next]
			idx = next
		}
	}
	return idx, base
}

func (m *refEntropyModel) update(s int) {
	m.freq[s] += refEntropyInc
	for i := s + 1; i <= 256; i += i & (-i) {
		m.tree[i] += refEntropyInc
	}
	m.tot += refEntropyInc
	if m.tot >= refEntropyRescale {
		for i := range m.freq {
			m.freq[i] = (m.freq[i] + 1) >> 1
		}
		m.rebuild()
	}
}

// refRangeEncoder is the carry-counting range coder: 32-bit range, 33-bit
// low accumulator whose overflow bit propagates through a cached byte
// and a run of pending 0xFFs.
type refRangeEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
}

func (e *refRangeEncoder) encode(m *refEntropyModel, sym byte) {
	if e.rng == 0 { // first call
		e.rng = 0xFFFFFFFF
		e.cacheSize = 1
	}
	s := int(sym)
	cum, f, tot := m.cum(s+1), m.freq[s], m.tot
	cumBase := cum - f
	r := e.rng / tot
	e.low += uint64(r) * uint64(cumBase)
	e.rng = r * f
	for e.rng < 1<<24 {
		e.shiftLow()
		e.rng <<= 8
	}
	m.update(s)
}

func (e *refRangeEncoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || e.low>>32 != 0 {
		carry := byte(e.low >> 32)
		e.out = append(e.out, e.cache+carry)
		for ; e.cacheSize > 1; e.cacheSize-- {
			e.out = append(e.out, 0xFF+carry)
		}
		e.cache = byte(e.low >> 24)
		e.cacheSize = 0
	}
	e.cacheSize++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

func (e *refRangeEncoder) flush() []byte {
	if e.rng == 0 { // nothing encoded
		e.rng = 0xFFFFFFFF
		e.cacheSize = 1
	}
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.out
}

type refRangeDecoder struct {
	code    uint32
	rng     uint32
	in      []byte
	pos     int
	overrun bool
}

func newRefRangeDecoder(in []byte) *refRangeDecoder {
	d := &refRangeDecoder{rng: 0xFFFFFFFF, in: in}
	d.next() // leading zero byte emitted by the encoder's initial cache
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | uint32(d.next())
	}
	return d
}

func (d *refRangeDecoder) next() byte {
	if d.pos >= len(d.in) {
		d.overrun = true
		return 0
	}
	by := d.in[d.pos]
	d.pos++
	return by
}

func (d *refRangeDecoder) decode(m *refEntropyModel) byte {
	r := d.rng / m.tot
	target := d.code / r
	if target >= m.tot {
		target = m.tot - 1
	}
	sym, base := m.find(target)
	f := m.freq[sym]
	d.code -= r * base
	d.rng = r * f
	for d.rng < 1<<24 {
		d.code = d.code<<8 | uint32(d.next())
		d.rng <<= 8
	}
	m.update(sym)
	return byte(sym)
}
