package codec

import (
	"encoding/binary"
	"fmt"
)

// The entropy stage ("rans" in chain specs) wraps the inner payload —
// the base stage's varint-delta index stream, quantized symbol packs,
// or factor bytes — in an adaptive byte-level range coder. An adaptive
// order-0 model was chosen over a static-table rANS: FedSU messages are
// small (a 1%-dense round is a few KB), and a static frequency table
// costs 256+ header bytes the adaptive coder never ships. The coder is
// the carry-counting range coder (cache + pending-0xFF scheme) over a
// block-adaptive model: both ends count symbols identically and fold the
// counts into static coding tables on the same schedule, so a symbol
// costs the encoder two multiplications and the decoder one division and
// one table lookup (see entropyModel).
//
// Layout after the 0x07 tag:
//
//	[flag u8: 0 raw, 1 coded][rawLen uvarint][raw or coded bytes]
//
// The raw escape keeps the stage total: when coding expands the payload
// (already-dense float32 bits), the inner bytes ship untouched plus two
// bytes of framing. Decoding recurses on the inner payload's own tag,
// depth-capped by decodeDepth; rawLen is bounded by the worst-case
// encodable payload for maxParams, and a coded frame's also by what its
// body can carry, before any allocation.

const (
	entropyRaw   = 0x00
	entropyCoded = 0x01
)

type entropyStage struct{}

// Entropy returns the range-coding stage. It consumes an encoded
// payload; a chain whose vector is still numeric when it reaches this
// stage serializes through the base stage first (the Chain combinator
// inserts that step).
func Entropy() Stage { return entropyStage{} }

func (entropyStage) Name() string { return "rans" }

func (entropyStage) Encode(dst []byte, v Vector) ([]byte, error) {
	if v.Bytes == nil {
		return nil, fmt.Errorf("codec: entropy stage needs an encoded payload (chain inserts the base stage)")
	}
	return appendEntropy(dst, v.Bytes), nil
}

func (entropyStage) Decode(dst []float64, payload []byte, maxParams int) ([]float64, error) {
	if len(payload) < 1 || payload[0] != FormatEntropy {
		return nil, fmt.Errorf("codec: entropy stage expects a 0x07 payload")
	}
	return decodeEntropy(dst, payload[1:], maxParams, 0)
}

// maxInnerPayload is the largest inner payload a maxParams-bounded
// decode can legitimately produce: the index form's worst case of
// ten varint bytes plus four value bytes per entry, plus nested frame
// headers. Anything larger is an allocation bomb.
func maxInnerPayload(maxParams int) int {
	return 256 + 16*maxParams
}

func appendEntropy(dst []byte, inner []byte) []byte {
	base := len(dst)
	dst = growBytes(dst, 2)
	dst[base] = FormatEntropy
	dst = binary.AppendUvarint(dst[:base+2], uint64(len(inner)))
	dst[base+1] = entropyCoded
	mark := len(dst)
	enc := rangeEncoder{cacheSize: 1, out: dst}
	low, rng := uint64(0), uint32(0xFFFFFFFF)
	var m entropyModel
	m.init(nil)
	for _, s := range inner {
		r := rng >> entropyBits
		low += uint64(r) * uint64(m.cum[s])
		rng = r * uint32(m.freq[s])
		for rng < 1<<24 {
			low = enc.shiftLow(low)
			rng <<= 8
		}
		m.seen(s, nil)
	}
	for i := 0; i < 5; i++ {
		low = enc.shiftLow(low)
	}
	dst = enc.out
	if len(dst)-mark >= len(inner) {
		// Coding expanded the payload: escape to the raw form.
		dst = dst[:mark]
		dst[base+1] = entropyRaw
		return append(dst, inner...)
	}
	return dst
}

func decodeEntropy(dst []float64, b []byte, maxParams, depth int) ([]float64, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("codec: entropy payload too short")
	}
	flag := b[0]
	rawLen64, w := binary.Uvarint(b[1:])
	if w <= 0 {
		return nil, fmt.Errorf("codec: entropy payload has a bad length varint")
	}
	body := b[1+w:]
	if rawLen64 == 0 || rawLen64 > uint64(maxInnerPayload(maxParams)) {
		return nil, fmt.Errorf("codec: entropy inner length %d exceeds limit", rawLen64)
	}
	rawLen := int(rawLen64)
	switch flag {
	case entropyRaw:
		if len(body) != rawLen {
			return nil, fmt.Errorf("codec: entropy raw payload has %d bytes, want %d", len(body), rawLen)
		}
		return decodeDepth(dst, body, maxParams, depth+1)
	case entropyCoded:
		// Every symbol narrows the range by 4096/3841 or more (0.0927 bits),
		// so a body carries under 87 symbols per byte.
		if rawLen > 87*len(body)+8 {
			return nil, fmt.Errorf("codec: entropy inner length %d exceeds what %d coded bytes carry", rawLen, len(body))
		}
		innerPtr := GetBuf(rawLen)
		defer PutBuf(innerPtr)
		inner := growBytes(*innerPtr, rawLen)
		if !decodeRange(inner, body) {
			return nil, fmt.Errorf("codec: entropy coded payload truncated or overlong")
		}
		return decodeDepth(dst, inner, maxParams, depth+1)
	default:
		return nil, fmt.Errorf("codec: unknown entropy flag 0x%02x", flag)
	}
}

// entropyModel is an adaptive order-0 model over the byte alphabet whose
// coding tables are static between folds. The counts are the retired 0x06
// coder's — a prior of 1, entropyInc per occurrence, halved once they sum
// past entropyLimit (a window of 0.7–1.4k symbols) — but instead of
// updating a cumulative tree per symbol, a fold rescales them to
// frequencies that sum to 2^entropyBits with a floor of 1, so the coder
// divides by a shift and the decoder finds a symbol by one lookup. The
// first fold comes after 16 symbols; each interval doubles the last up to
// entropyMaxStep. What the lag costs in bytes, and why these constants:
// DESIGN.md §5l.
type entropyModel struct {
	freq, cum [256]uint16
	cnt       [256]uint32
	step      int // symbols between the last two folds
	left      int // symbols until the next one
}

// entropySlots maps a target below 2^entropyBits to its symbol, padded for
// fold's 8-byte stores. Only the decoder looks symbols up, so only the decoder
// owns one and hands it to its model's folds; the encoder passes nil and its
// folds stop at cum — most of a fold is these 4 KiB of stores.
type entropySlots [1<<entropyBits + 8]byte

const (
	entropyBits    = 12
	entropyInc     = 24
	entropyLimit   = 1 << 15
	entropyMaxStep = 512
)

func (m *entropyModel) init(slot *entropySlots) {
	for s := range m.cnt {
		m.cnt[s] = 1
	}
	m.step = 8 // the first fold doubles it
	m.fold(slot)
}

func (m *entropyModel) seen(s byte, slot *entropySlots) {
	m.cnt[s] += entropyInc
	if m.left--; m.left == 0 {
		m.fold(slot)
	}
}

func (m *entropyModel) fold(slot *entropySlots) {
	var sum uint32
	for _, c := range m.cnt {
		sum += c
	}
	if sum >= entropyLimit {
		sum = 0
		for s, c := range m.cnt {
			m.cnt[s] = (c + 1) >> 1
			sum += m.cnt[s]
		}
	}
	// Each symbol keeps 1; the other 4096−256 are shared in proportion and
	// what flooring leaves over goes to the most frequent symbol.
	scale := uint64((1<<entropyBits-256)<<20) / uint64(sum)
	used, best := uint32(0), 0
	for s, c := range m.cnt {
		f := 1 + uint32(uint64(c)*scale>>20)
		m.freq[s] = uint16(f)
		used += f
		if c > m.cnt[best] {
			best = s
		}
	}
	m.freq[best] += uint16(1<<entropyBits - used)
	c := 0
	for s, f := range m.freq {
		m.cum[s] = uint16(c)
		end := c + int(f)
		if slot != nil {
			pat := uint64(s) * 0x0101010101010101
			for ; c < end; c += 8 { // overshoot is rewritten by the next symbol
				binary.LittleEndian.PutUint64(slot[c:], pat)
			}
		}
		c = end
	}
	if m.step < entropyMaxStep {
		m.step *= 2
	}
	m.left = m.step
}

// rangeEncoder is the output half of the carry-counting range coder: the
// 32-bit range and 33-bit low accumulator live in the caller's loop, the
// accumulator's overflow bit propagates here through a cached byte and a
// run of pending 0xFFs.
type rangeEncoder struct {
	cache     byte
	cacheSize int64
	out       []byte
}

func (e *rangeEncoder) shiftLow(low uint64) uint64 {
	if uint32(low) < 0xFF000000 || low>>32 != 0 {
		carry := byte(low >> 32)
		e.out = append(e.out, e.cache+carry)
		for ; e.cacheSize > 1; e.cacheSize-- {
			e.out = append(e.out, 0xFF+carry)
		}
		e.cache = byte(low >> 24)
		e.cacheSize = 0
	}
	e.cacheSize++
	return (low << 8) & 0xFFFFFFFF
}

// decodeRange fills out from a coded body and reports whether the body
// held exactly the bytes that took: a byte per renormalization after the
// encoder's leading cache byte and four of code. Reads past the end see
// zeros, so a hostile body decodes to garbage and fails the count.
func decodeRange(out, body []byte) bool {
	var m entropyModel
	var slot entropySlots
	m.init(&slot)
	var code uint32
	rng, pos := uint32(0xFFFFFFFF), 1
	for ; pos < 5; pos++ {
		code = code<<8 | byteAt(body, pos)
	}
	for i := range out {
		r := rng >> entropyBits
		s := slot[min(code/r, 1<<entropyBits-1)]
		code -= r * uint32(m.cum[s])
		rng = r * uint32(m.freq[s])
		for ; rng < 1<<24; pos++ {
			code = code<<8 | byteAt(body, pos)
			rng <<= 8
		}
		out[i] = s
		m.seen(s, &slot)
	}
	return pos == len(body)
}

// byteAt is b[i], or zero past the end.
func byteAt(b []byte, i int) uint32 {
	if i < len(b) {
		return uint32(b[i])
	}
	return 0
}
