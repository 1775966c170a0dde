package tensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The float64↔float32 kernels against the scalar conversions they replace:
// the selected lane (AVX2 heads plus the Go tail on amd64), the Go loops
// alone, and v != 0 / float32(v) / float64(f) written out here must agree on
// every bit.

// convertSpecials are the float64 values whose mask bit or float32 image is a
// special case. 1e-50 is nonzero but narrows to +0: its mask bit is set and
// its wire value is +0 (the wire's semantics since PR 4).
var convertSpecials = []float64{
	0, math.Copysign(0, -1),
	nanA, nanB, nanS, math.Float64frombits(0xfff0_0000_2000_0001), // signalling, payload partly below float32's 22 bits
	math.Inf(1), math.Inf(-1),
	1e-40, -5e-324, // a float32 subnormal, the smallest float64 one
	math.MaxFloat32 * (1 + 0x1p-25), -math.MaxFloat32 * (1 + 0x1p-25), // round to ±Inf
	math.MaxFloat32 * (1 + 0x1p-26), // rounds back to MaxFloat32
	1e-50, -1e-50,
	1 + 0x1p-24, 1 + 0x1p-24 + 0x1p-50, 1 + 0x3p-24, // ties to even, above a tie, tie the other way
}

// widenSpecials are float32 bit patterns: ±0, quiet and signalling NaNs of
// distinct payloads, ±Inf, the subnormal range's ends, the largest finite.
var widenSpecials = []uint32{
	0, 0x8000_0000, 0x7fc0_0a0a, 0xffc0_0b0b, 0x7f80_0001, 0xffa0_0c0c,
	0x7f80_0000, 0xff80_0000, 1, 0x807f_ffff, 0x7f7f_ffff,
}

func refMasks(src []float64) []uint64 {
	out := make([]uint64, len(src)/64)
	for i := range out {
		for j, v := range src[64*i : 64*i+64] {
			if v != 0 {
				out[i] |= 1 << j
			}
		}
	}
	return out
}

func refNarrow(src []float64) []byte {
	out := make([]byte, 4*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(v)))
	}
	return out
}

func refWiden(src []byte) []float64 {
	out := make([]float64, len(src)/4)
	for i := range out {
		out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
	}
	return out
}

// checkConvert runs the three kernels on src (and on src's own float32 image,
// with raw patterns laid over it where wide says so) in both lanes, behind a
// guard element each that must survive.
func checkConvert(t *testing.T, src []float64, raw []byte, what string) {
	t.Helper()
	n := len(src)
	lanes := map[string]func(func()){"selected": func(f func()) { f() }, "go": withGoVec}
	for impl, in := range lanes {
		in(func() {
			for w, want := range refMasks(src) {
				if got := NonzeroMask((*[64]float64)(src[64*w:])); got != want {
					t.Fatalf("NonzeroMask (%s) %s: word %d is %016x, v != 0 gives %016x", impl, what, w, got, want)
				}
			}
			narrow := bytes.Repeat([]byte{0xa5}, 4*n+4)
			NarrowLE(narrow, src)
			if want := refNarrow(src); !bytes.Equal(narrow[:4*n], want) || !bytes.Equal(narrow[4*n:], []byte{0xa5, 0xa5, 0xa5, 0xa5}) {
				for i := range src {
					if g, w := binary.LittleEndian.Uint32(narrow[4*i:]), binary.LittleEndian.Uint32(want[4*i:]); g != w {
						t.Fatalf("NarrowLE (%s) %s: element %d (%016x) is %08x, float32(v) gives %08x", impl, what, i, math.Float64bits(src[i]), g, w)
					}
				}
				t.Fatalf("NarrowLE (%s) %s: wrote past 4·len(src)", impl, what)
			}
			wide := make([]float64, n+1)
			wide[n] = 7
			WidenLE(wide[:n], raw)
			want := refWiden(raw)
			for i, w := range want {
				if math.Float64bits(wide[i]) != math.Float64bits(w) {
					t.Fatalf("WidenLE (%s) %s: element %d (%08x) is %016x, float64(f) gives %016x", impl, what, i, binary.LittleEndian.Uint32(raw[4*i:]), math.Float64bits(wide[i]), math.Float64bits(w))
				}
			}
			if wide[n] != 7 {
				t.Fatalf("WidenLE (%s) %s: wrote past len(dst)", impl, what)
			}
		})
	}
}

// convertOperands draws n normal values with special s at every position
// ≡ lane (mod 64), and the float32 bytes to widen: the vector's own image
// with raw pattern s (mod the table) at the same positions.
func convertOperands(rng *rand.Rand, n, s, lane int) ([]float64, []byte) {
	src := make([]float64, n)
	for i := range src {
		src[i] = rng.NormFloat64()
		if rng.Intn(8) == 0 {
			src[i] = 0
		}
	}
	for i := lane; i < n; i += 64 {
		src[i] = convertSpecials[s%len(convertSpecials)]
	}
	raw := refNarrow(src)
	for i := lane; i < n; i += 64 {
		binary.LittleEndian.PutUint32(raw[4*i:], widenSpecials[s%len(widenSpecials)])
	}
	return src, raw
}

func TestConvertKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n <= 200; n++ {
		for s := range convertSpecials {
			for lane := 0; lane < min(n, 64); lane++ {
				src, raw := convertOperands(rng, n, s, lane)
				checkConvert(t, src, raw, fmt.Sprintf("n=%d special=%d lane=%d", n, s, lane))
			}
		}
	}
	for _, n := range []int{65_535, 65_536, 65_537} {
		for s := range convertSpecials {
			src, raw := convertOperands(rng, n, s, (7*s+n)%64)
			checkConvert(t, src, raw, fmt.Sprintf("n=%d special=%d", n, s))
		}
	}
	// An all-special vector: every lane of every step at once.
	src := make([]float64, 4*len(convertSpecials)*len(widenSpecials))
	raw := make([]byte, 4*len(src))
	for i := range src {
		src[i] = convertSpecials[i%len(convertSpecials)]
		binary.LittleEndian.PutUint32(raw[4*i:], widenSpecials[i%len(widenSpecials)])
	}
	checkConvert(t, src, raw, "all specials")
}

// FuzzConvertKernels fuzzes the length, a start offset into the backing
// arrays (so operands are not 32-byte aligned) and the raw bytes: eight of
// them make a float64 to mask and narrow, four a float32 to widen.
func FuzzConvertKernels(f *testing.F) {
	f.Add(uint16(0), uint8(0), []byte{})
	f.Add(uint16(64), uint8(1), binary.LittleEndian.AppendUint64(nil, math.Float64bits(nanS)))
	f.Add(uint16(257), uint8(3), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0x80, 0x7f, 0xff, 0xff, 0xef, 0x47})
	f.Add(uint16(1029), uint8(2), binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e-50)))
	f.Fuzz(func(t *testing.T, n uint16, off uint8, pattern []byte) {
		size, o := int(n%4200), int(off%4)
		rng := rand.New(rand.NewSource(int64(n)<<8 | int64(off)))
		src := make([]float64, o+size)[o:]
		raw := make([]byte, 4*size+o)[o:]
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		copy(raw, refNarrow(src))
		for i := 0; 8*i+8 <= len(pattern) && i < size; i++ {
			src[(5*i)%size] = math.Float64frombits(binary.LittleEndian.Uint64(pattern[8*i:]))
		}
		for i := 0; 4*i+4 <= len(pattern) && i < size; i++ {
			copy(raw[4*((3*i)%size):], pattern[4*i:4*i+4])
		}
		checkConvert(t, src, raw, fmt.Sprintf("n=%d off=%d pattern=%x", size, o, pattern))
	})
}
