package codec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// quantShapes are the three index modes' masks over n positions: no zero at
// all, about half, about one in a hundred.
var quantShapes = []struct {
	name    string
	density float64
}{{"dense", 1}, {"bitmap", 0.5}, {"index", 0.01}}

// quantFills are the value classes TestQuantBlocksMatchReference sweeps; each
// fills the nonzero positions of mask (quantBlock-aligned structure included,
// so a class can make whole blocks special).
var quantFills = []struct {
	name string
	fill func(vec []float64, mask []bool, rng *rand.Rand)
}{
	{"normal", func(vec []float64, mask []bool, rng *rand.Rand) {
		for i := range vec {
			// Layer-like scales: neighbouring blocks differ by decades.
			vec[i] = rng.NormFloat64() * math.Pow(10, float64(i/quantBlock%7-3))
		}
	}},
	{"signed-zeros", func(vec []float64, mask []bool, rng *rand.Rand) {
		for i := range vec {
			vec[i] = rng.NormFloat64()
			if i%5 == 0 {
				vec[i] = math.Copysign(0, float64(i%2)-0.5)
			}
		}
	}},
	{"denormals", func(vec []float64, mask []bool, rng *rand.Rand) {
		for i := range vec {
			vec[i] = math.Float64frombits(uint64(rng.Intn(1<<20) + 1))
			if i%3 == 0 {
				vec[i] = -vec[i]
			}
			if i/quantBlock%2 == 1 && i%11 == 0 {
				vec[i] = rng.NormFloat64() // a block mixing denormals and normals
			}
		}
	}},
	{"non-finite", func(vec []float64, mask []bool, rng *rand.Rand) {
		for i := range vec {
			switch vec[i] = rng.NormFloat64(); {
			case i/quantBlock%3 == 2: // a block with no finite value at all
				vec[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[i%3]
			case i%7 == 0:
				vec[i] = math.Inf(1 - i%2*2)
			case i%13 == 0:
				vec[i] = math.NaN()
			}
		}
	}},
	{"constant-blocks", func(vec []float64, mask []bool, rng *rand.Rand) {
		for i := range vec {
			vec[i] = 1.5 + float64(i/quantBlock)
			if i/quantBlock%4 == 3 {
				vec[i] = rng.NormFloat64()
			}
		}
	}},
	{"near-grid", func(vec []float64, mask []bool, rng *rand.Rand) {
		// Every block spans [-1, 1] exactly; the rest sit on, within 1e-9 of
		// and just outside 1e-9 of grid points and half-way points of the
		// coarsest and the finest grid.
		for i := range vec {
			steps := float64(int(1)<<(2+i%7) - 1)
			k := float64(rng.Intn(int(steps) + 1))
			eps := []float64{0, 1e-10, -1e-10, 5e-10, 1e-9, -1e-9, 2e-9, -2e-9, 1e-8}[rng.Intn(9)]
			half := float64(rng.Intn(2)) * 0.5
			vec[i] = -1 + (k+half+eps)*2/steps
		}
		for b0 := 0; b0 < len(vec); b0 += quantBlock {
			vec[b0] = -1
			if b0+1 < len(vec) {
				vec[b0+1] = 1
			}
		}
	}},
}

func quantCase(n int, density float64, fill func([]float64, []bool, *rand.Rand), rng *rand.Rand) []float64 {
	mask := randomMask(n, density, rng)
	vec := make([]float64, n)
	fill(vec, mask, rng)
	for i, on := range mask {
		if !on {
			vec[i] = 0
		}
	}
	return vec
}

// checkQuantAgainstReference holds the block encoder and decoder to the
// per-element code on one vector: byte-equal payloads, and bit-equal decodes
// into a destination that held garbage.
func checkQuantAgainstReference(tb testing.TB, q *quantStage, vec []float64) {
	tb.Helper()
	got, want := q.append(nil, vec), q.refAppend(nil, vec)
	if !bytes.Equal(got, want) {
		at := 0
		for at < len(got) && at < len(want) && got[at] == want[at] {
			at++
		}
		tb.Fatalf("payloads differ: %d vs %d bytes, first at byte %d (mode 0x%02x)", len(got), len(want), at, want[2])
	}
	dirty := func() []float64 {
		d := make([]float64, len(vec))
		for i := range d {
			d[i] = math.NaN()
		}
		return d
	}
	dec, err := decodeQuant(dirty(), got[1:], len(vec))
	ref, refErr := refDecodeQuant(dirty(), want[1:], len(vec))
	if err != nil || refErr != nil {
		tb.Fatalf("decode: block %v, reference %v", err, refErr)
	}
	if len(dec) != len(ref) {
		tb.Fatalf("decoded %d values, reference %d", len(dec), len(ref))
	}
	if err := sameBits(dec, ref); err != nil {
		tb.Fatalf("decodes differ: %v", err)
	}
}

func TestQuantBlocksMatchReference(t *testing.T) {
	for bits := 2; bits <= 8; bits++ {
		st, err := NewQuant(bits, uint64(1000+bits))
		if err != nil {
			t.Fatal(err)
		}
		q := st.(*quantStage)
		for _, n := range []int{0, 1, 255, 256, 257, 51200} {
			for _, shape := range quantShapes {
				for _, fill := range quantFills {
					rng := rand.New(rand.NewSource(int64(bits*1_000_003 + n)))
					vec := quantCase(n, shape.density, fill.fill, rng)
					t.Run(fmt.Sprintf("q%d/%d/%s/%s", bits, n, shape.name, fill.name), func(t *testing.T) {
						checkQuantAgainstReference(t, q, vec)
						// Values already on the grid: the decode of the
						// encoding, encoded again.
						grid, err := decodeQuant(nil, q.append(nil, vec)[1:], n)
						if err != nil {
							t.Fatal(err)
						}
						checkQuantAgainstReference(t, q, grid)
					})
				}
			}
		}
	}
}

// TestQuantBlocksTranscodeUnderflow: through "topk,q*" the quantizer sees the
// float32 image of the vector, so inputs below float32's range arrive as
// zeros in the middle of a vector that had none.
func TestQuantBlocksTranscodeUnderflow(t *testing.T) {
	for _, spec := range []string{"topk,q4", "topk,q8", "topk,q3"} {
		chain, err := Parse(spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		q := chain.stages[1].(*quantStage)
		rng := rand.New(rand.NewSource(77))
		for _, n := range []int{1, 255, 256, 257, 51200} {
			vec := make([]float64, n)
			for i := range vec {
				vec[i] = rng.NormFloat64() * 1e-3
				switch i % 9 {
				case 0:
					vec[i] = 1e-50 * rng.NormFloat64() // underflows to ±0
				case 4:
					vec[i] = 1e-41 * rng.NormFloat64() // a float32 denormal
				case 8:
					vec[i] = 1e60 // overflows to +Inf
				}
			}
			got := chain.AppendEncode(nil, vec)
			image, err := DecodeInto(nil, AppendBase(nil, vec), n)
			if err != nil {
				t.Fatal(err)
			}
			if want := q.refAppend(nil, image); !bytes.Equal(got, want) {
				t.Fatalf("%s n=%d: chain payload differs from the reference's encoding of the float32 image", spec, n)
			}
			checkQuantAgainstReference(t, q, image)
		}
	}
}

// TestQuantDecodersAgreeOnMalformed: truncations and single-byte corruptions
// of canonical payloads are accepted or refused by both decoders alike, and
// when accepted decode to the same bits.
func TestQuantDecodersAgreeOnMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, bits := range []int{3, 4, 8} {
		st, _ := NewQuant(bits, 3)
		q := st.(*quantStage)
		for _, shape := range quantShapes {
			vec := quantCase(700, shape.density, quantFills[0].fill, rng)
			enc := q.append(nil, vec)[1:]
			for trial := 0; trial < 400; trial++ {
				b := append([]byte(nil), enc...)
				if trial%4 == 0 {
					b = b[:rng.Intn(len(b))]
				} else {
					b[rng.Intn(min(len(b), 40+trial))] ^= byte(1 + rng.Intn(255))
				}
				dec, err := decodeQuant(nil, b, 1<<12)
				ref, refErr := refDecodeQuant(nil, b, 1<<12)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("q%d %s trial %d: block decoder %v, reference %v", bits, shape.name, trial, err, refErr)
				}
				if err == nil {
					if err := sameBits(dec, ref); err != nil {
						t.Fatalf("q%d %s trial %d: %v", bits, shape.name, trial, err)
					}
				}
			}
		}
	}
}
