package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bitmapFormOf rewrites a dense-mode (0x03) quant payload as the
// bitmap-mode (0x01) payload every build before PR 18 shipped for the same
// vector: an all-ones bitmap spliced in after the header. The range and
// symbol sections are the same bytes in both modes — every block is
// non-empty and every value has a symbol.
func bitmapFormOf(tb testing.TB, dense []byte) []byte {
	tb.Helper()
	if dense[0] != FormatQuant || dense[2] != quantModeDense {
		tb.Fatalf("not a dense quant payload: tag 0x%02x mode 0x%02x", dense[0], dense[2])
	}
	n := int(binary.LittleEndian.Uint64(dense[3:]))
	bitmap := bytes.Repeat([]byte{0xFF}, (n+7)/8)
	if n%8 != 0 {
		bitmap[len(bitmap)-1] = 1<<(n%8) - 1
	}
	out := append([]byte(nil), dense[:1+quantHeaderBytes]...)
	out[2] = quantModeBitmap
	return append(append(out, bitmap...), dense[1+quantHeaderBytes:]...)
}

// TestQuantDenseMode: a vector with no zero ships no index part, and that
// payload decodes — into a dirty destination, the decoder no longer clears
// it first — bit-equal to the bitmap-mode payload of the same vector, at
// every width and on both sides of the block and word boundaries.
func TestQuantDenseMode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for bits := 2; bits <= 8; bits++ {
		st, err := NewQuant(bits, uint64(bits))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 255, 256, 257, 65535, 65536, 65537} {
			vec := updateVector(rng, n, n%2 == 1)
			dense, err := st.Encode(nil, Vector{Values: vec})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("q%d n=%d", bits, n)
			if dense[2] != quantModeDense {
				t.Fatalf("%s: mode 0x%02x, want 0x03", name, dense[2])
			}
			if want := 1 + quantHeaderBytes + quantRangeBytes*((n+quantBlock-1)/quantBlock) + (n*bits+7)/8; len(dense) != want {
				t.Fatalf("%s: %d bytes, want %d", name, len(dense), want)
			}
			dirty := make([]float64, n)
			for i := range dirty {
				dirty[i] = math.NaN()
			}
			got, err := DecodeInto(dirty, dense, n)
			if err != nil {
				t.Fatalf("%s: dense: %v", name, err)
			}
			want, err := DecodeInto(nil, bitmapFormOf(t, dense), n)
			if err != nil {
				t.Fatalf("%s: bitmap form: %v", name, err)
			}
			if len(got) != n || len(want) != n {
				t.Fatalf("%s: decoded %d and %d values", name, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s[%d]: dense form %v, bitmap form %v", name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestQuantDenseRejects: the dense form has exactly one valid length and
// one valid count; everything else is refused.
func TestQuantDenseRejects(t *testing.T) {
	st, _ := NewQuant(4, 1)
	good, _ := st.Encode(nil, Vector{Values: updateVector(rand.New(rand.NewSource(4)), 300, false)})
	if _, err := DecodeInto(nil, good, 300); err != nil {
		t.Fatal(err)
	}
	fewer := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(fewer[11:], 299)
	empty := []byte{FormatQuant, 4, quantModeDense}
	empty = append(empty, make([]byte, 16)...) // n = nnz = 0
	for name, b := range map[string][]byte{
		"nnz != n":       fewer,
		"one byte short": good[:len(good)-1],
		"one byte long":  append(append([]byte(nil), good...), 0),
		"n == 0":         empty,
	} {
		if out, err := DecodeInto(nil, b, 300); err == nil {
			t.Errorf("%s: decoded to %d values", name, len(out))
		}
	}
}

// TestImageFromIntermediate: the image an encode writes on the side — read
// off the payload that enters the first entropy stage — is bitwise what a
// receiver decodes from the finished bytes, for every chain shape, and
// costs no second encode.
func TestImageFromIntermediate(t *testing.T) {
	vecs := testVectors(t)
	vecs["nozero"] = updateVector(rand.New(rand.NewSource(6)), 5000, true)
	for _, spec := range fuzzChainSpecs {
		ch, err := Parse(spec, 23)
		if err != nil {
			t.Fatal(err)
		}
		for name, vec := range vecs {
			dirty := make([]float64, len(vec), len(vec)+3)
			for i := range dirty {
				dirty[i] = -7
			}
			before := ch.Encodes()
			enc, image := ch.AppendEncodeImage([]byte{0xAA}, vec, dirty)
			if got := ch.Encodes() - before; got != 1 {
				t.Fatalf("%s %s: %d encodes for one AppendEncodeImage", spec, name, got)
			}
			if enc[0] != 0xAA || !bytes.Equal(enc[1:], ch.AppendEncode(nil, vec)) {
				t.Fatalf("%s %s: bytes differ from AppendEncode's", spec, name)
			}
			want, err := DecodeInto(nil, enc[1:], len(vec))
			if err != nil {
				t.Fatalf("%s %s: %v", spec, name, err)
			}
			if len(image) != len(want) {
				t.Fatalf("%s %s: image has %d values, decode %d", spec, name, len(image), len(want))
			}
			if len(vec) > 0 && &image[0] != &dirty[0] {
				t.Fatalf("%s %s: image was not written into the caller's buffer", spec, name)
			}
			for i := range want {
				if math.Float64bits(image[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %s[%d]: image %v, DecodeInto %v", spec, name, i, image[i], want[i])
				}
			}
		}
		if _, image := ch.AppendEncodeImage(nil, vecs["dense"], nil); image != nil {
			t.Fatalf("%s: an image nobody asked for", spec)
		}
	}
}
