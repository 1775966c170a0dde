package codec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Word kernels against the scalar reference (base_scalar_test.go): the
// rewrite changes how the bitmap form is produced and parsed, never a byte
// of it, so every comparison here is for equality.

// wordTestValues are nonzero values whose f32 conversion is a special case:
// NaN, ±Inf, f64 too large for f32 (→ ±Inf), f64 below the smallest f32
// denormal (→ ±0 on the wire, but still a set mask bit), an f32 denormal.
var wordTestValues = []float64{
	1.5, -2.25, math.NaN(), math.Inf(1), math.Inf(-1),
	1e300, -1e300, 5e-324, -1e-60, 1e-40, math.MaxFloat32 * 2,
}

// wordTestMasks are the density shapes of the table: each fills vec's
// nonzeros; zeros alternate between +0 and −0 so the sign of an elided
// zero is exercised everywhere.
var wordTestMasks = []struct {
	name string
	set  func(n int, rng *rand.Rand) []bool
}{
	{"zero", func(n int, _ *rand.Rand) []bool { return make([]bool, n) }},
	{"3%", func(n int, rng *rand.Rand) []bool { return randomMask(n, 0.03, rng) }},
	{"12.5%-1", func(n int, _ *rand.Rand) []bool { return countMask(n, n/8-1) }},
	{"12.5%", func(n int, _ *rand.Rand) []bool { return countMask(n, n/8) }},
	{"12.5%+1", func(n int, _ *rand.Rand) []bool { return countMask(n, n/8+1) }},
	{"50%", func(n int, rng *rand.Rand) []bool { return randomMask(n, 0.5, rng) }},
	{"ones", func(n int, _ *rand.Rand) []bool { return countMask(n, n) }},
	{"ones-but-one-per-word", func(n int, rng *rand.Rand) []bool {
		m := countMask(n, n)
		for w := 0; w < n; w += 64 {
			m[w+rng.Intn(min(64, n-w))] = false
		}
		return m
	}},
}

func randomMask(n int, density float64, rng *rand.Rand) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = rng.Float64() < density
	}
	return m
}

// countMask sets k positions (clamped to [0, n]) spread evenly over n.
func countMask(n, k int) []bool {
	m := make([]bool, n)
	k = max(0, min(k, n))
	for j := 0; j < k; j++ {
		m[j*n/k] = true
	}
	return m
}

func maskedVector(mask []bool, rng *rand.Rand) []float64 {
	vec := make([]float64, len(mask))
	for i, set := range mask {
		switch {
		case set && rng.Intn(4) == 0:
			vec[i] = wordTestValues[rng.Intn(len(wordTestValues))]
		case set:
			vec[i] = rng.NormFloat64()
		case i%2 == 1:
			vec[i] = math.Copysign(0, -1)
		}
	}
	return vec
}

// sameBits compares two vectors bit for bit (NaN payloads and the sign of
// zero included).
func sameBits(a, b []float64) error {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return fmt.Errorf("len %d (nil %v) vs len %d (nil %v)", len(a), a == nil, len(b), b == nil)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("position %d: %x vs %x", i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
	return nil
}

func TestBaseWordKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sizes := []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 65535, 65536, 65537}
	for _, n := range sizes {
		for _, m := range wordTestMasks {
			vec := maskedVector(m.set(n, rng), rng)
			name := fmt.Sprintf("n=%d/%s", n, m.name)
			want := scalarAppendBase(vec)

			// Both AppendBase paths: exact growth from nothing, and the
			// one-pass path a DenseBaseSize-capacity buffer unlocks — behind a
			// prefix that must survive.
			if got := AppendBase(nil, vec); !bytes.Equal(got, want) {
				t.Errorf("%s: AppendBase(nil) differs from the scalar encoder (%d vs %d bytes)", name, len(got), len(want))
			}
			roomy := append(make([]byte, 0, 3+DenseBaseSize(n)), 0xAA, 0xBB, 0xCC)
			got := AppendBase(roomy, vec)
			if !bytes.Equal(got[:3], []byte{0xAA, 0xBB, 0xCC}) || !bytes.Equal(got[3:], want) {
				t.Errorf("%s: AppendBase into a dense-capacity buffer differs from the scalar encoder", name)
			}
			if &got[0] != &roomy[0] {
				t.Errorf("%s: AppendBase reallocated a buffer with dense capacity", name)
			}
			if BaseSize(vec) != len(want) {
				t.Errorf("%s: BaseSize=%d, scalar encoder wrote %d", name, BaseSize(vec), len(want))
			}

			// The stats scan at the base stage's limit and the quantizer's.
			for _, limit := range []int{(n+7)/8 - 8, (n + 7) / 8} {
				wantNNZ, wantVar := scalarBaseStats(vec, limit)
				gotNNZ, gotVar := baseStats(vec, limit)
				if gotNNZ != wantNNZ || (wantVar < limit) != (gotVar < limit) || (wantVar < limit && gotVar != wantVar) {
					t.Errorf("%s: baseStats(limit %d) = (%d, %d), scalar (%d, %d)", name, limit, gotNNZ, gotVar, wantNNZ, wantVar)
				}
			}

			// Decoders on the bitmap form, whichever form the selection chose.
			body := bitmapBody(vec)
			wantDec, err := scalarDecodeBaseBitmap(nil, body, n)
			if err != nil {
				t.Fatalf("%s: scalar decoder rejected its own encoding: %v", name, err)
			}
			dirty := make([]float64, n)
			for i := range dirty {
				dirty[i] = 7 // a reused buffer must be fully overwritten
			}
			gotDec, err := decodeBaseBitmap(dirty, body, n)
			if err != nil {
				t.Fatalf("%s: word decoder rejected a canonical encoding: %v", name, err)
			}
			if err := sameBits(gotDec, wantDec); err != nil {
				t.Errorf("%s: decoders disagree: %v", name, err)
			}
		}
	}
}

// decodeBothBitmap runs a bitmap body through both decoders and fails
// unless they agree on accept/reject, on the error (the messages carry the
// class and its numbers), and on every decoded bit.
func decodeBothBitmap(t *testing.T, body []byte, maxParams int) ([]float64, error) {
	t.Helper()
	want, wantErr := scalarDecodeBaseBitmap(nil, body, maxParams)
	got, gotErr := decodeBaseBitmap(nil, body, maxParams)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("decoders disagree: word %v, scalar %v", gotErr, wantErr)
	}
	if err := sameBits(got, want); err != nil {
		t.Fatalf("decoders accept but disagree: %v", err)
	}
	return got, gotErr
}

// bitmapBody is the bitmap form of vec without its format tag.
func bitmapBody(vec []float64) []byte {
	nnz, _ := scalarBaseStats(vec, 0)
	out := make([]byte, 1+bitmapBodyBytes(len(vec), nnz))
	scalarEncodeBaseBitmap(out, vec)
	return out[1:]
}

// TestBaseWordDecoderMalformed walks the malformed shapes the fuzz seeds
// start from: truncation at every word boundary of the value region, one
// value byte short or long, and set padding bits in the last mask byte.
func TestBaseWordDecoderMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 63, 64, 65, 200, 259} {
		vec := maskedVector(randomMask(n, 0.6, rng), rng)
		body := bitmapBody(vec)
		valBase := 8 + (n+7)/8
		if _, err := decodeBothBitmap(t, body, n); err != nil {
			t.Fatalf("n=%d: canonical body rejected: %v", n, err)
		}
		cuts := []int{len(body) - 1, valBase}
		for w, k := 0, 0; w < n; w += 64 {
			nnz, _ := scalarBaseStats(vec[w:min(w+64, n)], 0)
			k += nnz
			cuts = append(cuts, valBase+4*k-4, valBase+4*k-1)
		}
		for _, cut := range cuts {
			if cut < 0 || cut >= len(body) {
				continue
			}
			if _, err := decodeBothBitmap(t, body[:cut], n); err == nil {
				t.Errorf("n=%d: body cut to %d of %d bytes accepted", n, cut, len(body))
			}
		}
		if _, err := decodeBothBitmap(t, append(bytes.Clone(body), 0), n); err == nil {
			t.Errorf("n=%d: one stray value byte accepted", n)
		}
		if n%8 != 0 {
			padded := bytes.Clone(body)
			padded[valBase-1] |= 0xFF << (n % 8)
			dec, err := decodeBothBitmap(t, padded, n)
			if err != nil {
				t.Errorf("n=%d: set padding bits rejected: %v", n, err)
			} else if want, _ := scalarDecodeBaseBitmap(nil, body, n); sameBits(dec, want) != nil {
				t.Errorf("n=%d: padding bits changed the decoded vector", n)
			}
		}
		if _, err := decodeBothBitmap(t, body, n-1); err == nil {
			t.Errorf("n=%d: length above maxParams accepted", n)
		}
	}
}

// runShapes are vectors built around runs of all-ones mask words, the
// decoder's one-check-one-pass case: runs of 1, 2 and 1 000 words broken by a
// mixed word, and a run that ends at the < 64 tail.
var runShapes = []struct {
	name string
	runs []int // all-ones words per run; a mixed word follows each but the last
	tail int   // positions after the last whole word, every other one set
}{
	{"1-2-1000", []int{1, 2, 1000}, 0},
	{"1000-then-tail", []int{1000}, 37},
	{"2-1-then-tail", []int{2, 1}, 63},
	{"one-word", []int{1}, 0},
}

// runVector builds a shape's vector and returns, per run, the offset of its
// first value byte in the bitmap body and its length in bytes.
func runVector(runs []int, tail int, rng *rand.Rand) (vec []float64, starts, sizes []int) {
	var mask []bool
	nnz := 0
	for r, words := range runs {
		starts, sizes = append(starts, 4*nnz), append(sizes, 256*words)
		for i := 0; i < 64*words; i++ {
			mask = append(mask, true)
		}
		nnz += 64 * words
		if r < len(runs)-1 {
			for i := 0; i < 64; i++ {
				mask = append(mask, i%3 == 0)
			}
			nnz += 22
		}
	}
	for i := 0; i < tail; i++ {
		mask = append(mask, i%2 == 0)
	}
	vec = maskedVector(mask, rng)
	valBase := 8 + (len(vec)+7)/8
	for r := range starts {
		starts[r] += valBase
	}
	return vec, starts, sizes
}

// TestBaseWordRuns holds both kernels to the scalar reference on the run
// shapes, then cuts the payload inside every run: both decoders refuse with
// the same error, and neither the accepting nor the refusing decode writes
// past dst[:n].
func TestBaseWordRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range runShapes {
		vec, starts, sizes := runVector(sh.runs, sh.tail, rng)
		n := len(vec)
		if got, want := AppendBase(nil, vec), scalarAppendBase(vec); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendBase differs from the scalar encoder (%d vs %d bytes)", sh.name, len(got), len(want))
		}
		body := bitmapBody(vec)
		decodeGuarded := func(b []byte) error {
			buf := make([]float64, n+8)
			for i := range buf {
				buf[i] = 7
			}
			_, err := decodeBaseBitmap(buf[:0], b, n)
			for i, v := range buf[n:] {
				if v != 7 {
					t.Fatalf("%s: decoding %d of %d bytes wrote dst[%d]", sh.name, len(b), len(body), n+i)
				}
			}
			return err
		}
		if _, err := decodeBothBitmap(t, body, n); err != nil {
			t.Fatalf("%s: canonical body rejected: %v", sh.name, err)
		}
		if err := decodeGuarded(body); err != nil {
			t.Fatalf("%s: canonical body rejected into a roomy dst: %v", sh.name, err)
		}
		for r, start := range starts {
			for _, cut := range []int{start, start + 4, start + sizes[r]/2, start + sizes[r] - 1} {
				if _, err := decodeBothBitmap(t, body[:cut], n); err == nil {
					t.Errorf("%s: body cut to %d bytes, inside run %d at [%d, %d), accepted", sh.name, cut, r, start, start+sizes[r])
				}
				if err := decodeGuarded(body[:cut]); err == nil {
					t.Errorf("%s: body cut to %d bytes accepted into a roomy dst", sh.name, cut)
				}
			}
		}
	}
}

// FuzzBaseWordVsScalar feeds raw bytes, as a bitmap body, to the word
// decoder and the scalar reference: same accept/reject decision, same
// error, same bits. An accepted vector is then re-encoded by both encoders,
// which must agree byte for byte.
func FuzzBaseWordVsScalar(f *testing.F) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{5, 64, 130, 259} {
		vec := maskedVector(randomMask(n, 0.5, rng), rng)
		body := bitmapBody(vec)
		f.Add(body)
		f.Add(body[:len(body)-1])
		f.Add(append(bytes.Clone(body), 0))
	}
	for _, sh := range runShapes {
		runs := append([]int(nil), sh.runs...)
		for i := range runs {
			runs[i] = min(runs[i], 40) // a 1 000-word seed slows the mutator a hundredfold
		}
		vec, starts, sizes := runVector(runs, sh.tail, rng)
		body := bitmapBody(vec)
		f.Add(body)
		last := len(starts) - 1
		f.Add(body[:starts[last]+sizes[last]/2])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		vec, err := decodeBothBitmap(t, body, 1<<16)
		if err != nil {
			return
		}
		if got, want := AppendBase(nil, vec), scalarAppendBase(vec); !bytes.Equal(got, want) {
			t.Fatalf("encoders disagree on a decoded vector (%d vs %d bytes)", len(got), len(want))
		}
	})
}
