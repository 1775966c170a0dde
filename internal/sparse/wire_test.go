package sparse

import (
	"math"
	"math/rand"
	"testing"

	"fedsu/internal/sparse/codec"
)

func quantizeAll(vec []float64) []float64 {
	out := make([]float64, len(vec))
	for i, v := range vec {
		out[i] = QuantizeWire(v)
	}
	return out
}

func checkVectorRoundTrip(t *testing.T, name string, vec []float64) []byte {
	t.Helper()
	enc := EncodeVectorPayload(vec)
	if got := codec.BaseSize(vec); got != len(enc) {
		t.Fatalf("%s: BaseSize=%d but encoded %d bytes", name, got, len(enc))
	}
	dec, err := DecodeVectorPayloadInto(nil, enc, len(vec))
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	want := quantizeAll(vec)
	if len(dec) != len(want) {
		t.Fatalf("%s: decoded length %d, want %d", name, len(dec), len(want))
	}
	for i := range want {
		if math.Float64bits(dec[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d: got %x want %x", name, i, math.Float64bits(dec[i]), math.Float64bits(want[i]))
		}
	}
	return enc
}

func TestVectorPayloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dense := make([]float64, 1000)
	for i := range dense {
		dense[i] = rng.NormFloat64()
	}
	sparse1pct := make([]float64, 1000)
	for i := 0; i < 10; i++ {
		sparse1pct[rng.Intn(1000)] = rng.NormFloat64()
	}
	cases := map[string][]float64{
		"dense":      dense,
		"sparse1pct": sparse1pct,
		"empty":      {},
		"allzero":    make([]float64, 257),
		"single":     {3.5},
		"lastonly":   append(make([]float64, 99), -2.25),
		"specials":   {0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e300, -1e-300},
	}
	for name, vec := range cases {
		checkVectorRoundTrip(t, name, vec)
	}
}

func TestVectorPayloadFormatSelection(t *testing.T) {
	// Dense vectors should take the bitmap form; very sparse ones the index
	// form — the ~3 % crossover documented in encoding.go.
	dense := make([]float64, 10000)
	for i := range dense {
		dense[i] = 1
	}
	if enc := EncodeVectorPayload(dense); enc[0] != vecFormatBitmap {
		t.Fatalf("dense vector encoded with format 0x%02x, want bitmap", enc[0])
	}
	sparse := make([]float64, 10000)
	for i := 0; i < 100; i++ { // 1 % density
		sparse[i*100] = 1
	}
	if enc := EncodeVectorPayload(sparse); enc[0] != vecFormatIndex {
		t.Fatalf("1%% vector encoded with format 0x%02x, want index", enc[0])
	}
	// The index form must beat gob's per-zero cost by a wide margin.
	if size := codec.BaseSize(sparse); size > 8+100*10 {
		t.Fatalf("1%% of 10k encoded to %d bytes, want well under 1008", size)
	}
}

func TestVectorPayloadDecodeLimit(t *testing.T) {
	vec := make([]float64, 128)
	vec[0], vec[127] = 1, 2
	enc := EncodeVectorPayload(vec)
	if _, err := DecodeVectorPayloadInto(nil, enc, 127); err == nil {
		t.Fatal("decode accepted a vector longer than maxParams")
	}
	if _, err := DecodeVectorPayloadInto(nil, enc, 128); err != nil {
		t.Fatalf("decode rejected a vector at exactly maxParams: %v", err)
	}
}

func TestVectorPayloadDecodeInto(t *testing.T) {
	vec := []float64{0, 1.5, 0, -2, 0}
	enc := EncodeVectorPayload(vec)
	scratch := make([]float64, 8)
	for i := range scratch {
		scratch[i] = 99 // stale contents must be fully overwritten
	}
	dec, err := DecodeVectorPayloadInto(scratch, enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &dec[0] != &scratch[0] {
		t.Fatal("DecodeVectorPayloadInto did not reuse the provided storage")
	}
	want := []float64{0, 1.5, 0, -2, 0}
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("value %d: got %v want %v", i, dec[i], want[i])
		}
	}
}

func TestWireBufPool(t *testing.T) {
	p := codec.GetBuf(100)
	if len(*p) != 0 || cap(*p) < 100 {
		t.Fatalf("codec.GetBuf(100): len=%d cap=%d", len(*p), cap(*p))
	}
	*p = AppendVectorPayload(*p, []float64{1, 2})
	codec.PutBuf(p)
	codec.PutBuf(nil) // no-op

	q := codec.GetVals(64)
	if len(*q) != 64 {
		t.Fatalf("codec.GetVals(64): len=%d", len(*q))
	}
	codec.PutVals(q)
	codec.PutVals(nil)

	// Steady state: a Get/encode/Put cycle should not allocate.
	vec := make([]float64, 4096)
	for i := range vec {
		vec[i] = float64(i)
	}
	need := codec.BaseSize(vec)
	allocs := testing.AllocsPerRun(100, func() {
		buf := codec.GetBuf(need)
		*buf = AppendVectorPayload(*buf, vec)
		out := codec.GetVals(len(vec))
		var err error
		*out, err = DecodeVectorPayloadInto(*out, *buf, len(vec))
		if err != nil {
			t.Fatal(err)
		}
		codec.PutVals(out)
		codec.PutBuf(buf)
	})
	// Under the race detector sync.Pool drops a fraction of Puts on purpose,
	// so the zero-allocation property only holds in a normal build.
	if !raceEnabled && allocs > 0 {
		t.Fatalf("pooled encode/decode cycle allocates %.1f times per run", allocs)
	}
}

func FuzzVectorPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{vecFormatBitmap})
	f.Add(EncodeVectorPayload([]float64{0, 1, 0, -2}))
	f.Add(EncodeVectorPayload(make([]float64, 100)))
	sparse := make([]float64, 2000)
	sparse[1], sparse[1999] = 4, -4
	f.Add(EncodeVectorPayload(sparse))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Decoding arbitrary bytes must never panic or over-allocate; the
		// limit bounds hostile length headers.
		vec, err := DecodeVectorPayloadInto(nil, raw, 1<<16)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode back to the same bits
		// (decoded values are already float32-exact, so this round-trip is
		// lossless).
		enc := EncodeVectorPayload(vec)
		if got := codec.BaseSize(vec); got != len(enc) {
			t.Fatalf("BaseSize=%d, encoded %d bytes", got, len(enc))
		}
		back, err := DecodeVectorPayloadInto(nil, enc, len(vec))
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if len(back) != len(vec) {
			t.Fatalf("length changed across re-encode: %d vs %d", len(back), len(vec))
		}
		for i := range vec {
			if math.Float64bits(back[i]) != math.Float64bits(QuantizeWire(vec[i])) {
				t.Fatalf("value %d changed across re-encode", i)
			}
		}
	})
}
