package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// updateVector draws an n-parameter model update the way tcp_fedsu_chain
// produces them: no zeros (core.Manager compacts what it syncs), "layers"
// of 3000 parameters whose scales span three decades, so neighbouring
// 256-position blocks get very different [lo, hi] ranges. heavy widens the
// tails (a per-value lognormal factor), which moves a block's grid with its
// outliers and makes the symbol statistics drift from block to block — the
// error-collective case.
func updateVector(rng *rand.Rand, n int, heavy bool) []float64 {
	vec := make([]float64, n)
	for i := range vec {
		scale := math.Pow(10, float64((i/3000)%4)-3)
		v := rng.NormFloat64() * scale
		if heavy {
			v *= math.Exp(0.5 * rng.NormFloat64())
		}
		if v == 0 {
			v = scale
		}
		vec[i] = v
	}
	return vec
}

type entropyShape struct {
	name   string
	inner  []byte
	budget float64 // coded size allowed, as a multiple of the reference coder's
}

// entropyShapes builds the inner payloads the entropy stage sees on the
// chain workload — q4 uploads, q8 replies (a mean of four uploads' images),
// at the error-collective and the model-collective size — plus an
// index-form quant payload and a low-rank factor payload. Seeded: the
// byte-budget test and the benchmarks see the same bytes on every run.
func entropyShapes(tb testing.TB) []entropyShape {
	tb.Helper()
	rng := rand.New(rand.NewSource(18))
	q4, _ := NewQuant(4, 3)
	q8, _ := NewQuant(8, 3)
	enc := func(st Stage, vec []float64) []byte {
		out, err := st.Encode(nil, Vector{Values: vec})
		if err != nil {
			tb.Fatal(err)
		}
		return out
	}
	var shapes []entropyShape
	for _, sz := range []struct {
		name string
		n    int
	}{{"8k", 8283}, {"130k", 131159}} {
		mean := make([]float64, sz.n)
		var upload []byte
		for k := 0; k < 4; k++ {
			upload = enc(q4, updateVector(rng, sz.n, false))
			image, err := DecodeInto(nil, upload, sz.n)
			if err != nil {
				tb.Fatal(err)
			}
			for i, v := range image {
				mean[i] += v / 4
			}
		}
		shapes = append(shapes,
			entropyShape{"q4-upload-" + sz.name, upload, 1.03},
			entropyShape{"q8-reply-" + sz.name, enc(q8, mean), 1.03})
	}
	// Statistics that drift from one 128-byte block to the next are the
	// block model's worst case and get a budget of their own: the workload's
	// captured error-collective payloads, 7 % of its bytes, measured
	// ×1.08–1.16 (EXPERIMENTS.md "Chain hot path").
	shapes = append(shapes, entropyShape{"q4-heavy-8k", enc(q4, updateVector(rng, 8283, true)), 1.08})
	sparse := updateVector(rng, 131159, false)
	for i := range sparse {
		if i%97 != 0 {
			sparse[i] = 0
		}
	}
	shapes = append(shapes, entropyShape{"q4-index-130k", enc(q4, sparse), 1.03})
	lr, _ := NewLowRank("lowrank", 8, 5)
	smooth := make([]float64, 256*512)
	for i := range smooth {
		smooth[i] = math.Sin(float64(i/512)/11)*math.Cos(float64(i%512)/17) + 0.3*math.Cos(float64(i/512)/5)
	}
	shapes = append(shapes, entropyShape{"lowrank8-131k", enc(lr, smooth), 1.03})
	for _, s := range shapes[:4] {
		if s.inner[2] != quantModeDense {
			tb.Fatalf("%s: quant mode 0x%02x, want the dense form", s.name, s.inner[2])
		}
	}
	if shapes[5].inner[2] != quantModeIndex || shapes[6].inner[0] != FormatLowRank {
		tb.Fatal("index / low-rank shape took another form")
	}
	return shapes
}

// TestEntropyBytesVsReference holds the block-adaptive model to the byte
// budget of ISSUE 18 against the per-symbol Fenwick coder it replaced: at
// most 3 % more on any shape and 1.5 % more over the lot. Same counts, same
// window; what the block model pays for is its lag (tables up to 512
// symbols old), most where a payload changes section or its statistics
// drift.
func TestEntropyBytesVsReference(t *testing.T) {
	var sumNew, sumRef int
	for _, s := range entropyShapes(t) {
		got, ref := len(appendEntropy(nil, s.inner)), len(refAppendEntropy(nil, s.inner))
		ratio := float64(got) / float64(ref)
		t.Logf("%-16s inner %6d  0x07 %6d  0x06 reference %6d  ratio %.4f", s.name, len(s.inner), got, ref, ratio)
		if ratio > s.budget {
			t.Errorf("%s: %d bytes against the reference's %d (×%.4f, budget ×%.2f)", s.name, got, ref, ratio, s.budget)
		}
		sumNew += got
		sumRef += ref
	}
	ratio := float64(sumNew) / float64(sumRef)
	t.Logf("all shapes: 0x07 %d, 0x06 reference %d, ratio %.4f", sumNew, sumRef, ratio)
	if ratio > 1.015 {
		t.Errorf("all shapes: %d bytes against the reference's %d (×%.4f, budget ×1.015)", sumNew, sumRef, ratio)
	}
}

// foldBoundaries lists the symbol counts at which the model rebuilds its
// tables, up to limit.
func foldBoundaries(limit int) []int {
	var at []int
	for pos, step := 16, 16; pos <= limit; pos += step {
		at = append(at, pos)
		if step < entropyMaxStep {
			step *= 2
		}
	}
	return at
}

// TestEntropyRoundTripLengths round-trips the coder at every length up to
// 600 and one either side of each table rebuild up to 8k symbols, on
// skewed bytes (coded form) and on uniform ones (raw escape).
func TestEntropyRoundTripLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	skewed, uniform := make([]byte, 8300), make([]byte, 8300)
	for i := range skewed {
		skewed[i] = byte(8 + 3*rng.NormFloat64())
	}
	rng.Read(uniform)
	var lengths []int
	for n := 0; n <= 600; n++ {
		lengths = append(lengths, n)
	}
	bounds := foldBoundaries(8200)
	if bounds[0] != 16 || bounds[1] != 48 || bounds[len(bounds)-1]-bounds[len(bounds)-2] != entropyMaxStep {
		t.Fatalf("fold schedule %v is not 16, 48, 112, … then every %d", bounds, entropyMaxStep)
	}
	for _, b := range bounds {
		lengths = append(lengths, b-1, b, b+1)
	}
	for _, src := range [][]byte{skewed, uniform} {
		for _, n := range lengths {
			enc := appendEntropy(nil, src[:n])
			flag := enc[1]
			rawLen, w := binary.Uvarint(enc[2:])
			if int(rawLen) != n {
				t.Fatalf("n=%d: framed length %d", n, rawLen)
			}
			body := enc[2+w:]
			if flag == entropyRaw {
				if !bytes.Equal(body, src[:n]) {
					t.Fatalf("n=%d: raw escape corrupted the payload", n)
				}
				continue
			}
			got := make([]byte, n)
			if !decodeRange(got, body) || !bytes.Equal(got, src[:n]) {
				t.Fatalf("n=%d: coded body does not invert", n)
			}
		}
	}
	if enc := appendEntropy(nil, skewed[:600]); enc[1] != entropyCoded {
		t.Fatal("skewed bytes took the raw escape: the coded path went untested")
	}
}

// TestEntropyTruncation cuts a coded frame at every byte and appends one:
// each must be refused — never a panic, never a vector — because the
// decoder accounts for every byte of the body.
func TestEntropyTruncation(t *testing.T) {
	vec := make([]float64, 700)
	for i := range vec {
		vec[i] = float64(i % 3) // three grid levels and a bitmap: codes well below raw
	}
	q4, _ := NewQuant(4, 1)
	inner, _ := q4.Encode(nil, Vector{Values: vec})
	enc := appendEntropy(nil, inner)
	if enc[1] != entropyCoded {
		t.Fatal("payload took the raw escape")
	}
	if _, err := DecodeInto(nil, enc, len(vec)); err != nil {
		t.Fatalf("whole frame: %v", err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if out, err := DecodeInto(nil, enc[:cut], len(vec)); err == nil {
			t.Fatalf("frame cut at %d of %d bytes decoded to %d values", cut, len(enc), len(out))
		}
	}
	if _, err := DecodeInto(nil, append(enc, 0), len(vec)); err == nil || !strings.Contains(err.Error(), "truncated or overlong") {
		t.Fatalf("frame with a trailing byte: %v", err)
	}
}

// TestRetiredEntropyTag: a 0x06 frame — what every build before PR 18
// shipped — is answered by name, not as an unknown tag or a decode of
// garbage, whatever follows the tag.
func TestRetiredEntropyTag(t *testing.T) {
	old := refAppendEntropy(nil, AppendBase(nil, []float64{1, 0, 2, 0, 3}))
	if old[0] != formatFenwick {
		t.Fatalf("reference coder writes tag 0x%02x", old[0])
	}
	for _, b := range [][]byte{old, {formatFenwick}, {formatFenwick, entropyCoded, 1 << 6}} {
		if _, err := DecodeInto(nil, b, 16); err == nil || !strings.Contains(err.Error(), "retired format") {
			t.Errorf("0x06 payload %x: %v, want the retired-format error", b, err)
		}
	}
	// The reference coder itself still inverts: it is what the byte budget
	// is measured against.
	inner := bytes.Repeat([]byte{1, 2, 3, 3, 3, 7}, 100)
	enc := refAppendEntropy(nil, inner)
	_, w := binary.Uvarint(enc[2:])
	got := make([]byte, len(inner))
	if enc[1] != entropyCoded || !refDecodeRange(got, enc[2+w:]) || !bytes.Equal(got, inner) {
		t.Fatal("reference coder does not invert")
	}
}

// TestEntropyEncoderModelMatchesDecoder: the encoder's folds are handed no
// slot table and skip building it, and nothing else. Over skewed and uniform
// streams long enough to halve the counts several times, both models hold the
// same coding tables after every symbol, and the decoder's slot table agrees
// with them at every fold.
func TestEntropyEncoderModelMatchesDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, skew := range []int{1, 4, 64, 256} {
		var enc, dec entropyModel
		var slot entropySlots
		enc.init(nil)
		dec.init(&slot)
		for i := 0; i < 6000; i++ {
			s := byte(rng.Intn(skew) * rng.Intn(2) * (256 / skew))
			folds := enc.left == 1
			enc.seen(s, nil)
			dec.seen(s, &slot)
			if enc.freq != dec.freq || enc.cum != dec.cum || enc.cnt != dec.cnt || enc.step != dec.step || enc.left != dec.left {
				t.Fatalf("skew %d: models diverge after symbol %d", skew, i)
			}
			if !folds {
				continue
			}
			for sym, c := range dec.cum {
				for target := int(c); target < int(c)+int(dec.freq[sym]); target++ {
					if slot[target] != byte(sym) {
						t.Fatalf("skew %d symbol %d: slot[%d] = %d, want %d", skew, i, target, slot[target], sym)
					}
				}
			}
		}
	}
}

// TestEntropyDecodeSteadyStateAllocs: the decoder's 4 KiB slot table lives in
// its frame — a model that kept a pointer to it moved it to the heap, once
// per decoded message.
func TestEntropyDecodeSteadyStateAllocs(t *testing.T) {
	chain, err := Parse("topk,q4,rans", 1)
	if err != nil {
		t.Fatal(err)
	}
	vec := updateVector(rand.New(rand.NewSource(3)), 4096, false)
	payload := chain.AppendEncode(nil, vec)
	dst := make([]float64, len(vec))
	decode := func() {
		if _, err := DecodeInto(dst, payload, len(vec)); err != nil {
			t.Fatal(err)
		}
	}
	decode() // fills the buffer pool
	if allocs := testing.AllocsPerRun(50, decode); allocs >= 1 {
		t.Errorf("decoding a coded payload allocates %.1f times per message, want 0", allocs)
	}
}
