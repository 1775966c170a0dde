package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// refBaseEncode is an independent reference implementation of the PR 4
// vector codec (straight from the wire format documented in DESIGN.md
// §5f), used to pin the base stage byte-for-byte without depending on
// the code under test.
func refBaseEncode(vec []float64) []byte {
	var idx []int
	for i, v := range vec {
		if v != 0 {
			idx = append(idx, i)
		}
	}
	// bitmap form
	bm := []byte{0x01}
	bm = binary.LittleEndian.AppendUint64(bm, uint64(len(vec)))
	bits := make([]byte, (len(vec)+7)/8)
	for _, i := range idx {
		bits[i/8] |= 1 << (i % 8)
	}
	bm = append(bm, bits...)
	for _, i := range idx {
		bm = binary.LittleEndian.AppendUint32(bm, math.Float32bits(float32(vec[i])))
	}
	// index form
	ix := []byte{0x02}
	ix = binary.LittleEndian.AppendUint64(ix, uint64(len(vec)))
	ix = binary.LittleEndian.AppendUint64(ix, uint64(len(idx)))
	prev := 0
	for _, i := range idx {
		ix = binary.AppendUvarint(ix, uint64(i-prev))
		prev = i
	}
	for _, i := range idx {
		ix = binary.LittleEndian.AppendUint32(ix, math.Float32bits(float32(vec[i])))
	}
	if len(bm) <= len(ix) {
		return bm
	}
	return ix
}

func testVectors(t *testing.T) map[string][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	sparse1pct := make([]float64, 4096)
	for i := range sparse1pct {
		if rng.Float64() < 0.01 {
			sparse1pct[i] = rng.NormFloat64()
		}
	}
	dense := make([]float64, 1000)
	for i := range dense {
		dense[i] = rng.NormFloat64()
	}
	structured := make([]float64, 64*32)
	for i := 0; i < 64; i++ {
		for j := 0; j < 32; j++ {
			structured[i*32+j] = math.Sin(float64(i)/9)*math.Cos(float64(j)/7) + 0.01*rng.NormFloat64()
		}
	}
	return map[string][]float64{
		"empty":      {},
		"allzero":    make([]float64, 300),
		"single":     {0, 0, 3.25, 0},
		"sparse1pct": sparse1pct,
		"dense":      dense,
		"structured": structured,
	}
}

// TestBaseMatchesReference pins the one-stage chain byte-for-byte
// against the independent PR 4 reference encoder (satellite: regression
// for the degenerate chain).
func TestBaseMatchesReference(t *testing.T) {
	for name, vec := range testVectors(t) {
		got := AppendBase(nil, vec)
		want := refBaseEncode(vec)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: base encoding differs from PR 4 reference (%d vs %d bytes)", name, len(got), len(want))
		}
		if BaseSize(vec) != len(want) {
			t.Errorf("%s: BaseSize=%d, want %d", name, BaseSize(vec), len(want))
		}
		ch := Default()
		if !ch.IsDefault() {
			t.Fatalf("Default() chain is not default")
		}
		if enc := ch.AppendEncode(nil, vec); !bytes.Equal(enc, want) {
			t.Errorf("%s: default chain encoding differs from PR 4 reference", name)
		}
		if ch.PayloadSize(vec) != len(want) {
			t.Errorf("%s: default chain PayloadSize=%d, want %d", name, ch.PayloadSize(vec), len(want))
		}
	}
}

// TestBaseSizeMatchesExhaustive checks the early cut-off in baseStats
// against the exhaustive reference, which prices both forms in full: at
// the lengths around the n ≤ 64 "index can never win" edge, at densities
// straddling the ~3 % crossover, and with the nonzeros packed at either
// end (large first delta, or a footprint that crosses the limit late).
// The quantizer shares the scan for its own index/bitmap choice, so its
// mode byte is checked against the exhaustive footprint too.
func TestBaseSizeMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q4, err := NewQuant(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, vec []float64) {
		t.Helper()
		want := refBaseEncode(vec)
		if got := BaseSize(vec); got != len(want) {
			t.Errorf("%s: BaseSize=%d, exhaustive %d", name, got, len(want))
		}
		if got := AppendBase(nil, vec); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendBase differs from the exhaustive encoder (%d vs %d bytes)", name, len(got), len(want))
		}
		footprint, prev := 0, 0
		for i, v := range vec {
			if v != 0 {
				footprint += uvarintLen(uint64(i - prev))
				prev = i
			}
		}
		wantMode, nnz := byte(quantModeBitmap), countNonzero(vec)
		if footprint < (len(vec)+7)/8 {
			wantMode = quantModeIndex
		}
		if nnz == len(vec) && nnz > 0 { // PR 18: a vector with no zero ships no index part
			wantMode = quantModeDense
		}
		enc, err := q4.Encode(nil, Vector{Values: vec})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if enc[2] != wantMode {
			t.Errorf("%s: quant mode 0x%02x, exhaustive footprint %d of %d bitmap bytes wants 0x%02x", name, enc[2], footprint, (len(vec)+7)/8, wantMode)
		}
	}
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 66, 127, 128, 129, 1000, 4096, 30000} {
		for _, density := range []float64{0, 0.005, 0.02, 0.025, 0.028, 0.03, 0.032, 0.035, 0.04, 0.1, 0.5, 1} {
			vec := make([]float64, n)
			for i := range vec {
				if rng.Float64() < density {
					vec[i] = rng.NormFloat64()
				}
			}
			check("random n="+strconv.Itoa(n)+" d="+strconv.FormatFloat(density, 'g', -1, 64), vec)
			k := int(density * float64(n))
			head, tail := make([]float64, n), make([]float64, n)
			for i := 0; i < k; i++ {
				head[i], tail[n-1-i] = 1, 1
			}
			check("head n="+strconv.Itoa(n)+" k="+strconv.Itoa(k), head)
			check("tail n="+strconv.Itoa(n)+" k="+strconv.Itoa(k), tail)
		}
	}
}

func quantizeWire(v float64) float64 {
	if v == 0 {
		return 0
	}
	return float64(float32(v))
}

func TestBaseRoundTrip(t *testing.T) {
	for name, vec := range testVectors(t) {
		dec, err := DecodeInto(nil, AppendBase(nil, vec), 0)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(dec) != len(vec) {
			t.Fatalf("%s: decoded %d values, want %d", name, len(dec), len(vec))
		}
		for i, v := range vec {
			if dec[i] != quantizeWire(v) {
				t.Fatalf("%s[%d]: got %v, want %v", name, i, dec[i], quantizeWire(v))
			}
		}
	}
}

func TestQuantRoundTrip(t *testing.T) {
	for _, bits := range []int{2, 4, 8} {
		st, err := NewQuant(bits, 42)
		if err != nil {
			t.Fatal(err)
		}
		for name, vec := range testVectors(t) {
			enc, err := st.Encode(nil, Vector{Values: vec})
			if err != nil {
				t.Fatalf("q%d %s: encode: %v", bits, name, err)
			}
			dec, err := DecodeInto(nil, enc, len(vec))
			if err != nil {
				t.Fatalf("q%d %s: decode: %v", bits, name, err)
			}
			if len(dec) != len(vec) {
				t.Fatalf("q%d %s: decoded %d values, want %d", bits, name, len(dec), len(vec))
			}
			lo, hi := quantRange(vec)
			step := 0.0
			if hi > lo {
				step = (hi - lo) / float64(int(1)<<bits-1)
			}
			for i, v := range vec {
				if v == 0 && dec[i] != 0 {
					t.Fatalf("q%d %s[%d]: zero decoded as %v", bits, name, i, dec[i])
				}
				if v != 0 && math.Abs(dec[i]-v) > step+1e-12 {
					t.Fatalf("q%d %s[%d]: %v decoded as %v (step %v)", bits, name, i, v, dec[i], step)
				}
			}
			// Grid idempotence: re-encoding the decoded vector reproduces it.
			enc2, err := st.Encode(nil, Vector{Values: dec})
			if err != nil {
				t.Fatal(err)
			}
			dec2, err := DecodeInto(nil, enc2, len(vec))
			if err != nil {
				t.Fatal(err)
			}
			for i := range dec {
				if dec2[i] != dec[i] {
					t.Fatalf("q%d %s[%d]: grid not idempotent: %v -> %v", bits, name, i, dec[i], dec2[i])
				}
			}
		}
	}
}

// TestQuantUnbiased checks E[decode] ≈ value: stochastic rounding must
// not drift the aggregate.
func TestQuantUnbiased(t *testing.T) {
	st, _ := NewQuant(4, 1)
	const n = 20000
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = float64(i) / n * 2.0 // spans [0, 2): includes off-grid points
	}
	vec[0] = 0.31
	enc, err := st.Encode(nil, Vector{Values: vec})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeInto(nil, enc, n)
	if err != nil {
		t.Fatal(err)
	}
	var sumErr float64
	for i := range vec {
		sumErr += dec[i] - vec[i]
	}
	meanErr := sumErr / n
	lo, hi := quantRange(vec)
	step := (hi - lo) / 15
	if math.Abs(meanErr) > step/10 {
		t.Fatalf("mean quantization error %v exceeds step/10=%v: rounding is biased", meanErr, step/10)
	}
}

// TestQuantCrossover exercises both index modes: a dense vector picks
// the bitmap part, a very sparse one the varint part — the crossover
// recomputed for the quantized value stream.
func TestQuantCrossover(t *testing.T) {
	st, _ := NewQuant(4, 9)
	dense := make([]float64, 512)
	for i := range dense {
		dense[i] = float64(i%7) + 1
	}
	dense[100] = 0 // PR 18: without a zero the vector would ship mode 0x03, no index part at all
	sparse := make([]float64, 100000)
	sparse[5], sparse[70000] = 1.5, -2.5
	encDense, _ := st.Encode(nil, Vector{Values: dense})
	encSparse, _ := st.Encode(nil, Vector{Values: sparse})
	if encDense[1+1] != quantModeBitmap {
		t.Errorf("dense vector picked mode 0x%02x, want bitmap", encDense[2])
	}
	if encSparse[1+1] != quantModeIndex {
		t.Errorf("sparse vector picked mode 0x%02x, want index", encSparse[2])
	}
	for _, enc := range [][]byte{encDense, encSparse} {
		if _, err := DecodeInto(nil, enc, 100000); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
}

func TestLowRankRoundTrip(t *testing.T) {
	st, err := NewLowRank("lowrank", 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly rank-2 matrix: the stage must reconstruct it near-exactly.
	const m, n = 32, 64
	a := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = math.Sin(float64(i))*math.Cos(float64(j)) + 0.5*math.Cos(float64(i))*math.Sin(float64(j))
		}
	}
	enc, err := st.Encode(nil, Vector{Values: a})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if enc[0] != FormatLowRank {
		t.Fatalf("tag 0x%02x, want 0x05", enc[0])
	}
	if len(enc) >= BaseSize(a) {
		t.Fatalf("lowrank encoding (%d bytes) not smaller than base (%d)", len(enc), BaseSize(a))
	}
	dec, err := DecodeInto(nil, enc, m*n)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var num, den float64
	for i := range a {
		num += (dec[i] - a[i]) * (dec[i] - a[i])
		den += a[i] * a[i]
	}
	if rel := math.Sqrt(num / den); rel > 1e-3 {
		t.Fatalf("rank-2 matrix reconstruction error %v, want < 1e-3", rel)
	}
	// Deterministic: same input, same bytes.
	enc2, _ := st.Encode(nil, Vector{Values: a})
	if !bytes.Equal(enc, enc2) {
		t.Fatal("lowrank encoding is not deterministic")
	}
}

func TestLowRankSkips(t *testing.T) {
	st, _ := NewLowRank("lowrank", 8, 3)
	// 1% density: base encoding is far cheaper than factors — must skip.
	vec := make([]float64, 10000)
	for i := 0; i < 100; i++ {
		vec[i*100] = 1
	}
	if _, err := st.Encode(nil, Vector{Values: vec}); err != errSkip {
		t.Fatalf("sparse vector: err=%v, want skip", err)
	}
	// Tiny vector: below lowRankMinTotal — must skip.
	if _, err := st.Encode(nil, Vector{Values: []float64{1, 2, 3, 4}}); err != errSkip {
		t.Fatalf("tiny vector: err=%v, want skip", err)
	}
	// Chain-level fall-through: "lowrank" on a skipping vector equals base.
	ch, err := Parse("lowrank", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ch.AppendEncode(nil, vec), AppendBase(nil, vec); !bytes.Equal(got, want) {
		t.Fatal("skipping lowrank chain is not the base encoding")
	}
}

func TestEntropyRoundTrip(t *testing.T) {
	for name, vec := range testVectors(t) {
		if len(vec) == 0 {
			continue
		}
		inner := AppendBase(nil, vec)
		enc := appendEntropy(nil, inner)
		dec, err := DecodeInto(nil, enc, len(vec))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		for i, v := range vec {
			if dec[i] != quantizeWire(v) {
				t.Fatalf("%s[%d]: got %v, want %v", name, i, dec[i], quantizeWire(v))
			}
		}
	}
}

// TestEntropyCompresses checks the coder actually shrinks a skewed
// stream and that the raw escape caps expansion at the 2-byte frame +
// length varint.
func TestEntropyCompresses(t *testing.T) {
	vec := make([]float64, 100000)
	for i := 0; i < len(vec); i += 100 {
		vec[i] = float64((i/100)%15) * 0.125 // repetitive quantized-looking values
	}
	st, _ := NewQuant(4, 5)
	inner, err := st.Encode(nil, Vector{Values: vec})
	if err != nil {
		t.Fatal(err)
	}
	enc := appendEntropy(nil, inner)
	if len(enc) >= len(inner) {
		t.Fatalf("entropy coding did not compress: %d -> %d bytes", len(inner), len(enc))
	}
	// Incompressible input: expansion bounded by the frame.
	noisy := make([]byte, 4096)
	rng := rand.New(rand.NewSource(3))
	rng.Read(noisy)
	noisy[0] = FormatBitmap
	escaped := appendEntropy(nil, noisy)
	if len(escaped) > len(noisy)+2+binary.MaxVarintLen64 {
		t.Fatalf("raw escape overhead too large: %d -> %d bytes", len(noisy), len(escaped))
	}
}

func TestChainSpecs(t *testing.T) {
	valid := []string{"topk", "sparse", "q4", "q2", "q8", "rans", "lowrank", "lowrank4",
		"topk,q4", "topk,q4,rans", "q4,rans", "lowrank,rans", "topk,rans", "rans,rans"}
	for _, spec := range valid {
		if _, err := Parse(spec, 1); err != nil {
			t.Errorf("Parse(%q): unexpected error %v", spec, err)
		}
	}
	invalid := []string{"", "bogus", "q9", "q4,topk", "topk,topk", "q4,q4",
		"topk,lowrank", "q4,lowrank", "rans,q4", "lowrank,q4", "topk,q4,rans,rans,rans"}
	for _, spec := range invalid {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

func TestChainRoundTripAllSpecs(t *testing.T) {
	vecs := testVectors(t)
	for _, spec := range []string{"topk", "q4", "topk,q4", "topk,q4,rans", "q8,rans", "lowrank", "lowrank,rans", "rans"} {
		ch, err := Parse(spec, 17)
		if err != nil {
			t.Fatal(err)
		}
		for name, vec := range vecs {
			enc := ch.AppendEncode(nil, vec)
			dec, err := DecodeInto(nil, enc, len(vec))
			if err != nil {
				t.Fatalf("%s %s: decode: %v", spec, name, err)
			}
			rt, _ := ch.RoundTripSized(nil, vec)
			if !reflect.DeepEqual(dec, rt) {
				t.Fatalf("%s %s: DecodeInto and RoundTripSized disagree", spec, name)
			}
			if got := ch.PayloadSize(vec); got != len(enc) {
				t.Fatalf("%s %s: PayloadSize=%d, encoded %d", spec, name, got, len(enc))
			}
			// Wire-image idempotence: the image of the image is the image.
			// The low-rank stage is exempt: its image is a subspace
			// projection, not a grid, so re-factorizing the reconstruction
			// is not a fixed point (and nothing relies on it — values are
			// encoded exactly once on either transport).
			if strings.Contains(spec, "lowrank") {
				continue
			}
			rt2, _ := ch.RoundTripSized(nil, rt)
			for i := range rt {
				if rt2[i] != rt[i] {
					t.Fatalf("%s %s[%d]: wire image not idempotent: %v -> %v", spec, name, i, rt[i], rt2[i])
				}
			}
		}
	}
}

// TestChainDeterministicConcurrent encodes the same vector from many
// goroutines through one shared chain: every encoding must be
// byte-identical (the worker-count bit-identity contract), and the
// atomic counters must account every message.
func TestChainDeterministicConcurrent(t *testing.T) {
	ch, err := Parse("topk,q4,rans", 99)
	if err != nil {
		t.Fatal(err)
	}
	vec := testVectors(t)["sparse1pct"]
	want := ch.AppendEncode(nil, vec)
	const workers, per = 8, 20
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if got := ch.AppendEncode(nil, vec); !bytes.Equal(got, want) {
					errs <- "concurrent encoding differs"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	var msgs int64
	for _, sb := range ch.Counters() {
		if sb.Stage == "topk" {
			msgs = sb.Msgs
		}
	}
	if want := int64(workers*per + 1); msgs != want {
		t.Fatalf("topk stage counted %d msgs, want %d", msgs, want)
	}
}

// TestChainTwoLegsConcurrent encodes two different vectors through one
// chain and its Reply() from two goroutines at once, as a TCP client's two
// collective legs do: every payload and wire image must equal the serial
// encode's, and each stage's counters must be the sum of what the two
// streams charge serially.
func TestChainTwoLegsConcurrent(t *testing.T) {
	const per = 40
	vecs := testVectors(t)
	legs := [2][]float64{vecs["dense"], vecs["structured"]}
	for _, spec := range []string{"topk,q4,rans", "q4", "lowrank,rans"} {
		t.Run(spec, func(t *testing.T) {
			serial, err := Parse(spec, 11)
			if err != nil {
				t.Fatal(err)
			}
			shared, _ := Parse(spec, 11)
			var want [2][]byte
			var wantImg [2][]float64
			var wantReply [2][]byte
			for i := 0; i < per; i++ {
				for l, v := range legs {
					want[l], wantImg[l] = serial.AppendEncodeImage(nil, v, make([]float64, len(v)))
					wantReply[l] = serial.Reply().AppendEncode(nil, v)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, 2)
			for l, v := range legs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					img := make([]float64, len(v))
					for i := 0; i < per; i++ {
						got, gotImg := shared.AppendEncodeImage(nil, v, img)
						if !bytes.Equal(got, want[l]) {
							errs <- fmt.Errorf("leg %d, encode %d: payload differs from the serial encode", l, i)
							return
						}
						for j := range gotImg {
							if math.Float64bits(gotImg[j]) != math.Float64bits(wantImg[l][j]) {
								errs <- fmt.Errorf("leg %d, encode %d: image[%d] = %v, serial %v", l, i, j, gotImg[j], wantImg[l][j])
								return
							}
						}
						if got := shared.Reply().AppendEncode(nil, v); !bytes.Equal(got, wantReply[l]) {
							errs <- fmt.Errorf("leg %d, encode %d: reply payload differs from the serial encode", l, i)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for _, c := range [][2]*Chain{{serial, shared}, {serial.Reply(), shared.Reply()}} {
				if a, b := c[0].Counters(), c[1].Counters(); !reflect.DeepEqual(a, b) {
					t.Errorf("counters: concurrent %+v, serial %+v", b, a)
				}
			}
		})
	}
}

func TestChainCounters(t *testing.T) {
	ch, _ := Parse("topk,q4,rans", 1)
	vec := testVectors(t)["sparse1pct"]
	enc := ch.AppendEncode(nil, vec)
	cs := ch.Counters()
	if len(cs) != 3 {
		t.Fatalf("got %d counter rows, want 3: %+v", len(cs), cs)
	}
	if cs[0].Stage != "topk" || cs[1].Stage != "q4" || cs[2].Stage != "rans" {
		t.Fatalf("stage order wrong: %+v", cs)
	}
	if cs[0].InBytes != int64(8*len(vec)) {
		t.Errorf("topk in bytes %d, want %d", cs[0].InBytes, 8*len(vec))
	}
	if cs[2].OutBytes != int64(len(enc)) {
		t.Errorf("rans out bytes %d, want encoded %d", cs[2].OutBytes, len(enc))
	}
	// Each stage's output feeds the next stage's input.
	if cs[0].OutBytes != cs[1].InBytes || cs[1].OutBytes != cs[2].InBytes {
		t.Errorf("stage byte flow broken: %+v", cs)
	}
}

// TestDecodeBounds feeds hostile headers: huge claimed lengths must be
// rejected before allocation, for every stage family.
func TestDecodeBounds(t *testing.T) {
	huge := binary.LittleEndian.AppendUint64(nil, 1<<40)
	cases := map[string][]byte{
		"bitmap-bomb":  append([]byte{FormatBitmap}, huge...),
		"index-bomb":   append(append([]byte{FormatIndex}, huge...), huge...),
		"quant-bomb":   append([]byte{FormatQuant, 4, 1}, append(huge, huge...)...),
		"lowrank-bomb": append([]byte{FormatLowRank}, append(append(huge, huge...), huge...)...),
		"entropy-bomb": append([]byte{FormatEntropy, entropyCoded}, binary.AppendUvarint(nil, 1<<40)...),
		"partial-tag":  {formatPartial, 0, 0},
		"unknown-tag":  {0x7F, 1, 2},
		"empty":        {},
	}
	for name, b := range cases {
		if _, err := DecodeInto(nil, b, 1<<20); err == nil {
			t.Errorf("%s: decode accepted hostile payload", name)
		}
	}
	// A coded frame is also bounded by what its body can carry: 16 body
	// bytes claiming 1 MiB pass the maxParams bound and must still be refused
	// before the inner buffer is taken.
	bomb := append(binary.AppendUvarint([]byte{FormatEntropy, entropyCoded}, 1<<20), make([]byte, 16)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeInto(nil, bomb, 1<<20)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "16 coded bytes carry") {
		t.Errorf("entropy-bomb with a body: %v, want the coded-bytes bound", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("entropy-bomb with a body allocated %d bytes before it was refused", got)
	}
	// Nested entropy frames beyond the depth cap must be rejected.
	inner := AppendBase(nil, []float64{1, 2, 3})
	for i := 0; i < maxDecodeDepth+1; i++ {
		inner = appendEntropy(nil, inner)
	}
	if _, err := DecodeInto(nil, inner, 10); err == nil {
		t.Error("over-deep nesting accepted")
	}
}

func TestDensePayloadSize(t *testing.T) {
	n := 1000
	dense := make([]float64, n)
	for i := range dense {
		dense[i] = float64(i) + 1
	}
	base := Default()
	if got, want := base.DensePayloadSize(n), BaseSize(dense); got != want {
		t.Errorf("base dense size %d, want %d", got, want)
	}
	q4, _ := Parse("topk,q4", 0)
	if got, want := q4.DensePayloadSize(n), q4.PayloadSize(dense); got != want {
		t.Errorf("q4 dense size %d, want measured %d", got, want)
	}
}
