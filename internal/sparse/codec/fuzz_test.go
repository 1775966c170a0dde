package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// fuzzVec folds arbitrary fuzz bytes into a finite vector: 8 bytes per
// value, non-finite draws mapped into [-1, 1] so value-level properties
// (grid bounds, idempotence) hold.
func fuzzVec(raw []byte) []float64 {
	n := len(raw) / 8
	if n > 1<<12 {
		n = 1 << 12
	}
	vec := make([]float64, n)
	for i := range vec {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e18 {
			v = float64(int64(math.Float64bits(v)%2001)-1000) / 1000
		}
		vec[i] = v
	}
	return vec
}

// FuzzQuantStage: decoding arbitrary 0x04 payloads must never panic or
// over-allocate, the quantizer's canonical encodings must round-trip onto
// their own grid, and the block encoder and decoder must match the
// per-element reference (quant_ref_test.go) on every input.
func FuzzQuantStage(f *testing.F) {
	q4, _ := NewQuant(4, 7)
	seed1, _ := q4.Encode(nil, Vector{Values: []float64{0, 1.5, 0, -2.25, 0.125}})
	f.Add(seed1, uint8(4))
	sparse := make([]float64, 3000)
	sparse[2], sparse[2999] = 4, -4
	q2, _ := NewQuant(2, 7)
	seed2, _ := q2.Encode(nil, Vector{Values: sparse})
	f.Add(seed2, uint8(2))
	f.Add([]byte{FormatQuant, 4, 1}, uint8(8))
	// No zero anywhere: mode 0x03, no index part (tag stripped — the target
	// prepends it), whole and with its count one short.
	dense, _ := q4.Encode(nil, Vector{Values: []float64{3, 1.5, -1, -2.25, 0.125}})
	f.Add(dense[1:], uint8(6))
	f.Add(append(append(dense[1:11:11], 4), dense[12:]...), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, bits uint8) {
		// A hostile payload is refused by the block decoder and the
		// per-element reference alike, or decodes to the same bits.
		got, err := decodeQuant(nil, raw, 1<<16)
		ref, refErr := refDecodeQuant(nil, raw, 1<<16)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("block decoder: %v, reference: %v", err, refErr)
		}
		if err == nil {
			if err := sameBits(got, ref); err != nil {
				t.Fatalf("block decoder and reference disagree: %v", err)
			}
		}
		b := int(bits%7) + 2
		st, err := NewQuant(b, 11)
		if err != nil {
			t.Fatal(err)
		}
		// The encode side, first on the raw bit patterns (NaN, ±Inf and
		// denormals included), then on the finite fold of them.
		rawVec := make([]float64, min(len(raw)/8, 1<<12))
		for i := range rawVec {
			rawVec[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkQuantAgainstReference(t, st.(*quantStage), rawVec)
		vec := fuzzVec(raw)
		checkQuantAgainstReference(t, st.(*quantStage), vec)
		enc, err := st.Encode(nil, Vector{Values: vec})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		dec, err := DecodeInto(nil, enc, len(vec))
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v", err)
		}
		if enc[2] == quantModeDense {
			// The dense form is the old bitmap form minus an all-ones bitmap.
			old, err := DecodeInto(nil, bitmapFormOf(t, enc), len(vec))
			if err != nil {
				t.Fatalf("bitmap form of a dense encoding rejected: %v", err)
			}
			for i := range dec {
				if math.Float64bits(dec[i]) != math.Float64bits(old[i]) {
					t.Fatalf("dense and bitmap forms disagree at %d: %v vs %v", i, dec[i], old[i])
				}
			}
		}
		lo, hi := quantRange(vec)
		tol := (hi-lo)*1e-12 + 1e-9 // grid arithmetic is float, not exact
		for i, v := range vec {
			if v == 0 {
				if dec[i] != 0 {
					t.Fatalf("zero at %d decoded as %v", i, dec[i])
				}
				continue
			}
			if len(dec) > 0 && (dec[i] < lo-tol || dec[i] > hi+tol) {
				t.Fatalf("decoded %v outside grid [%v,%v]", dec[i], lo, hi)
			}
		}
	})
}

// FuzzLowRankStage: hostile 0x05 payloads must be rejected before
// allocation; canonical factor encodings must decode to the claimed
// shape.
func FuzzLowRankStage(f *testing.F) {
	st, _ := NewLowRank("lowrank", 2, 5)
	smooth := make([]float64, 1024)
	for i := range smooth {
		smooth[i] = math.Sin(float64(i%32)) * math.Cos(float64(i/32))
	}
	if enc, err := st.Encode(nil, Vector{Values: smooth}); err == nil {
		f.Add(enc)
	}
	f.Add([]byte{FormatLowRank, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload := raw
		if len(payload) == 0 || payload[0] != FormatLowRank {
			payload = append([]byte{FormatLowRank}, raw...)
		}
		dec, err := DecodeInto(nil, payload, 1<<16)
		if err != nil {
			return
		}
		if len(dec) > 1<<16 {
			t.Fatalf("decode exceeded maxParams: %d", len(dec))
		}
		// A valid factor payload decodes deterministically.
		dec2, err := DecodeInto(nil, payload, 1<<16)
		if err != nil || len(dec2) != len(dec) {
			t.Fatalf("second decode disagreed: %v", err)
		}
		for i := range dec {
			if math.Float64bits(dec[i]) != math.Float64bits(dec2[i]) {
				t.Fatalf("nondeterministic decode at %d", i)
			}
		}
	})
}

// FuzzEntropyStage: arbitrary coded streams must never panic the range
// decoder, the retired 0x06 tag is refused whatever follows it, and every
// canonical coding must invert exactly and fail when cut short.
func FuzzEntropyStage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add(AppendBase(nil, []float64{0, 1, 0, -2}))
	f.Add(appendEntropy(nil, AppendBase(nil, make([]float64, 64)))[1:])
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Decode side: treat raw as a hostile 0x07 payload.
		if _, err := DecodeInto(nil, append([]byte{FormatEntropy}, raw...), 1<<12); err != nil {
			// rejection is fine
		}
		if _, err := DecodeInto(nil, append([]byte{formatFenwick}, raw...), 1<<12); err == nil || !strings.Contains(err.Error(), "retired format") {
			t.Fatalf("tag 0x06 answered %v, want the retired-format error", err)
		}
		// Encode side: the coder must losslessly invert any inner bytes.
		if len(raw) == 0 || len(raw) > 1<<12 {
			return
		}
		enc := appendEntropy(nil, raw)
		flag := enc[1]
		rawLen, w := binary.Uvarint(enc[2:])
		if rawLen != uint64(len(raw)) || w <= 0 {
			t.Fatalf("framed length %d, want %d", rawLen, len(raw))
		}
		body := enc[2+w:]
		switch flag {
		case entropyRaw:
			if !bytes.Equal(body, raw) {
				t.Fatal("raw escape corrupted payload")
			}
		case entropyCoded:
			got := make([]byte, len(raw))
			if !decodeRange(got, body) {
				t.Fatal("canonical coding does not end with its last symbol")
			}
			if !bytes.Equal(got, raw) {
				t.Fatal("range coder did not invert")
			}
			if decodeRange(got, body[:len(body)-1]) {
				t.Fatal("a body cut one byte short was accepted")
			}
		default:
			t.Fatalf("unknown flag 0x%02x", flag)
		}
	})
}

// fuzzChainSpecs is the whitelist FuzzChainRoundTrip draws 1–3 stage
// chains from; every Parse-valid shape is represented.
var fuzzChainSpecs = []string{
	"topk", "q2", "q4", "q8", "lowrank", "lowrank2", "rans",
	"topk,q4", "topk,rans", "q4,rans", "lowrank,rans", "rans,rans",
	"topk,q4,rans", "topk,q2,rans", "lowrank,rans,rans",
}

// FuzzChainRoundTrip: for a random chain over a random vector, the
// encoded payload must be self-describing (DecodeInto with no chain in
// hand equals the chain's RoundTripSized bit-for-bit), sizes must agree, and
// the wire image must be idempotent for grid-based chains.
func FuzzChainRoundTrip(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(12), bytes.Repeat([]byte{0x3F, 0x11, 0, 0, 0, 0, 0, 0}, 40))
	f.Add(uint8(6), bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0xF0, 0x3F}, 300))
	f.Fuzz(func(t *testing.T, pick uint8, raw []byte) {
		spec := fuzzChainSpecs[int(pick)%len(fuzzChainSpecs)]
		ch, err := Parse(spec, int64(pick))
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		vec := fuzzVec(raw)
		enc := ch.AppendEncode(nil, vec)
		if got := ch.PayloadSize(vec); got != len(enc) {
			t.Fatalf("%s: PayloadSize=%d, encoded %d", spec, got, len(enc))
		}
		dec, err := DecodeInto(nil, enc, len(vec))
		if err != nil {
			t.Fatalf("%s: canonical encoding rejected: %v", spec, err)
		}
		rt, _ := ch.RoundTripSized(nil, vec)
		if len(dec) != len(vec) || len(rt) != len(vec) {
			t.Fatalf("%s: length changed: dec=%d rt=%d want %d", spec, len(dec), len(rt), len(vec))
		}
		for i := range dec {
			if math.Float64bits(dec[i]) != math.Float64bits(rt[i]) {
				t.Fatalf("%s[%d]: DecodeInto %v != RoundTripSized %v", spec, i, dec[i], rt[i])
			}
		}
	})
}
