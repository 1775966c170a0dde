package sparse

import (
	"math"
	"testing"

	"fedsu/internal/sparse/codec"
)

func TestPartialPayloadRoundTrip(t *testing.T) {
	sum := make([]float64, 300)
	for i := range sum {
		sum[i] = math.Pi * float64(i-150) * 1e-3
	}
	sum[7] = math.Inf(1)
	sum[8] = -0.0
	p := Partial{RankLo: 64, Weight: 17, Traffic: 123456789, Sum: sum}

	enc := EncodePartialPayload(p)
	if len(enc) != PartialPayloadSize(len(sum)) {
		t.Fatalf("encoded %d bytes, PartialPayloadSize says %d", len(enc), PartialPayloadSize(len(sum)))
	}
	got, err := DecodePartialPayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.RankLo != p.RankLo || got.Weight != p.Weight || got.Traffic != p.Traffic {
		t.Fatalf("metadata changed: %+v", got)
	}
	if len(got.Sum) != len(sum) {
		t.Fatalf("sum length %d, want %d", len(got.Sum), len(sum))
	}
	for i := range sum {
		if math.Float64bits(got.Sum[i]) != math.Float64bits(sum[i]) {
			t.Fatalf("sum[%d] lost bits: %x vs %x — the partial codec must be float64-lossless", i, math.Float64bits(got.Sum[i]), math.Float64bits(sum[i]))
		}
	}
}

func TestPartialPayloadIdentity(t *testing.T) {
	enc := EncodePartialPayload(Partial{RankLo: 3})
	got, err := DecodePartialPayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sum != nil || got.Weight != 0 || got.RankLo != 3 {
		t.Fatalf("identity partial decoded as %+v", got)
	}
}

func TestPartialPayloadDecodeIntoReuse(t *testing.T) {
	sum := make([]float64, 2048)
	for i := range sum {
		sum[i] = float64(i)
	}
	enc := EncodePartialPayload(Partial{Weight: 4, Sum: sum})
	allocs := testing.AllocsPerRun(100, func() {
		buf := codec.GetVals(len(sum))
		p, err := DecodePartialPayloadInto(*buf, enc, len(sum))
		if err != nil {
			t.Fatal(err)
		}
		*buf = p.Sum
		codec.PutVals(buf)
	})
	if !raceEnabled && allocs > 0 {
		t.Fatalf("pooled partial decode allocates %.1f times per run", allocs)
	}
}

func TestPartialPayloadHostileHeaders(t *testing.T) {
	cases := [][]byte{
		{},                      // empty
		{partialFormatV1},       // no body
		{0x01, 0, 0, 0},         // vector-codec tag misrouted here
		{partialFormatV1, 0, 0}, // truncated metadata
	}
	// Hostile span: claims 2^40 elements with no bytes behind it.
	huge := EncodePartialPayload(Partial{Weight: 1, Sum: []float64{1}})
	huge[9], huge[10], huge[11], huge[12], huge[13], huge[14] = 0, 0, 0, 0, 0, 1
	cases = append(cases, huge)
	// Weight with no sum.
	w := EncodePartialPayload(Partial{})
	w[17] = 9
	cases = append(cases, w)
	// Trailing garbage.
	g := EncodePartialPayload(Partial{Weight: 1, Sum: []float64{1, 2}})
	cases = append(cases, append(g, 0xff))
	for i, raw := range cases {
		if _, err := DecodePartialPayloadInto(nil, raw, 1<<16); err == nil {
			t.Fatalf("case %d: hostile payload decoded without error", i)
		}
	}
}

func FuzzPartialPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{partialFormatV1})
	f.Add(EncodePartialPayload(Partial{RankLo: 2}))
	f.Add(EncodePartialPayload(Partial{RankLo: 8, Weight: 3, Traffic: 999, Sum: []float64{1.5, -2.25, 0, 4096}}))
	f.Add(EncodePartialPayload(Partial{Weight: 1, Sum: make([]float64, 64)}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Decoding arbitrary bytes must never panic, and the span bound
		// must keep hostile headers from allocating beyond the input size.
		p, err := DecodePartialPayloadInto(nil, raw, 1<<16)
		if err != nil {
			return
		}
		if len(p.Sum) > len(raw)/8 {
			t.Fatalf("decoded %d-element sum from %d input bytes", len(p.Sum), len(raw))
		}
		// Whatever decoded must round-trip losslessly (raw float64 — even
		// NaN payload bits survive).
		enc := EncodePartialPayload(p)
		back, err := DecodePartialPayloadInto(nil, enc, 1<<16)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if back.RankLo != p.RankLo || back.Weight != p.Weight || back.Traffic != p.Traffic || len(back.Sum) != len(p.Sum) {
			t.Fatalf("round-trip changed the message: %+v vs %+v", back, p)
		}
		for i := range p.Sum {
			if math.Float64bits(back.Sum[i]) != math.Float64bits(p.Sum[i]) {
				t.Fatalf("sum[%d] changed across round-trip", i)
			}
		}
	})
}
