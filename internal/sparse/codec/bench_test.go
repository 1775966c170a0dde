package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// Chain-stage benchmarks: encode cost and output size per chain at the
// densities the strategies actually produce (FedSU uploads run ~0.1–10%
// dense; replies and bootstrap rounds are dense). `make bench-codec`
// runs these with -count 3; BENCH_codec.json tracks the medians.

const benchParams = 1 << 16

// benchVector synthesizes a vector with the given nonzero density whose
// values mimic concatenated layers at different scales (the case the
// per-block grids exist for).
func benchVector(density float64) []float64 {
	vec := make([]float64, benchParams)
	if density <= 0 {
		return vec
	}
	stride := int(1 / density)
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(vec); i += stride {
		layerScale := math.Pow(10, float64((i/8192)%4)-2) // 1e-2 .. 1e1
		vec[i] = math.Sin(float64(i)) * layerScale
	}
	return vec
}

var benchDensities = []struct {
	name    string
	density float64
}{
	{"d0.1%", 0.001},
	{"d1%", 0.01},
	{"d10%", 0.1},
	{"dense", 1},
}

var benchSpecs = []string{"topk", "topk,q4", "topk,q4,rans", "topk,q8", "lowrank", "rans"}

func BenchmarkChainEncode(b *testing.B) {
	for _, spec := range benchSpecs {
		ch, err := Parse(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range benchDensities {
			vec := benchVector(d.density)
			encoded := len(ch.AppendEncode(nil, vec))
			b.Run(fmt.Sprintf("%s/%s", spec, d.name), func(b *testing.B) {
				b.SetBytes(8 * benchParams)
				buf := GetBuf(encoded + 64)
				defer PutBuf(buf)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					*buf = ch.AppendEncode((*buf)[:0], vec)
				}
				// After ResetTimer (it deletes user metrics).
				b.ReportMetric(float64(encoded), "encodedB")
			})
		}
	}
}

func BenchmarkChainRoundTrip(b *testing.B) {
	for _, spec := range []string{"topk", "topk,q4,rans"} {
		ch, err := Parse(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		vec := benchVector(0.01)
		b.Run(spec, func(b *testing.B) {
			b.SetBytes(8 * benchParams)
			for i := 0; i < b.N; i++ {
				ch.RoundTrip(vec)
			}
		})
	}
}

// compactBenchParams is the length of the vector core.Manager compacts a
// 150k-parameter round into when a third of the model is speculative.
const compactBenchParams = 51_200

// compactVector has no zero anywhere — benchVector(1) has one at index 0
// (sin 0), which keeps its "dense" rows on the bitmap mode — so it takes the
// quant stage's mode 0x03, the form every core.Manager submission and every
// reply ships: per-round updates at layer-dependent scales.
func compactVector() []float64 {
	vec := make([]float64, compactBenchParams)
	for i := range vec {
		layerScale := math.Pow(10, float64((i/8192)%4)-4) // 1e-4 .. 1e-1
		vec[i] = (0.25 + math.Abs(math.Sin(float64(i)))) * layerScale
		if i%3 == 0 {
			vec[i] = -vec[i]
		}
	}
	return vec
}

// BenchmarkChainCompact times a compacted submission through the chains the
// chain workload runs: encode+image is the upload (AppendEncodeImage, what
// flrpc.Client calls), decode the coordinator's side of it; q8 is the reply.
func BenchmarkChainCompact(b *testing.B) {
	vec := compactVector()
	for _, spec := range []string{"topk,q4", "topk,q4,rans", "topk,q8,rans"} {
		ch, err := Parse(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		payload := ch.AppendEncode(nil, vec)
		if payload[0] == FormatQuant && payload[2] != quantModeDense {
			b.Fatalf("%s: compact vector shipped quant mode 0x%02x", spec, payload[2])
		}
		b.Run(spec+"/encode+image", func(b *testing.B) {
			b.SetBytes(8 * compactBenchParams)
			buf := GetBuf(len(payload) + 64)
			defer PutBuf(buf)
			image := make([]float64, len(vec))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				*buf, image = ch.AppendEncodeImage((*buf)[:0], vec, image)
			}
			b.ReportMetric(float64(len(payload)), "encodedB")
		})
		b.Run(spec+"/decode", func(b *testing.B) {
			b.SetBytes(8 * compactBenchParams)
			dst := make([]float64, len(vec))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeInto(dst, payload, len(vec)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Base-stage kernel benchmarks at the tcp_dense model size. benchVector's
// fixed stride is the branch predictor's best case (at 50 % the per-bit
// decoder ran 3× faster on stride 2 than on a random mask), so these draw
// the mask from a seeded xorshift: dense is every FedAvg message, 50 % and
// 13 % are the bitmap form a FedSU upload takes, 1 % is the index form.
const baseBenchParams = 600_000

var baseBenchMasks = []struct {
	name    string
	density float64
}{
	{"dense", 1},
	{"rand50%", 0.5},
	{"rand13%", 0.13},
	{"rand1%", 0.01},
}

// randomMaskVector draws each position nonzero with probability density
// from a xorshift64 stream; values are never zero.
func randomMaskVector(n int, density float64, seed uint64) []float64 {
	vec := make([]float64, n)
	cut := uint64(density * (1 << 32))
	x := seed
	for i := range vec {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x>>32 < cut {
			vec[i] = 0.001 + float64(x&0xffff)/1024
		}
	}
	return vec
}

var benchSink []float64

func BenchmarkBaseEncode(b *testing.B) {
	for _, m := range baseBenchMasks {
		vec := randomMaskVector(baseBenchParams, m.density, 0x9e3779b97f4a7c15)
		b.Run(m.name, func(b *testing.B) {
			b.SetBytes(8 * baseBenchParams)
			buf := make([]byte, 0, DenseBaseSize(baseBenchParams))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendBase(buf[:0], vec)
			}
			b.ReportMetric(float64(len(buf)), "encodedB")
		})
	}
}

func BenchmarkBaseDecode(b *testing.B) {
	for _, m := range baseBenchMasks {
		payload := AppendBase(nil, randomMaskVector(baseBenchParams, m.density, 0x9e3779b97f4a7c15))
		b.Run(m.name, func(b *testing.B) {
			b.SetBytes(8 * baseBenchParams)
			out := make([]float64, baseBenchParams)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if out, err = DecodeInto(out, payload, baseBenchParams); err != nil {
					b.Fatal(err)
				}
			}
			benchSink = out
		})
	}
}

// Entropy-stage benchmarks: the range coder alone (no frame, no inner
// decode) on the two payload shapes that carry the chain workload's bytes,
// the block-adaptive coder beside the per-symbol Fenwick reference it
// replaced (entropy_ref_test.go). MB/s is over the inner payload.
var entropyCoders = []struct {
	name   string
	encode func(dst, inner []byte) []byte
	decode func(out, body []byte) bool
}{
	{"block", appendEntropy, decodeRange},
	{"reference", refAppendEntropy, refDecodeRange},
}

func entropyBenchShapes(b *testing.B) []entropyShape {
	var out []entropyShape
	for _, s := range entropyShapes(b) {
		if s.name == "q4-upload-130k" || s.name == "q8-reply-130k" {
			out = append(out, s)
		}
	}
	return out
}

var benchBytes []byte

func BenchmarkEntropyEncode(b *testing.B) {
	for _, s := range entropyBenchShapes(b) {
		for _, c := range entropyCoders {
			b.Run(c.name+"/"+s.name, func(b *testing.B) {
				b.SetBytes(int64(len(s.inner)))
				buf := make([]byte, 0, len(s.inner)+16)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = c.encode(buf[:0], s.inner)
				}
				benchBytes = buf
				b.ReportMetric(float64(len(buf)), "encodedB")
			})
		}
	}
}

func BenchmarkEntropyDecode(b *testing.B) {
	for _, s := range entropyBenchShapes(b) {
		for _, c := range entropyCoders {
			enc := c.encode(nil, s.inner)
			_, w := binary.Uvarint(enc[2:])
			body := enc[2+w:]
			b.Run(c.name+"/"+s.name, func(b *testing.B) {
				b.SetBytes(int64(len(s.inner)))
				out := make([]byte, len(s.inner))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !c.decode(out, body) {
						b.Fatal("coded body refused")
					}
				}
				benchBytes = out
			})
		}
	}
}
