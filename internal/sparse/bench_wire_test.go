package sparse

import (
	"fmt"
	"testing"

	"fedsu/internal/sparse/codec"
)

// BenchmarkVectorPayload tracks the pooled encode/decode round trip flrpc
// runs per contribution: AppendVectorPayload into a pooled wire buffer,
// then DecodeVectorPayloadInto over a pooled vector. density=1 is a FedAvg
// dense round (bitmap form); density=0.01 is a FedSU sparse round (index
// form). SetBytes reports the encoded payload size, so MB/s compares the
// two forms directly.
func BenchmarkVectorPayload(b *testing.B) {
	const n = 100_000
	for _, density := range []float64{1, 0.01} {
		b.Run(fmt.Sprintf("density=%g", density), func(b *testing.B) {
			vec := make([]float64, n)
			step := int(1 / density)
			for i := 0; i < n; i += step {
				vec[i] = 1 + float64(i)
			}
			buf := codec.GetBuf(codec.BaseSize(vec))
			defer codec.PutBuf(buf)
			dst := codec.GetVals(n)
			defer codec.PutVals(dst)
			b.SetBytes(int64(codec.BaseSize(vec)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				*buf = AppendVectorPayload((*buf)[:0], vec)
				out, err := DecodeVectorPayloadInto(*dst, *buf, n)
				if err != nil {
					b.Fatal(err)
				}
				*dst = out
			}
		})
	}
}
