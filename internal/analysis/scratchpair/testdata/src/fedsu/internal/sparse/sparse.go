// Package sparse is a miniature replica of the real vector encoder, just
// large enough for the scratchpair corpus to type-check.
package sparse

// AppendVectorPayload stands in for the real encoder.
func AppendVectorPayload(dst []byte, vec []float64) []byte {
	return append(dst, byte(len(vec)))
}
