// Package codec is a miniature replica of the real pooled buffer API, just
// large enough for the scratchpair corpus to type-check. The package path
// matters: the analyzer matches GetBuf/PutBuf and GetVals/PutVals by their
// defining package.
package codec

// GetBuf draws a pooled byte buffer with capacity at least n.
func GetBuf(n int) *[]byte {
	b := make([]byte, 0, n)
	return &b
}

// PutBuf returns a buffer to the pool.
func PutBuf(p *[]byte) {}

// GetVals draws a pooled float64 slice of length n.
func GetVals(n int) *[]float64 {
	v := make([]float64, n)
	return &v
}

// PutVals returns a value slice to the pool.
func PutVals(p *[]float64) {}
