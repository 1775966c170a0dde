// Package sparsepool is the scratchpair corpus for the codec wire-buffer
// and value-slice pools: the same pairing contract as the tensor arena,
// checked against the patterns the rpc hot path actually uses.
package sparsepool

import (
	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
)

type coordinator struct {
	strays map[int]*[]float64
}

// balancedWireBuf is the client encode path: acquire, encode, release.
func balancedWireBuf(values []float64) int {
	buf := codec.GetBuf(len(values))
	defer codec.PutBuf(buf)
	*buf = sparse.AppendVectorPayload(*buf, values)
	return len(*buf)
}

// leakWireBuf forgets the release on the error path.
func leakWireBuf(values []float64) error {
	buf := codec.GetBuf(len(values)) // want `pooled codec buffer "buf" is not released by PutBuf`
	*buf = sparse.AppendVectorPayload(*buf, values)
	if len(*buf) == 0 {
		return errEmpty
	}
	codec.PutBuf(buf)
	return nil
}

// branchLocalDefer acquires and defers the release inside one branch — the
// flrpc decode pattern. The untaken branch holds nothing, so this must not
// be flagged.
func branchLocalDefer(abstain bool, n int) int {
	var vecBuf *[]float64
	if !abstain {
		vecBuf = codec.GetVals(n)
		defer codec.PutVals(vecBuf)
	}
	if vecBuf == nil {
		return 0
	}
	return len(*vecBuf)
}

// transferToMap hands ownership to a map that outlives the call — the
// fl.Server stray-contribution pattern, drained at barrier completion.
func (c *coordinator) transferToMap(clientID int, values []float64) {
	buf := codec.GetVals(len(values))
	copy(*buf, values)
	if c.strays == nil {
		c.strays = map[int]*[]float64{}
	}
	c.strays[clientID] = buf
}

// discardedVec can never be released.
func discardedVec(n int) {
	codec.GetVals(n) // want `GetVals result discarded`
}

// leakVecInLoop acquires per iteration without releasing.
func leakVecInLoop(n int) {
	for i := 0; i < n; i++ {
		v := codec.GetVals(n) // want `pooled codec value slice "v" acquired in a loop body is still held`
		(*v)[0] = float64(i)
	}
}

// mixedPools holds one resource from each pool; both must pair.
func mixedPools(values []float64) {
	vec := codec.GetVals(len(values))
	buf := codec.GetBuf(8) // want `pooled codec buffer "buf" is not released by PutBuf`
	copy(*vec, values)
	*buf = sparse.AppendVectorPayload(*buf, *vec)
	codec.PutVals(vec)
}

var errEmpty = errorString("empty")

type errorString string

func (e errorString) Error() string { return string(e) }
