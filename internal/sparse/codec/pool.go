package codec

import (
	"math/bits"
	"sync"
)

// The one pool of wire and vector buffers — the chain's intermediate
// images, flrpc's encode/decode buffers and the fold's level sums all
// draw from it. The tensor-arena pattern applied to the communication
// path: power-of-two size classes, pointer-to-slice pooling (a bare
// []byte in a sync.Pool re-boxes the slice header on every Put),
// fragmentation bounded at 2×, so a steady-state Get/Put pair performs
// no allocation.
//
// Contract (mirrors tensor.GetScratch/PutScratch, and checked by the same
// fedsu-lint scratchpair analyzer): Get returns storage with UNSPECIFIED
// contents beyond the documented length; Put transfers ownership back,
// after which neither the pointer nor any alias may be touched. Safe for
// concurrent use.

// poolClasses covers 2^0 .. 2^(poolClasses-1) bytes or elements; the top
// class is 2^26 (64 MiB of bytes, 512 MiB of float64s) — larger requests
// bypass the pool and fall to the GC.

const poolClasses = 27

var (
	bufPool [poolClasses]sync.Pool
	valPool [poolClasses]sync.Pool
)

func poolClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1)) // ceil(log2 n)
}

// GetBuf returns a byte buffer with zero length and capacity at least n.
// Release with PutBuf.
func GetBuf(n int) *[]byte {
	c := poolClass(n)
	if c >= poolClasses {
		b := make([]byte, 0, n)
		return &b
	}
	p, ok := bufPool[c].Get().(*[]byte)
	if !ok {
		b := make([]byte, 0, 1<<uint(c))
		return &b
	}
	*p = (*p)[:0]
	return p
}

// PutBuf returns a buffer to the pool. Passing nil is a no-op. The
// buffer (and any slice of it) must not be used afterwards.
func PutBuf(p *[]byte) {
	if p == nil {
		return
	}
	c := cap(*p)
	if c == 0 {
		return
	}
	cls := bits.Len(uint(c)) - 1 // floor(log2 cap): satisfies Get(n ≤ 2^cls)
	if cls >= poolClasses {
		return
	}
	*p = (*p)[:0]
	bufPool[cls].Put(p)
}

// GetVals returns a float64 slice of length n with UNSPECIFIED contents;
// callers must fully overwrite it (DecodeInto does). Release with
// PutVals.
func GetVals(n int) *[]float64 {
	c := poolClass(n)
	if c >= poolClasses {
		v := make([]float64, n)
		return &v
	}
	p, ok := valPool[c].Get().(*[]float64)
	if !ok {
		v := make([]float64, 1<<uint(c))
		p = &v
	}
	*p = (*p)[:n]
	return p
}

// PutVals returns a value slice to the pool. Passing nil is a no-op. The
// slice (and any alias of it) must not be used afterwards.
func PutVals(p *[]float64) {
	if p == nil {
		return
	}
	c := cap(*p)
	if c == 0 {
		return
	}
	cls := bits.Len(uint(c)) - 1
	if cls >= poolClasses {
		return
	}
	*p = (*p)[:c]
	valPool[cls].Put(p)
}
