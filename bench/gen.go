package main

import (
	"math"
	"math/rand"
)

// trajectory is the seeded input generator of the TCP workloads: it stands in
// for local training, producing client c's post-training vector for round r
// from the previous global. The program receives only these vectors.
//
// Parameter i belongs to class i mod 10, chosen so FedSU sees parameters it
// should speculate on beside parameters it should not:
//
//	0–5  linear drift     g + 0.01·(i mod 7 + 1) + 1e-5·z
//	6–7  mean-reverting   0.5·g + 0.05·z
//	8–9  random walk      g + 0.05·z
//
// z is read from a table of standard normals at an offset that depends on
// (round, client), so a vector is a pure function of (seed, round, client, g).
type trajectory struct {
	table [tableSize]float64
}

const tableSize = 1 << 16

func newTrajectory(seed int64) *trajectory {
	t := &trajectory{}
	rng := rand.New(rand.NewSource(seed))
	for i := range t.table {
		t.table[i] = rng.NormFloat64()
	}
	return t
}

// offset spreads (round, client) over the table with an avalanche mix, so
// neighbouring rounds and clients read unrelated noise.
func offset(round, client int) uint64 {
	x := uint64(round)*0x9E3779B97F4A7C15 + uint64(client)*0xC2B2AE3D27D4EB4F + 0x165667B19E3779F9
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return x
}

// local fills dst with client's vector for round given the previous global g.
func (t *trajectory) local(dst, g []float64, round, client int) {
	off := offset(round, client)
	for i := range dst {
		z := t.table[(off+uint64(i))%tableSize]
		switch i % 10 {
		case 6, 7:
			dst[i] = 0.5*g[i] + 0.05*z
		case 8, 9:
			dst[i] = g[i] + 0.05*z
		default:
			dst[i] = g[i] + 0.01*float64(i%7+1) + 1e-5*z
		}
	}
}

// fingerprint is the FNV-64a hash of v's IEEE-754 bits: two vectors have the
// same fingerprint exactly when they are bit-identical (collisions aside).
func fingerprint(v []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		u := math.Float64bits(x)
		for k := 0; k < 8; k++ {
			h = (h ^ (u & 0xff)) * 1099511628211
			u >>= 8
		}
	}
	return h
}

// sameBits reports whether a and b are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
