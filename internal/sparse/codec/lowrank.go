package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The low-rank stage ships a rank-r factor pair U·Vᵀ instead of the
// vector itself (FA-LoRA-style structured updates): the vector is viewed
// as an m×n matrix and approximated by r orthogonal-iteration steps, so
// the wire carries 4·r·(m+n) bytes instead of the base encoding. The
// stage is gated by exact benefit — it applies only when the factor
// bytes undercut what the base stage would ship for this vector (the
// "rank·(m+n) < m·n·density" rule, measured in encoded bytes rather
// than the analytic form) — and skips otherwise, letting the chain fall
// through to the base encoding. Factorization is deterministic: the
// subspace is seeded from the stage seed by position hashing and every
// loop is serial, so the same vector always produces the same factors.
//
// Layout after the 0x05 tag:
//
//	[m u64][n u64][r u64][U float32 m·r][V float32 n·r]
//
// decoded[i·n+j] = Σ_k U[i,k]·V[j,k], accumulated in float64.

const (
	// lowRankIters is the fixed number of subspace iterations; enough for
	// the energy of trained-layer spectra, and deterministic by count.
	lowRankIters = 8
	// lowRankMinTotal skips vectors too small for factoring to pay.
	lowRankMinTotal = 256
)

type lowRankStage struct {
	name string
	rank int
	seed uint64
}

// NewLowRank returns a rank-r factor stage. It consumes numeric input
// and must precede any serializing stage; when its benefit gate fails it
// skips, so a "lowrank" chain degrades to the base encoding.
func NewLowRank(name string, rank int, seed uint64) (Stage, error) {
	if rank < 1 || rank > 64 {
		return nil, fmt.Errorf("codec: lowrank rank must be in [1,64], got %d", rank)
	}
	return &lowRankStage{name: name, rank: rank, seed: seed}, nil
}

func (s *lowRankStage) Name() string { return s.name }

func (s *lowRankStage) Encode(dst []byte, v Vector) ([]byte, error) {
	if v.Values == nil {
		return nil, fmt.Errorf("codec: lowrank stage needs numeric input (it must precede serializing stages)")
	}
	vec := v.Values
	m, n := factorShape(len(vec))
	r := s.rank
	if m < 2 || r >= m || r >= n {
		return nil, errSkip
	}
	lrSize := 1 + 24 + 4*r*(m+n)
	if lrSize >= BaseSize(vec) {
		return nil, errSkip
	}
	for _, x := range vec {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return nil, errSkip
		}
	}
	U, V := s.factor(vec, m, n, r)
	base := len(dst)
	dst = growBytes(dst, lrSize)
	out := dst[base:]
	out[0] = FormatLowRank
	body := out[1:]
	binary.LittleEndian.PutUint64(body[0:], uint64(m))
	binary.LittleEndian.PutUint64(body[8:], uint64(n))
	binary.LittleEndian.PutUint64(body[16:], uint64(r))
	fp := body[24:]
	for i, x := range U {
		//lint:allow precision -- factors ship as f32 by format: the stage is lossy by design
		binary.LittleEndian.PutUint32(fp[4*i:], math.Float32bits(float32(x)))
	}
	fp = fp[4*len(U):]
	for i, x := range V {
		//lint:allow precision -- factors ship as f32 by format: the stage is lossy by design
		binary.LittleEndian.PutUint32(fp[4*i:], math.Float32bits(float32(x)))
	}
	return dst, nil
}

func (s *lowRankStage) Decode(dst []float64, payload []byte, maxParams int) ([]float64, error) {
	if len(payload) < 1 || payload[0] != FormatLowRank {
		return nil, fmt.Errorf("codec: lowrank stage expects a 0x05 payload")
	}
	return decodeLowRank(dst, payload[1:], maxParams)
}

// factorShape folds a flat length into the most square m×n grid with
// m ≤ n that exactly tiles it; m == 1 (primes, tiny vectors) disables
// the stage via the caller's gate.
func factorShape(total int) (m, n int) {
	if total < lowRankMinTotal {
		return 1, total
	}
	m = 1
	for d := 2; d*d <= total; d++ {
		if total%d == 0 {
			m = d
		}
	}
	if m == 1 {
		return 1, total
	}
	return m, total / m
}

// factor runs r-dimensional subspace iteration on A (m×n, row-major):
// V is kept orthonormal, U = A·V, so A ≈ U·Vᵀ is the projection of A
// onto its estimated top-r row space.
func (s *lowRankStage) factor(a []float64, m, n, r int) (U, V []float64) {
	V = make([]float64, n*r)
	U = make([]float64, m*r)
	tmp := make([]float64, m*r)
	// Deterministic pseudo-random init, decorrelated by position hash.
	for i := range V {
		V[i] = float64(mix64(s.seed+mix64(uint64(i)))>>11)/(1<<53) - 0.5
	}
	orthonormalize(V, n, r)
	for it := 0; it < lowRankIters; it++ {
		// tmp = A·V (m×r)
		matmulRows(tmp, a, V, m, n, r)
		orthonormalize(tmp, m, r)
		// V = Aᵀ·tmp (n×r)
		matmulCols(V, a, tmp, m, n, r)
		orthonormalize(V, n, r)
	}
	matmulRows(U, a, V, m, n, r)
	return U, V
}

// matmulRows computes out = A·B for A m×n row-major and B n×r row-major.
func matmulRows(out, a, b []float64, m, n, r int) {
	for i := 0; i < m; i++ {
		row := a[i*n : (i+1)*n]
		o := out[i*r : (i+1)*r]
		clear(o)
		for j, aij := range row {
			if aij == 0 {
				continue
			}
			bj := b[j*r : (j+1)*r]
			for k := range o {
				o[k] += aij * bj[k]
			}
		}
	}
}

// matmulCols computes out = Aᵀ·B for A m×n row-major and B m×r row-major.
func matmulCols(out, a, b []float64, m, n, r int) {
	clear(out)
	for i := 0; i < m; i++ {
		row := a[i*n : (i+1)*n]
		bi := b[i*r : (i+1)*r]
		for j, aij := range row {
			if aij == 0 {
				continue
			}
			o := out[j*r : (j+1)*r]
			for k := range bi {
				o[k] += aij * bi[k]
			}
		}
	}
}

// orthonormalize runs modified Gram-Schmidt over the r columns of the
// rows×r row-major matrix x; a numerically dead column zeroes out rather
// than dividing by ~0 (an all-zero input stays all-zero and decodes to
// the zero vector).
func orthonormalize(x []float64, rows, r int) {
	for c := 0; c < r; c++ {
		for p := 0; p < c; p++ {
			dot := 0.0
			for i := 0; i < rows; i++ {
				dot += x[i*r+c] * x[i*r+p]
			}
			for i := 0; i < rows; i++ {
				x[i*r+c] -= dot * x[i*r+p]
			}
		}
		norm := 0.0
		for i := 0; i < rows; i++ {
			norm += x[i*r+c] * x[i*r+c]
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			for i := 0; i < rows; i++ {
				x[i*r+c] = 0
			}
			continue
		}
		inv := 1 / norm
		for i := 0; i < rows; i++ {
			x[i*r+c] *= inv
		}
	}
}

func decodeLowRank(dst []float64, b []byte, maxParams int) ([]float64, error) {
	if len(b) < 24 {
		return nil, fmt.Errorf("codec: lowrank payload too short (%d bytes)", len(b))
	}
	m64 := binary.LittleEndian.Uint64(b[0:])
	n64 := binary.LittleEndian.Uint64(b[8:])
	r64 := binary.LittleEndian.Uint64(b[16:])
	b = b[24:]
	// Bound each dimension before multiplying so hostile headers cannot
	// overflow the size arithmetic, then bound the product by maxParams.
	if m64 == 0 || n64 == 0 || m64 > uint64(maxParams) || n64 > uint64(maxParams) ||
		m64*n64 > uint64(maxParams) {
		return nil, fmt.Errorf("codec: lowrank shape %dx%d exceeds limit %d", m64, n64, maxParams)
	}
	if r64 == 0 || r64 > m64 || r64 > n64 {
		return nil, fmt.Errorf("codec: lowrank rank %d out of range for %dx%d", r64, m64, n64)
	}
	m, n, r := int(m64), int(n64), int(r64)
	want := 4 * r * (m + n)
	if len(b) != want {
		return nil, fmt.Errorf("codec: lowrank payload has %d factor bytes, want %d", len(b), want)
	}
	U := make([]float64, m*r)
	for i := range U {
		//lint:allow precision -- widening the f32 factor back to f64, exact
		U[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
	}
	V := make([]float64, n*r)
	vb := b[4*m*r:]
	for i := range V {
		//lint:allow precision -- widening the f32 factor back to f64, exact
		V[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(vb[4*i:])))
	}
	out := SizeVector(dst, m*n)
	for i := 0; i < m; i++ {
		uRow := U[i*r : (i+1)*r]
		o := out[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			vRow := V[j*r : (j+1)*r]
			sum := 0.0
			for k, u := range uRow {
				sum += u * vRow[k]
			}
			o[j] = sum
		}
	}
	return out, nil
}
