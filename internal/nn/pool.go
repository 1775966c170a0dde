package nn

import "fedsu/internal/tensor"

// MaxPool2D is a max-pooling layer over NCHW tensors. Windows are compared
// at storage width, first tap first: the output is the first tap unless a
// later one is strictly greater, so ties keep the earliest tap and a window
// whose first tap is NaN (every later comparison is false) yields NaN.
type MaxPool2D[E tensor.Elem] struct {
	p tensor.ConvParams

	argmax  []int  // flat input index chosen for each output element
	inShape [4]int // of the last Forward's input

	out, dx *tensor.Tensor // step buffers (scratch.go)
}

var (
	_ Layer = (*MaxPool2D[float64])(nil)
	_ Layer = (*MaxPool2D[float32])(nil)
)

// NewMaxPool2D constructs a square float64 max-pool with the given window
// and stride. The common "pool 2" is NewMaxPool2D(2, 2).
func NewMaxPool2D(window, stride int) *MaxPool2D[float64] {
	return newMaxPool2DOf[float64](window, stride)
}

func newMaxPool2DOf[E tensor.Elem](window, stride int) *MaxPool2D[E] {
	return &MaxPool2D[E]{p: tensor.ConvParams{
		KernelH: window, KernelW: window,
		StrideH: stride, StrideW: stride,
	}}
}

// Forward implements Layer.
func (m *MaxPool2D[E]) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := m.p.OutSize(h, w)
	m.inShape = [4]int{n, c, h, w}
	m.out = stepScratch(m.out, tensor.DTypeOf[E](), n, c, oh, ow)
	if cap(m.argmax) < m.out.Len() {
		m.argmax = make([]int, m.out.Len())
	}
	m.argmax = m.argmax[:m.out.Len()]
	xd, od := tensor.DataOf[E](x), tensor.DataOf[E](m.out)
	if m.p.KernelH == 2 && m.p.KernelW == 2 && m.p.StrideH == 2 && m.p.StrideW == 2 {
		maxPool2x2(od, m.argmax, xd, n*c, h, w, oh, ow)
		return m.out
	}
	oi := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var best E
					bidx := -1
					for ky := 0; ky < m.p.KernelH; ky++ {
						iy := oy*m.p.StrideH + ky
						if iy >= h {
							continue
						}
						for kx := 0; kx < m.p.KernelW; kx++ {
							ix := ox*m.p.StrideW + kx
							if ix >= w {
								continue
							}
							idx := base + iy*w + ix
							if v := xd[idx]; bidx < 0 || v > best {
								best, bidx = v, idx
							}
						}
					}
					od[oi] = best
					m.argmax[oi] = bidx
					oi++
				}
			}
		}
	}
	return m.out
}

// maxPool2x2 is the window 2 / stride 2 case: OutSize guarantees every
// window lies inside the plane, so no tap needs a range test. Taps are
// visited in the general path's order (row by row, left to right).
func maxPool2x2[E tensor.Elem](od []E, argmax []int, xd []E, planes, h, w, oh, ow int) {
	oi := 0
	for pl := 0; pl < planes; pl++ {
		for oy := 0; oy < oh; oy++ {
			top := (pl*h + 2*oy) * w
			r0 := xd[top : top+2*ow]
			r1 := xd[top+w : top+w+2*ow]
			orow, arow := od[oi:oi+ow], argmax[oi:oi+ow]
			for ox := range orow {
				best, bi := r0[2*ox], 0
				if v := r0[2*ox+1]; v > best {
					best, bi = v, 1
				}
				if v := r1[2*ox]; v > best {
					best, bi = v, w
				}
				if v := r1[2*ox+1]; v > best {
					best, bi = v, w+1
				}
				orow[ox], arow[ox] = best, top+2*ox+bi
			}
			oi += ow
		}
	}
}

// Backward implements Layer.
func (m *MaxPool2D[E]) Backward(grad *tensor.Tensor) *tensor.Tensor {
	s := m.inShape
	m.dx = stepScratch(m.dx, tensor.DTypeOf[E](), s[0], s[1], s[2], s[3])
	m.dx.Zero()
	dd, gd := tensor.DataOf[E](m.dx), tensor.DataOf[E](grad)
	for oi, idx := range m.argmax {
		dd[idx] += gd[oi]
	}
	return m.dx
}

func (m *MaxPool2D[E]) releaseScratch() {
	putScratch(&m.out)
	putScratch(&m.dx)
}

// Params implements Layer.
func (m *MaxPool2D[E]) Params() []*Param { return nil }

// AvgPool2D is an average-pooling layer over NCHW tensors; window sums
// accumulate in float64 and round once per output element.
type AvgPool2D[E tensor.Elem] struct {
	p         tensor.ConvParams
	lastShape []int
}

var (
	_ Layer = (*AvgPool2D[float64])(nil)
	_ Layer = (*AvgPool2D[float32])(nil)
)

// NewAvgPool2D constructs a square float64 average pool with the given
// window and stride.
func NewAvgPool2D(window, stride int) *AvgPool2D[float64] {
	return newAvgPool2DOf[float64](window, stride)
}

func newAvgPool2DOf[E tensor.Elem](window, stride int) *AvgPool2D[E] {
	return &AvgPool2D[E]{p: tensor.ConvParams{
		KernelH: window, KernelW: window,
		StrideH: stride, StrideW: stride,
	}}
}

// Forward implements Layer.
func (a *AvgPool2D[E]) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := a.p.OutSize(h, w)
	a.lastShape = x.Shape()
	out := tensor.NewOf(tensor.DTypeOf[E](), n, c, oh, ow)
	inv := 1.0 / float64(a.p.KernelH*a.p.KernelW)
	xd, od := tensor.DataOf[E](x), tensor.DataOf[E](out)
	oi := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for ky := 0; ky < a.p.KernelH; ky++ {
						iy := oy*a.p.StrideH + ky
						for kx := 0; kx < a.p.KernelW; kx++ {
							ix := ox*a.p.StrideW + kx
							s += toF64(xd[base+iy*w+ix])
						}
					}
					od[oi] = roundE[E](s * inv)
					oi++
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (a *AvgPool2D[E]) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := a.lastShape[0], a.lastShape[1], a.lastShape[2], a.lastShape[3]
	oh, ow := a.p.OutSize(h, w)
	dx := tensor.NewOf(tensor.DTypeOf[E](), a.lastShape...)
	inv := 1.0 / float64(a.p.KernelH*a.p.KernelW)
	dd, gd := tensor.DataOf[E](dx), tensor.DataOf[E](grad)
	oi := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := roundE[E](toF64(gd[oi]) * inv)
					for ky := 0; ky < a.p.KernelH; ky++ {
						iy := oy*a.p.StrideH + ky
						for kx := 0; kx < a.p.KernelW; kx++ {
							ix := ox*a.p.StrideW + kx
							dd[base+iy*w+ix] += g
						}
					}
					oi++
				}
			}
		}
	}
	return dx
}

// Params implements Layer.
func (a *AvgPool2D[E]) Params() []*Param { return nil }

// GlobalAvgPool2D reduces each (H, W) plane to its mean, producing (N, C)
// feature vectors; it is the classifier head pooling in ResNet and DenseNet.
// Plane sums accumulate in float64 like AvgPool2D.
type GlobalAvgPool2D[E tensor.Elem] struct {
	lastShape []int
}

var (
	_ Layer = (*GlobalAvgPool2D[float64])(nil)
	_ Layer = (*GlobalAvgPool2D[float32])(nil)
)

// NewGlobalAvgPool2D constructs a float64 global average pool.
func NewGlobalAvgPool2D() *GlobalAvgPool2D[float64] {
	return newGlobalAvgPool2DOf[float64]()
}

func newGlobalAvgPool2DOf[E tensor.Elem]() *GlobalAvgPool2D[E] {
	return &GlobalAvgPool2D[E]{}
}

// Forward implements Layer.
func (g *GlobalAvgPool2D[E]) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g.lastShape = x.Shape()
	out := tensor.NewOf(tensor.DTypeOf[E](), n, c)
	inv := 1.0 / float64(h*w)
	xd, od := tensor.DataOf[E](x), tensor.DataOf[E](out)
	for i := 0; i < n*c; i++ {
		s := 0.0
		for _, v := range xd[i*h*w : (i+1)*h*w] {
			s += toF64(v)
		}
		od[i] = roundE[E](s * inv)
	}
	return out
}

// Backward implements Layer.
func (g *GlobalAvgPool2D[E]) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := g.lastShape[0], g.lastShape[1], g.lastShape[2], g.lastShape[3]
	dx := tensor.NewOf(tensor.DTypeOf[E](), g.lastShape...)
	inv := 1.0 / float64(h*w)
	dd, gd := tensor.DataOf[E](dx), tensor.DataOf[E](grad)
	for i := 0; i < n*c; i++ {
		v := roundE[E](toF64(gd[i]) * inv)
		row := dd[i*h*w : (i+1)*h*w]
		for j := range row {
			row[j] = v
		}
	}
	return dx
}

// Params implements Layer.
func (g *GlobalAvgPool2D[E]) Params() []*Param { return nil }
