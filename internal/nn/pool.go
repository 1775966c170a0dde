package nn

import "fedsu/internal/tensor"

// MaxPool2D is a max-pooling layer over NCHW tensors. Windows are compared
// first tap first: the output is the first tap unless a
// later one is strictly greater, so ties keep the earliest tap and a window
// whose first tap is NaN (every later comparison is false) yields NaN.
type MaxPool2D struct {
	p tensor.ConvParams

	argmax  []int  // flat input index chosen for each output element
	inShape [4]int // of the last Forward's input

	out, dx *tensor.Tensor // step buffers (scratch.go)
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D constructs a square max-pool with the given window
// and stride. The common "pool 2" is NewMaxPool2D(2, 2).
func NewMaxPool2D(window, stride int) *MaxPool2D {
	return &MaxPool2D{p: poolGeometry("max-pool", window, stride)}
}

// poolGeometry is a square window and stride with no padding, checked.
func poolGeometry(layer string, window, stride int) tensor.ConvParams {
	p := tensor.ConvParams{KernelH: window, KernelW: window, StrideH: stride, StrideW: stride}
	checkGeometry(layer, p)
	return p
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := m.p.OutSize(h, w)
	m.inShape = [4]int{n, c, h, w}
	m.out = stepScratch(m.out, n, c, oh, ow)
	if cap(m.argmax) < m.out.Len() {
		m.argmax = make([]int, m.out.Len())
	}
	m.argmax = m.argmax[:m.out.Len()]
	if m.is2x2() {
		tensor.MaxPool2x2Into(m.out, m.argmax, x)
		return m.out
	}
	xd, od := x.Data(), m.out.Data()
	oi := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var best float64
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

func (m *MaxPool2D) is2x2() bool {
	return m.p.KernelH == 2 && m.p.KernelW == 2 && m.p.StrideH == 2 && m.p.StrideW == 2
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	s := m.inShape
	m.dx = stepScratch(m.dx, s[0], s[1], s[2], s[3])
	if m.is2x2() {
		tensor.MaxPool2x2Backward(m.dx, grad, m.argmax)
		return m.dx
	}
	dd, gd := m.dx.Data(), grad.Data()
	m.dx.Zero()
	for oi, idx := range m.argmax {
		dd[idx] += gd[oi]
	}
	return m.dx
}

func (m *MaxPool2D) releaseScratch() {
	putScratch(&m.out)
	putScratch(&m.dx)
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// AvgPool2D is an average-pooling layer over NCHW tensors.
type AvgPool2D struct {
	p         tensor.ConvParams
	lastShape []int
}

var _ Layer = (*AvgPool2D)(nil)

// NewAvgPool2D constructs a square average pool with the given
// window and stride.
func NewAvgPool2D(window, stride int) *AvgPool2D {
	return &AvgPool2D{p: poolGeometry("avg-pool", window, stride)}
}

// Forward implements Layer.
func (a *AvgPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := a.p.OutSize(h, w)
	a.lastShape = x.Shape()
	out := tensor.New(n, c, oh, ow)
	inv := 1.0 / float64(a.p.KernelH*a.p.KernelW)
	xd, od := x.Data(), out.Data()
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
							s += xd[base+iy*w+ix]
						}
					}
					od[oi] = s * inv
					oi++
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (a *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := a.lastShape[0], a.lastShape[1], a.lastShape[2], a.lastShape[3]
	oh, ow := a.p.OutSize(h, w)
	dx := tensor.New(a.lastShape...)
	inv := 1.0 / float64(a.p.KernelH*a.p.KernelW)
	dd, gd := dx.Data(), grad.Data()
	oi := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					// The conversion keeps the product from fusing into the
					// adds below on architectures that fuse.
					g := float64(gd[oi] * inv)
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
func (a *AvgPool2D) Params() []*Param { return nil }

// GlobalAvgPool2D reduces each (H, W) plane to its mean, producing (N, C)
// feature vectors; it is the classifier head pooling in ResNet and DenseNet.
type GlobalAvgPool2D struct {
	lastShape []int
}

var _ Layer = (*GlobalAvgPool2D)(nil)

// NewGlobalAvgPool2D constructs a global average pool.
func NewGlobalAvgPool2D() *GlobalAvgPool2D {
	return &GlobalAvgPool2D{}
}

// Forward implements Layer.
func (g *GlobalAvgPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g.lastShape = x.Shape()
	out := tensor.New(n, c)
	inv := 1.0 / float64(h*w)
	xd, od := x.Data(), out.Data()
	for i := 0; i < n*c; i++ {
		s := 0.0
		for _, v := range xd[i*h*w : (i+1)*h*w] {
			s += v
		}
		od[i] = s * inv
	}
	return out
}

// Backward implements Layer.
func (g *GlobalAvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := g.lastShape[0], g.lastShape[1], g.lastShape[2], g.lastShape[3]
	dx := tensor.New(g.lastShape...)
	inv := 1.0 / float64(h*w)
	dd, gd := dx.Data(), grad.Data()
	for i := 0; i < n*c; i++ {
		v := gd[i] * inv
		row := dd[i*h*w : (i+1)*h*w]
		for j := range row {
			row[j] = v
		}
	}
	return dx
}

// Params implements Layer.
func (g *GlobalAvgPool2D) Params() []*Param { return nil }
