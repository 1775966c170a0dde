package nn

import (
	"math"

	"fedsu/internal/tensor"
)

// SoftmaxCrossEntropy fuses the softmax activation with the cross-entropy
// loss over integer class labels, the standard classification head.
//
// The per-row max, the exponentials, the partition sum, and the loss itself
// all compute in float64 at either storage width; only the cached
// probability matrix (which doubles as the gradient seed) lives at E. At
// float32 the probabilities therefore carry one extra rounding — they round
// once as unnormalized exponentials and once after normalization — which
// keeps them where the activations live without giving up full-width loss
// accumulation.
type SoftmaxCrossEntropy[E tensor.Elem] struct {
	lastProbs  *tensor.Tensor // step buffer (scratch.go)
	lastLabels []int
	grad       *tensor.Tensor // step buffer
}

var (
	_ lossHead = (*SoftmaxCrossEntropy[float64])(nil)
	_ lossHead = (*SoftmaxCrossEntropy[float32])(nil)
)

// NewSoftmaxCrossEntropy constructs the fused loss at float64.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy[float64] {
	return newSoftmaxCrossEntropyOf[float64]()
}

func newSoftmaxCrossEntropyOf[E tensor.Elem]() *SoftmaxCrossEntropy[E] {
	return &SoftmaxCrossEntropy[E]{}
}

// Forward computes the mean cross-entropy of logits (N, classes) against
// labels and caches the probabilities for Backward.
func (s *SoftmaxCrossEntropy[E]) Forward(logits *tensor.Tensor, labels []int) float64 {
	n, c := logits.Dim(0), logits.Dim(1)
	probs := stepScratch(s.lastProbs, tensor.DTypeOf[E](), n, c)
	ld, pd := tensor.DataOf[E](logits), tensor.DataOf[E](probs)
	loss := 0.0
	for i := 0; i < n; i++ {
		row := ld[i*c : (i+1)*c]
		maxv := math.Inf(-1)
		for _, v := range row {
			if f := toF64(v); f > maxv {
				maxv = f
			}
		}
		sum := 0.0
		prow := pd[i*c : (i+1)*c]
		for j, v := range row {
			e := math.Exp(toF64(v) - maxv)
			prow[j] = roundE[E](e)
			sum += e
		}
		inv := 1.0 / sum
		for j := range prow {
			prow[j] = roundE[E](toF64(prow[j]) * inv)
		}
		p := toF64(prow[labels[i]])
		// The clamp also catches float32 probabilities that flushed to zero.
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
	}
	s.lastProbs = probs
	s.lastLabels = append(s.lastLabels[:0], labels...)
	return loss / float64(n)
}

// Backward returns dLoss/dLogits = (probs − onehot)/N.
func (s *SoftmaxCrossEntropy[E]) Backward() *tensor.Tensor {
	n, c := s.lastProbs.Dim(0), s.lastProbs.Dim(1)
	s.grad = stepScratchLike(s.grad, s.lastProbs)
	s.grad.CopyFrom(s.lastProbs)
	gd := tensor.DataOf[E](s.grad)
	inv := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		gd[i*c+s.lastLabels[i]] -= 1
		row := gd[i*c : (i+1)*c]
		for j := range row {
			row[j] = roundE[E](toF64(row[j]) * inv)
		}
	}
	return s.grad
}

func (s *SoftmaxCrossEntropy[E]) releaseScratch() {
	putScratch(&s.lastProbs)
	putScratch(&s.grad)
}

// Accuracy returns the fraction of rows of logits whose argmax matches the
// label, at either logits dtype.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	if logits.DType() == tensor.Float32 {
		return accuracyOf[float32](logits, labels)
	}
	return accuracyOf[float64](logits, labels)
}

func accuracyOf[E tensor.Elem](logits *tensor.Tensor, labels []int) float64 {
	n, c := logits.Dim(0), logits.Dim(1)
	ld := tensor.DataOf[E](logits)
	correct := 0
	for i := 0; i < n; i++ {
		row := ld[i*c : (i+1)*c]
		best, bj := math.Inf(-1), 0
		for j, v := range row {
			if f := toF64(v); f > best {
				best, bj = f, j
			}
		}
		if bj == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
