package nn

import (
	"math"

	"fedsu/internal/tensor"
)

// SoftmaxCrossEntropy fuses the softmax activation with the cross-entropy
// loss over integer class labels, the standard classification head.
//
// The cached probability matrix doubles as the gradient seed.
type SoftmaxCrossEntropy struct {
	lastProbs  *tensor.Tensor // step buffer (scratch.go)
	lastLabels []int
	grad       *tensor.Tensor // step buffer
}

// NewSoftmaxCrossEntropy constructs the fused loss.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy {
	return &SoftmaxCrossEntropy{}
}

// Forward computes the mean cross-entropy of logits (N, classes) against
// labels and caches the probabilities for Backward.
func (s *SoftmaxCrossEntropy) Forward(logits *tensor.Tensor, labels []int) float64 {
	n, c := logits.Dim(0), logits.Dim(1)
	probs := stepScratch(s.lastProbs, n, c)
	ld, pd := logits.Data(), probs.Data()
	loss := 0.0
	for i := 0; i < n; i++ {
		row := ld[i*c : (i+1)*c]
		maxv := math.Inf(-1)
		for _, v := range row {
			if f := v; f > maxv {
				maxv = f
			}
		}
		sum := 0.0
		prow := pd[i*c : (i+1)*c]
		for j, v := range row {
			e := math.Exp(v - maxv)
			prow[j] = e
			sum += e
		}
		inv := 1.0 / sum
		for j := range prow {
			prow[j] = prow[j] * inv
		}
		p := prow[labels[i]]
		// The clamp catches probabilities that underflowed to zero.
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
func (s *SoftmaxCrossEntropy) Backward() *tensor.Tensor {
	n, c := s.lastProbs.Dim(0), s.lastProbs.Dim(1)
	s.grad = stepScratchLike(s.grad, s.lastProbs)
	s.grad.CopyFrom(s.lastProbs)
	gd := s.grad.Data()
	inv := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		gd[i*c+s.lastLabels[i]] -= 1
		row := gd[i*c : (i+1)*c]
		for j := range row {
			row[j] = row[j] * inv
		}
	}
	return s.grad
}

func (s *SoftmaxCrossEntropy) releaseScratch() {
	putScratch(&s.lastProbs)
	putScratch(&s.grad)
}

// Accuracy returns the fraction of rows of logits whose argmax matches the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n, c := logits.Dim(0), logits.Dim(1)
	ld := logits.Data()
	correct := 0
	for i := 0; i < n; i++ {
		row := ld[i*c : (i+1)*c]
		best, bj := math.Inf(-1), 0
		for j, v := range row {
			if f := v; f > best {
				best, bj = f, j
			}
		}
		if bj == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
