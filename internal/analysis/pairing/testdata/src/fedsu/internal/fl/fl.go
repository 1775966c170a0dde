// Package fl is a corpus stub: the tree-collective barrier signatures the
// pairing analyzer matches by package path + name. AggregatePartialCtx
// parks the caller until the root publishes the round's global, so it is
// a rendezvous with every other token holder in the cohort.
package fl

import (
	"context"

	"fedsu/internal/sparse"
)

type Tree struct {
	global []float64
}

func (t *Tree) AggregatePartialCtx(ctx context.Context, round int, leg sparse.Leg, rankLo int, sum []float64, weight int) ([]float64, error) {
	return t.global, nil
}
