// Package fl is a corpus stub: the shared-snapshot getter signatures the
// sharedmut analyzer matches by package path + name.
package fl

import (
	"context"

	"fedsu/internal/sparse"
)

type collective = sparse.Collective

// Tree is the collective's stub. Its Aggregate* methods are promoted from
// sparse.Collective, so the analyzer sees them defined in sparse; the
// partial ingest path publishes the same shared root global to every block
// submitter.
type Tree struct {
	collective
	global []float64
}

type Server = Tree

func (t *Tree) AggregatePartialCtx(ctx context.Context, round int, leg sparse.Leg, rankLo int, sum []float64, weight int) ([]float64, error) {
	return t.global, nil
}
