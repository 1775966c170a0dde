// Corpus for the sharedmut analyzer: mutations of shared aggregation
// results. The analyzer is table-matched against the fl getters and
// sparse dispatchers, so this consumer corpus can live at any path.
package consumer

import (
	"context"

	"fedsu/internal/fl"
	"fedsu/internal/sparse"
)

// --- positive cases ---

func badElementWrite(s *fl.Server, vec []float64) {
	g, _ := s.AggregateModel(0, 1, vec)
	g[0] = 1 // want `write through "g", a shared aggregation result`
}

func badCompoundWrite(s *fl.Server, vec []float64) {
	g, _ := s.AggregateModel(0, 1, vec)
	g[3] += 0.5 // want `write through "g", a shared aggregation result`
}

func badIncDec(s *fl.Server, vec []float64) {
	g, _ := s.AggregateModel(0, 1, vec)
	g[1]++ // want `write through "g", a shared aggregation result`
}

// Aliases stay shared: an identifier copy ...
func badAliasWrite(s *fl.Server, vec []float64) {
	g, _ := s.AggregateModel(0, 1, vec)
	h := g
	h[0] = 1 // want `write through "h", a shared aggregation result`
}

// ... and a subslice share the backing array.
func badSubsliceWrite(s *fl.Server, vec []float64) {
	g, _ := s.AggregateModel(0, 1, vec)
	tail := g[1:]
	tail[0] = 1 // want `write through "tail", a shared aggregation result`
}

func badCopyInto(s *fl.Server, vec, src []float64) {
	g, _ := s.AggregateModel(0, 1, vec)
	copy(g, src) // want `copy into "g", a shared aggregation result`
}

func badAppend(s *fl.Server, vec []float64) []float64 {
	g, _ := s.AggregateModel(0, 1, vec)
	return append(g, 1) // want `append to "g", a shared aggregation result`
}

// A plain assignment taints like a definition.
func badReassignedWrite(s *fl.Server, vec []float64) {
	var g []float64
	g, _ = s.AggregateModel(0, 1, vec)
	g[0] = 1 // want `write through "g", a shared aggregation result`
}

// The aggregate entry points hand out the same shared slice. The tree's
// are promoted from sparse.Collective: defined in sparse, not fl.
func badAggregateWrite(s *fl.Server, vec []float64) error {
	res, err := s.AggregateModel(0, 1, vec)
	if err != nil {
		return err
	}
	res[0] = 0 // want `write through "res", a shared aggregation result`
	return nil
}

func badAggregateCtxWrite(ctx context.Context, t *fl.Tree, vec []float64) {
	res, _ := t.AggregateModelCtx(ctx, 0, 1, vec)
	res[2] += 1 // want `write through "res", a shared aggregation result`
}

// The leg's dispatcher forwards the collective's shared result.
func badDispatchWrite(ctx context.Context, vec []float64) {
	res, _ := sparse.ModelLeg.Dispatch(ctx, nil, 0, 1, vec)
	res[0] = 1 // want `write through "res", a shared aggregation result`
}

// Tuple results through the dispatcher: only result 0 is the shared
// slice.
func badSyncContextWrite(ctx context.Context, vec []float64) {
	out, _, _ := sparse.SyncContext(ctx, nil, 1, vec, true)
	out[0] = 1 // want `write through "out", a shared aggregation result`
}

// Collect forwards the collective's shared result like the dispatcher it
// is handed.
func badCollectWrite(ctx context.Context, w *sparse.Wire, vec []float64) {
	res, _, _, _ := w.Collect(ctx, sparse.AggModel, nil, 0, 1, vec, nil)
	res[0] = 1 // want `write through "res", a shared aggregation result`
}

// A closure-captured alias is still an alias.
func badClosureWrite(s *fl.Server, vec []float64) func() {
	g, _ := s.AggregateModel(0, 1, vec)
	return func() {
		g[0] = 1 // want `write through "g", a shared aggregation result`
	}
}

// --- negative cases ---

// Reading is fine.
func okRead(s *fl.Server, vec []float64) float64 {
	g, _ := s.AggregateModel(0, 1, vec)
	total := 0.0
	for _, v := range g {
		total += v
	}
	return total + g[0]
}

// Copying OUT of the shared slice is fine.
func okCopyOut(s *fl.Server, vec []float64) []float64 {
	g, _ := s.AggregateModel(0, 1, vec)
	own := make([]float64, len(g))
	copy(own, g)
	own[0] = 1
	return own
}

// The canonical private copy: append from a nil base.
func okFreshAppend(s *fl.Server, vec []float64) []float64 {
	g, _ := s.AggregateModel(0, 1, vec)
	own := append([]float64(nil), g...)
	own[0] = 1
	return own
}

// Locals that never touch a shared source are untainted.
func okLocalWrite() {
	v := make([]float64, 8)
	v[0] = 1
	v = append(v, 2)
}

// The traffic result of SyncContext is the caller's own value.
func okTrafficUse(ctx context.Context, vec []float64) int {
	_, tr, _ := sparse.SyncContext(ctx, nil, 1, vec, true)
	tr.Up += 10
	return tr.Up
}

// Collect's byte counts are the caller's own values, and the image buffer
// it fills is the caller's to begin with.
func okCollectSizesAndImage(ctx context.Context, w *sparse.Wire, vec, image []float64) int {
	_, up, down, _ := w.Collect(ctx, sparse.AggModel, nil, 0, 1, vec, image)
	up += down
	image[0] = 0
	return up
}

// Sanctioned exception, annotated with a reason.
func okAnnotatedWrite(s *fl.Server, vec []float64) {
	g, _ := s.AggregateModel(0, 1, vec)
	g[0] = 1 //lint:allow sharedmut -- corpus replica of a single-owner test fixture that never shares the snapshot
}

// --- hierarchical-collective cases (PR 9) ---

// The relay ingest path hands back the same root global as the member
// entry points: a relay "normalising" through it corrupts every tier.
func badPartialWrite(t *fl.Tree, sum []float64) error {
	global, err := t.AggregatePartialCtx(context.Background(), 0, sparse.ModelLeg, 0, sum, 8)
	if err != nil {
		return err
	}
	global[0] = 0 // want `write through "global", a shared aggregation result`
	return nil
}

func badPartialSubsliceWrite(ctx context.Context, t *fl.Tree, sum []float64) {
	global, _ := t.AggregatePartialCtx(ctx, 0, sparse.ModelLeg, 0, sum, 8)
	head := global[:4]
	copy(head, sum) // want `copy into "head", a shared aggregation result`
}

// The relay's own forwarding copy is its private buffer: fold into it,
// ship it, recycle it — only the returned global is shared.
func okPartialCopyOut(t *fl.Tree, sum []float64) []float64 {
	global, _ := t.AggregatePartialCtx(context.Background(), 0, sparse.ModelLeg, 0, sum, 8)
	next := append([]float64(nil), global...)
	next[0] += 1
	return next
}
