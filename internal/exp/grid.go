package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"fedsu/internal/trace"
)

// GridRun is one independent cell of an experiment grid: the Config of the
// run it trains, naming its workload and scheme. Cells carry their own
// Config so sweeps can vary hyper-parameters per cell.
type GridRun struct {
	Cfg Config
	// Label names the cell within its workload ("fedsu", "TR=0.1",
	// "FedSU×Q4"); empty is the scheme. Progress lines are tagged
	// "workload/label".
	Label string
}

// label returns the cell's name within its workload.
func (g GridRun) label() string {
	if g.Label == "" {
		return g.Cfg.Scheme
	}
	return g.Label
}

// Grid is a grid driver's cells and the runs they trained, aligned and in
// grid order. Every row and series a result renders from it follows that
// order, so a report never depends on map iteration.
type Grid struct {
	Cells []GridRun
	Runs  []*Run
}

// runGrid trains cells on h.
func runGrid(ctx context.Context, h Harness, cells []GridRun) (Grid, error) {
	runs, err := h.Run(ctx, cells)
	return Grid{Cells: cells, Runs: runs}, err
}

// workloads returns the workloads of the grid's cells in grid order, each
// once.
func (g Grid) workloads() []string {
	var ws []string
	for _, c := range g.Cells {
		if !slices.Contains(ws, c.Cfg.Workload) {
			ws = append(ws, c.Cfg.Workload)
		}
	}
	return ws
}

// of returns workload w's cell labels and runs, in grid order.
func (g Grid) of(w string) (labels []string, runs []*Run) {
	for i, c := range g.Cells {
		if c.Cfg.Workload == w {
			labels = append(labels, c.label())
			runs = append(runs, g.Runs[i])
		}
	}
	return labels, runs
}

// Lookup returns the run of workload w's cell label, nil when the grid has
// none.
func (g Grid) Lookup(w, label string) *Run {
	labels, runs := g.of(w)
	if i := slices.Index(labels, label); i >= 0 {
		return runs[i]
	}
	return nil
}

// Harness runs the independent cells of an experiment grid across a
// bounded set of run slots, sharing read-only artifacts (datasets,
// Dirichlet partitions) through one Artifacts cache. It is how a grid runs,
// apart from what each cell trains: no setting of it changes a result.
//
// Determinism: every cell is seeded by its own Config and runs on its own
// engine; cells interact only through the artifact cache, whose hits are
// bit-identical to fresh builds. Results therefore do not depend on the
// slot count or on completion order, and Run returns them in input order —
// the parallel grid reproduces the sequential path byte-for-byte (enforced
// by TestGridBitIdentity).
//
// Compute: slots bound how many engines are in flight (peak memory); the
// actual CPU fan-out is bounded separately by internal/par's process-wide
// compute-token budget, which caps concurrent client training at
// par.Workers() across ALL slots, so run-level × client-level ×
// kernel-level nesting never oversubscribes the machine.
type Harness struct {
	// Verbose receives progress lines when non-nil; concurrent runs emit
	// whole, per-run-prefixed lines.
	Verbose io.Writer
	// Parallel is the number of runs in flight at once; values below 1
	// mean sequential.
	Parallel int
	// Clock, when non-nil, timestamps each run for per-run wall-clock
	// reporting (wired to time.Now by cmd/fedsu-bench; nil keeps library
	// runs deterministic and silent).
	Clock func() time.Time

	// order optionally permutes the slot-submission order (test seam for
	// proving start-order independence); results stay input-indexed.
	order []int
}

// Run executes every grid cell and returns the results in input order.
// At most Parallel cells run at once; with one slot, execution is strictly
// sequential in input order. The first failure cancels the remaining cells
// and is returned (preferring a concrete run error over the cancellations
// it caused).
func (h Harness) Run(ctx context.Context, runs []GridRun) ([]*Run, error) {
	if len(runs) == 0 {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	order := h.order
	if order == nil {
		order = make([]int, len(runs))
		for i := range order {
			order[i] = i
		}
	} else if len(order) != len(runs) {
		return nil, fmt.Errorf("exp: scheduler order has %d entries for %d runs", len(order), len(runs))
	}

	// Cells naming no Artifacts share a private cache, and concurrent
	// cells write whole lines to Verbose.
	arts := NewArtifacts()
	if h.Verbose != nil {
		h.Verbose = trace.NewSyncWriter(h.Verbose)
	}
	out := make([]*Run, len(runs))
	errs := make([]error, len(runs))
	slots := make(chan struct{}, max(h.Parallel, 1))
	var wg sync.WaitGroup
	for _, idx := range order {
		// Acquire the slot before spawning: submission stays in `order`,
		// and a single-slot scheduler degenerates to exactly the
		// sequential loop it replaced.
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			out[idx], errs[idx] = h.runCell(ctx, runs[idx], arts)
			if errs[idx] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()

	// A concrete failure beats the cancellations it triggered in sibling
	// cells.
	var cancelled error
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
		if cancelled == nil {
			cancelled = err
		}
	}
	if cancelled != nil {
		return nil, cancelled
	}
	return out, nil
}

// runCell executes one grid cell with per-run verbose prefixing and
// optional wall-clock reporting.
func (h Harness) runCell(ctx context.Context, gr GridRun, arts *Artifacts) (*Run, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := gr.Cfg
	if cfg.Artifacts == nil {
		cfg.Artifacts = arts
	}
	var verbose io.Writer
	if h.Verbose != nil {
		pw := trace.NewPrefixWriter(h.Verbose, "["+cfg.Workload+"/"+gr.label()+"] ")
		defer pw.Flush()
		verbose = pw
		logf(verbose, "run %s/%s: %d clients, %d rounds", cfg.Workload, cfg.Scheme, cfg.Clients, cfg.Rounds)
	}
	var start time.Time
	if h.Clock != nil {
		start = h.Clock()
	}
	r, err := RunOne(ctx, cfg)
	if h.Clock != nil {
		wall := h.Clock().Sub(start).Round(time.Millisecond)
		if err != nil {
			logf(verbose, "failed after %s: %v", wall, err)
		} else {
			logf(verbose, "done: wall %s", wall)
		}
	}
	return r, err
}
