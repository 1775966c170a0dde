package exp

import (
	"context"
	"fmt"
	"math"

	"fedsu/internal/sparse/codec"
	"fedsu/internal/trace"
)

// ComposeCell is one (scheme, compression chain) point of the
// composition experiment.
type ComposeCell struct {
	// Name labels the table row ("FedSU×Q4×entropy").
	Name string
	// Scheme is the sync strategy ("fedsu", "qsgd", ...).
	Scheme string
	// Compress is the chain spec handed to fl.Config.Compress; empty
	// keeps the default f32 sparse codec.
	Compress string
}

// ComposeCells is the paper-style composition grid: the FedSU
// speculative baseline, FedSU under progressively deeper chains, and a
// QSGD×entropy reference showing the chain composes with a
// quantizing strategy too.
func ComposeCells() []ComposeCell {
	return []ComposeCell{
		{Name: "FedSU", Scheme: "fedsu", Compress: ""},
		{Name: "FedSU×Q4", Scheme: "fedsu", Compress: "topk,q4"},
		{Name: "FedSU×Q4×entropy", Scheme: "fedsu", Compress: "topk,q4,rans"},
		{Name: "FedSU×low-rank", Scheme: "fedsu", Compress: "lowrank"},
		{Name: "QSGD×entropy", Scheme: "qsgd", Compress: "rans"},
	}
}

// ComposeResult bundles the composition runs. Cells and Runs align;
// the first cell is the uncompressed reference the byte-reduction
// column is computed against.
type ComposeResult struct {
	Cfg      Config
	Workload Workload
	Cells    []ComposeCell
	Runs     []*Run
}

// RunComposition trains the same workload once per composition cell on
// the grid scheduler. Each cell differs only in (scheme, chain): the
// dataset, partition, and model init are shared through the artifact
// cache, so the accuracy deltas isolate the chain's lossy stages and
// the byte columns isolate the chain's wire savings.
func RunComposition(ctx context.Context, h Harness, cfg Config, w Workload, cells []ComposeCell) (*ComposeResult, error) {
	if len(cells) == 0 {
		cells = ComposeCells()
	}
	grid := make([]GridRun, 0, len(cells))
	for _, cell := range cells {
		run := cfg
		run.Compress = cell.Compress
		grid = append(grid, GridRun{Cfg: run.named(w, cell.Scheme), Label: cell.Name})
	}
	runs, err := h.Run(ctx, grid)
	if err != nil {
		return nil, err
	}
	return &ComposeResult{Cfg: cfg, Workload: w, Cells: cells, Runs: runs}, nil
}

// TotalBytes returns cell i's measured up+down wire bytes over the
// whole run.
func (r *ComposeResult) TotalBytes(i int) int64 {
	if r.Runs[i] == nil {
		return 0
	}
	up, down := r.Runs[i].Traffic()
	return up + down
}

// Reduction returns the reference cell's total bytes divided by cell
// i's — the "×" column (how many times fewer bytes the chained cell
// moved than the uncompressed baseline).
func (r *ComposeResult) Reduction(i int) float64 {
	ref := r.TotalBytes(0)
	b := r.TotalBytes(i)
	if ref == 0 || b == 0 {
		return math.NaN()
	}
	return float64(ref) / float64(b)
}

// Report is the composition comparison — accuracy, measured bytes, and
// the byte reduction over the uncompressed reference — then the per-stage
// byte accounting of every chained cell: messages encoded, bytes in, bytes
// out, and the stage's own compression factor, where in the pipeline the
// savings come from.
func (r *ComposeResult) Report() Report {
	t := trace.NewTable(
		fmt.Sprintf("Compression composition: %s, %d clients, %d rounds",
			r.Workload.Name, r.Cfg.Clients, r.Cfg.Rounds),
		"Cell", "Chain", "Final Acc", "ΔAcc", "Up MB", "Down MB", "Bytes ×", "Sparsification",
	)
	stages := trace.NewTable(
		"Per-stage byte accounting (encoder side, whole run)",
		"Cell", "Stage", "Msgs", "In MB", "Out MB", "In/Out",
	)
	addStages := func(cell string, counters []codec.StageBytes, leg string) {
		for _, sb := range counters {
			factor := math.NaN()
			if sb.OutBytes > 0 {
				factor = float64(sb.InBytes) / float64(sb.OutBytes)
			}
			stages.AddRow(cell, sb.Stage+leg, sb.Msgs,
				float64(sb.InBytes)/1e6, float64(sb.OutBytes)/1e6, fmt.Sprintf("%.2f", factor))
		}
	}
	refAcc := r.Runs[0].FinalAccuracy()
	for i, cell := range r.Cells {
		run := r.Runs[i]
		if run == nil {
			continue
		}
		if chain := run.Engine.Chain(); chain != nil && cell.Compress != "" {
			addStages(cell.Name, chain.Counters(), "")
			if reply := chain.Reply(); reply != chain {
				// Asymmetric session: the downlink ships the widened reply
				// chain, with its own counters.
				addStages(cell.Name, reply.Counters(), " ↓")
			}
		}
		if len(run.Stats) == 0 {
			continue
		}
		up, down := run.Traffic()
		chain := cell.Compress
		if chain == "" {
			chain = "(f32 sparse)"
		}
		acc := run.FinalAccuracy()
		t.AddRow(
			cell.Name,
			chain,
			fmt.Sprintf("%.3f", acc),
			fmt.Sprintf("%+.3f", acc-refAcc),
			float64(up)/1e6,
			float64(down)/1e6,
			fmt.Sprintf("%.2f", r.Reduction(i)),
			fmt.Sprintf("%.3f", run.MeanSparsification()),
		)
	}
	return Report{Tables: []*trace.Table{t, stages}}
}
