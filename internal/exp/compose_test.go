package exp

import (
	"context"
	"testing"
)

// composeConfig is the micro-scale composition config.
func composeConfig() Config {
	cfg := microConfig()
	cfg.Rounds = 6
	return cfg
}

// TestComposeCellsRun is the compose driver's smoke test: every cell
// trains, the chained cells actually move fewer measured bytes than the
// uncompressed reference, and both tables render.
func TestComposeCellsRun(t *testing.T) {
	cfg := composeConfig()
	res, err := RunComposition(context.Background(), Harness{}, cfg, CNNWorkload(), ComposeCells())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(ComposeCells()) {
		t.Fatalf("got %d runs, want %d", len(res.Runs), len(ComposeCells()))
	}
	for i, cell := range res.Cells {
		if res.Runs[i] == nil || len(res.Runs[i].Stats) == 0 {
			t.Fatalf("cell %s produced no stats", cell.Name)
		}
		if res.TotalBytes(i) <= 0 {
			t.Fatalf("cell %s measured no wire bytes", cell.Name)
		}
	}
	// FedSU×Q4×entropy must beat plain FedSU on measured bytes: q4 packs
	// 4-bit codes where the reference ships f32 values, and the range
	// coder squeezes the bitmap further.
	if red := res.Reduction(2); red <= 1.5 {
		t.Errorf("FedSU×Q4×entropy reduction = %.2f×, want > 1.5× at micro scale", red)
	}
	if rep := res.Report(); len(rep.Tables) != 2 || render(t, rep) == "" {
		t.Fatal("tables rendered nothing")
	}
}

// TestComposeBitIdentityAcrossWorkers pins the scheduler contract for
// chained runs: the composition grid produces byte-for-byte identical
// statistics and final models sequentially and with 4 slots. The chain's
// stochastic quantizer is a pure seeded hash, so no worker interleaving
// can perturb it.
func TestComposeBitIdentityAcrossWorkers(t *testing.T) {
	cfg := composeConfig()
	cells := []ComposeCell{
		{Name: "FedSU", Scheme: "fedsu", Compress: ""},
		{Name: "FedSU×Q4×entropy", Scheme: "fedsu", Compress: "topk,q4,rans"},
		{Name: "FedSU×low-rank", Scheme: "fedsu", Compress: "lowrank"},
	}

	want, err := RunComposition(context.Background(), Harness{Parallel: 1}, cfg, CNNWorkload(), cells)
	if err != nil {
		t.Fatal(err)
	}

	got, err := RunComposition(context.Background(), Harness{Parallel: 4}, cfg, CNNWorkload(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if seq, par := fingerprint(want.Runs[i]), fingerprint(got.Runs[i]); seq != par {
			t.Fatalf("cell %s diverged across worker counts\nseq:  %.120s\npar:  %.120s",
				cells[i].Name, seq, par)
		}
	}
}
