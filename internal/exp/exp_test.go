package exp

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"fedsu/internal/trace"
)

// microConfig is the smallest configuration that still exercises every
// experiment code path.
func microConfig() Config {
	cfg := FastConfig()
	cfg.Clients = 3
	cfg.Rounds = 8
	cfg.LocalIters = 2
	cfg.BatchSize = 4
	cfg.Samples = 188 // exercises uneven shard sizes
	cfg.ModelScale = 32
	cfg.EvalEvery = 2
	return cfg
}

func TestWorkloads(t *testing.T) {
	ws := Workloads()
	if len(ws) != 3 {
		t.Fatalf("Workloads = %d, want 3", len(ws))
	}
	for _, w := range ws {
		m := w.Model(32, 1)
		if m.Size() <= 0 {
			t.Errorf("%s: empty model", w.Name)
		}
		ds := w.Dataset(64, 1)
		if ds.Len() != 64 {
			t.Errorf("%s: dataset len %d", w.Name, ds.Len())
		}
		if w.WireParams < 100_000 {
			t.Errorf("%s: wire params %d suspiciously small", w.Name, w.WireParams)
		}
	}
	if _, err := WorkloadByName("cnn"); err != nil {
		t.Error(err)
	}
	if _, err := WorkloadByName("gpt"); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestRunOneAllSchemes(t *testing.T) {
	cfg := microConfig()
	w := CNNWorkload()
	for _, s := range append(Schemes(), "fedsu-v1", "fedsu-v2") {
		s := s
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			run, err := RunOne(context.Background(), cfg.named(w, s))
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Stats) != cfg.Rounds {
				t.Fatalf("stats = %d rounds", len(run.Stats))
			}
			if run.MeanRoundTime() <= 0 {
				t.Error("mean round time must be positive")
			}
			secs, rounds, _ := run.TimeToAccuracy(0.99)
			if secs <= 0 || rounds <= 0 {
				t.Error("TimeToAccuracy must report totals even when unreached")
			}
		})
	}
}

// render writes rep the way cmd/fedsu-bench lays it out — tables, then
// each figure's plot when titled — with each figure's CSV inline under its
// file name, so one string holds the whole record.
func render(t testing.TB, rep Report) string {
	t.Helper()
	var b bytes.Buffer
	for _, tb := range rep.Tables {
		if err := tb.Render(&b); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range rep.Figures {
		if f.Title != "" {
			fmt.Fprintln(&b, f.Title)
			if err := trace.AsciiPlot(&b, 72, 14, f.Series...); err != nil {
				t.Fatal(err)
			}
		}
		fmt.Fprintf(&b, "--- %s\n", f.File)
		if err := trace.WriteCSVMulti(&b, f.Series...); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// figure returns rep's figure written as file, nil when it has none.
func figure(rep Report, file string) *Figure {
	for i := range rep.Figures {
		if rep.Figures[i].File == file {
			return &rep.Figures[i]
		}
	}
	return nil
}

func TestEndToEndAndTable1(t *testing.T) {
	cfg := microConfig()
	ws := []Workload{CNNWorkload()}
	res, err := RunEndToEnd(context.Background(), Harness{}, cfg, ws, Schemes())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	out := render(t, rep)
	for _, want := range []string{"Table I", "fedsu", "apf", "cmfl", "fedavg", "Sparsification"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if acc := figure(rep, "fig5_acc_cnn.csv"); acc == nil || len(acc.Series) != 4 {
		t.Errorf("Fig5 accuracy series = %v, want 4", acc)
	}
	if ratio := figure(rep, "fig5_ratio_cnn.csv"); ratio == nil || len(ratio.Series) != 2 {
		t.Errorf("Fig5 ratio series = %v, want 2 (apf + fedsu)", ratio)
	}
}

func TestFig12(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 6
	res, err := RunFig12(context.Background(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"cnn", "densenet121"} {
		w := res.Workloads[i]
		if w.Name != name {
			t.Fatalf("workload %d = %s, want %s", i, w.Name, name)
		}
		if len(w.Trajectories) != 2 {
			t.Fatalf("%s: %d series, want 2", name, len(w.Trajectories))
		}
		for _, s := range w.Trajectories {
			if s.Len() != cfg.Rounds {
				t.Errorf("%s: series len %d, want %d", name, s.Len(), cfg.Rounds)
			}
		}
		if w.Instantaneous.Len() != cfg.Rounds-1 {
			t.Errorf("%s: %d normalized differences, want %d", name, w.Instantaneous.Len(), cfg.Rounds-1)
		}
		// CDF y must be monotone from ~0 to 1.
		if w.CDF.Len() == 0 || w.CDF.Y[len(w.CDF.Y)-1] != 1 {
			t.Errorf("%s: CDF does not reach 1", name)
		}
	}
	if !strings.Contains(render(t, res.Report()), "normalized difference") {
		t.Error("report missing summary")
	}
}

func TestFig6(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 16
	res, err := RunFig6(context.Background(), cfg, CNNWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.FedSU.Len() != cfg.Rounds || res.FedAvg.Len() != cfg.Rounds {
		t.Fatalf("trajectory lengths %d/%d, want %d", res.FedSU.Len(), res.FedAvg.Len(), cfg.Rounds)
	}
	if e := res.ApproximationError(); e < 0 {
		t.Errorf("approximation error = %v", e)
	}
}

func TestFig7(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 12
	res, err := RunFig7(context.Background(), Harness{}, cfg, []Workload{CNNWorkload()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CDFs) != 1 || res.CDFs[0].Name != "cnn" || res.CDFs[0].Len() == 0 {
		t.Fatal("missing CDF")
	}
	share := res.ShareLinearMajority[0]
	if share < 0 || share > 1 {
		t.Errorf("share = %v outside [0,1]", share)
	}
	if !strings.Contains(render(t, res.Report()), "linear") {
		t.Error("report missing summary")
	}
}

func TestFig8(t *testing.T) {
	cfg := microConfig()
	cfg.FedSU.FixedPeriod = 4
	cfg.FedSU.LaunchProb = 0.05
	res, err := RunFig8(context.Background(), Harness{}, cfg, []Workload{CNNWorkload()})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Variants() {
		if res.Lookup("cnn", v) == nil {
			t.Fatalf("missing run for %s", v)
		}
	}
	if !strings.Contains(render(t, res.Report()), "fedsu-v2") {
		t.Error("report missing variant rows")
	}
}

func TestFig9And10(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 5
	ws := []Workload{CNNWorkload()}
	r9, err := RunFig9(context.Background(), Harness{}, cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(r9.Values) != 4 || r9.Param != "TR" {
		t.Errorf("Fig9 sweep malformed: %+v", r9.Values)
	}
	r10, err := RunFig10(context.Background(), Harness{}, cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(r10.Values) != 4 || r10.Param != "TS" {
		t.Errorf("Fig10 sweep malformed: %+v", r10.Values)
	}
	if !strings.Contains(render(t, r9.Report()), "TR") || !strings.Contains(render(t, r10.Report()), "TS") {
		t.Error("sweep reports missing parameter labels")
	}
}

func TestTable2(t *testing.T) {
	cfg := microConfig()
	res, err := RunTable2(context.Background(), cfg, []Workload{CNNWorkload()},
		map[string]float64{"cnn": 7.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row.MemoryInflationMB <= 0 {
		t.Error("memory inflation must be positive")
	}
	if row.MemoryInflationRatio <= 0 || row.MemoryInflationRatio > 0.5 {
		t.Errorf("memory ratio = %v, want small positive", row.MemoryInflationRatio)
	}
	if row.ComputeInflationSec < 0 {
		t.Error("compute inflation negative")
	}
	if !strings.Contains(render(t, res.Report()), "Table II") {
		t.Error("report missing title")
	}
}
