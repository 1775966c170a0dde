package exp

import (
	"strings"
	"testing"

	"fedsu/internal/fl"
	"fedsu/internal/sparse"
	"fedsu/internal/trace"
)

// stubRun is a four-round run of made-up statistics that differ with k, so
// every cell of a stub grid renders distinct rows. Nothing is trained.
func stubRun(w, scheme string, k int) *Run {
	r := &Run{Workload: w, Scheme: scheme}
	for i := 0; i < 4; i++ {
		r.Stats = append(r.Stats, fl.RoundStats{
			Round:               i,
			SimTime:             float64((i + 1) * (k + 2)),
			Accuracy:            float64(k+i) / 40,
			SparsificationRatio: float64(k%5) / 10,
			Traffic:             sparse.Traffic{UpBytes: 1000 * (k + 1), DownBytes: 500 * (k + 1)},
		})
	}
	return r
}

// stubGrid pairs cells with stub runs.
func stubGrid(cells []GridRun) Grid {
	g := Grid{Cells: cells}
	for i, c := range cells {
		g.Runs = append(g.Runs, stubRun(c.Cfg.Workload, c.Cfg.Scheme, i))
	}
	return g
}

// TestReportsAreDeterministic: every grid driver's result, built from stub
// runs over two workloads, renders the same record on every call, its rows
// in grid order. The workloads are listed DenseNet first, so neither map
// order nor a name sort can pass for grid order. When results kept their
// runs in workload-keyed maps, Figs. 2, 7, 8 and the sweeps swapped rows
// between renders.
func TestReportsAreDeterministic(t *testing.T) {
	cfg := microConfig()
	ws := []Workload{DenseNetWorkload(), CNNWorkload()}
	names := []string{"densenet121", "cnn"}

	fig12 := &Fig12Result{FracThreshold: 0.05}
	fig7 := &Fig7Result{}
	for i, w := range ws {
		s := trace.NewSeries(w.Name, "x", "y")
		s.Add(0, float64(i))
		s.Add(1, 1)
		fig12.Workloads = append(fig12.Workloads, Fig12Workload{
			Name: w.Name, Trajectories: []*trace.Series{s}, Instantaneous: s, CDF: s, FracBelow: float64(i) / 2,
		})
		fig7.CDFs = append(fig7.CDFs, s)
		fig7.ShareLinearMajority = append(fig7.ShareLinearMajority, float64(i)/2)
	}
	sweep := func(param string, values []float64) *SweepResult {
		var cells []GridRun
		for _, w := range ws {
			for _, v := range values {
				cells = append(cells, GridRun{Cfg: cfg.named(w, "fedsu"), Label: sweepLabel(param, v)})
			}
		}
		return &SweepResult{Param: param, Values: values, Grid: stubGrid(cells)}
	}
	cnn := CNNWorkload()
	// Compose and popscale read their runs' engines: one untrained engine
	// serves every stub.
	engine, err := NewEngine(cfg.named(cnn, "fedavg"))
	if err != nil {
		t.Fatal(err)
	}
	compose := &ComposeResult{Cfg: cfg, Workload: cnn, Cells: ComposeCells()}
	for i, c := range compose.Cells {
		run := stubRun(cnn.Name, c.Scheme, i)
		run.Engine = engine
		compose.Runs = append(compose.Runs, run)
	}
	pop := &PopScaleResult{Cfg: cfg, Workload: cnn, Scheme: "fedavg", Fanouts: []int{0, 8, 32}}
	for i := range pop.Fanouts {
		run := stubRun(cnn.Name, "fedavg", i)
		run.Engine = engine
		pop.Runs = append(pop.Runs, run)
	}

	for _, c := range []struct {
		name string
		res  interface{ Report() Report }
		rows []string // leading cells of rows that must appear in this order
	}{
		{"table1+fig5", &EndToEndResult{Workloads: ws, Grid: stubGrid(schemeGrid(cfg, ws, Schemes()))}, names},
		{"fig1+fig2", fig12, names},
		{"fig7", fig7, names},
		{"fig8", &Fig8Result{stubGrid(schemeGrid(cfg, ws, Variants()))}, names},
		{"fig9", sweep("TR", Fig9Thresholds()), names},
		{"fig10", sweep("TS", Fig10Thresholds()), names},
		{"compose", compose, []string{"FedSU", "FedSU×Q4", "FedSU×Q4×entropy", "FedSU×low-rank", "QSGD×entropy"}},
		{"popscale", pop, []string{"flat", "8", "32"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := render(t, c.res.Report())
			for i := 0; i < 50; i++ {
				if got := render(t, c.res.Report()); got != want {
					t.Fatalf("render %d differs from the first:\n%s\nfirst:\n%s", i, got, want)
				}
			}
			prev := -1
			for _, row := range c.rows {
				i := strings.Index(want, "\n"+row+" ")
				if i <= prev {
					t.Fatalf("row %q at %d, want after %d (grid order %v):\n%s", row, i, prev, c.rows, want)
				}
				prev = i
			}
		})
	}
}

// TestSpeedupOnlyWhenBothReached: the speedup against APF compares times to
// the target accuracy, so a number is printed only when FedSU and APF both
// reached it. A run that missed the target offers only its full-run time,
// and a ratio against it once read as a speedup.
func TestSpeedupOnlyWhenBothReached(t *testing.T) {
	w := CNNWorkload()
	// reach returns a run evaluating to accs over rounds of 10 s each.
	reach := func(accs ...float64) *Run {
		r := &Run{}
		for i, a := range accs {
			r.Stats = append(r.Stats, fl.RoundStats{Round: i, SimTime: float64(10 * (i + 1)), Accuracy: a})
		}
		return r
	}
	hit, miss := w.TargetAccuracy+0.1, w.TargetAccuracy-0.1
	cfg := microConfig()
	for _, c := range []struct {
		name       string
		fedsu, apf *Run
		want       string
	}{
		{"both", reach(hit), reach(miss, hit), "50.0%"},
		{"fedsu-missed", reach(miss, miss), reach(miss, miss, hit), "not reached"},
		{"apf-missed", reach(hit), reach(miss, miss), "not reached"},
		{"neither", reach(miss), reach(miss), "not reached"},
	} {
		res := &EndToEndResult{Workloads: []Workload{w}, Grid: Grid{
			Cells: schemeGrid(cfg, []Workload{w}, []string{"fedsu", "apf"}),
			Runs:  []*Run{c.fedsu, c.apf},
		}}
		out := render(t, res.Report())
		_, vs, _ := strings.Cut(out, "FedSU vs APF")
		var row string
		for _, line := range strings.Split(vs, "\n") {
			if strings.HasPrefix(line, w.Name+" ") {
				row = strings.TrimSpace(line)
				break
			}
		}
		if !strings.HasSuffix(row, " "+c.want) {
			t.Errorf("%s: speedup row %q, want it to end in %q", c.name, row, c.want)
		}
	}
}
