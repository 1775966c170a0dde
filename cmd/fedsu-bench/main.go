// Command fedsu-bench regenerates the paper's tables and figures on the
// emulated cluster. Every experiment's result is one exp.Report, rendered
// the same way: its tables on stdout, then its figures, each plotted on
// stdout when titled and written as a CSV under -out (plot the CSVs with
// fedsu-plot).
//
// Usage:
//
//	fedsu-bench -exp all                 # everything, fast scale
//	fedsu-bench -exp table1 -scale standard -out results/
//	fedsu-bench -exp fig9 -rounds 120
//
// The experiment ids are the rows of the experiments table below; "all" is
// the paper's own figure set, which leaves out popscale and compose.
// Every id is checked before the first experiment runs. Ids that share a
// driver share its output: fig1, fig2 and fig1+fig2 train the same two
// FedAvg runs and print both figures, as table1, fig5 and table1+fig5 do
// for Table I and Fig. 5. "all" runs each shared driver once.
//
// Grid experiments (table1/fig5, fig7, fig8, fig9/fig10, popscale, compose)
// fan their independent runs across -parallel slots sharing one
// dataset/partition cache; results are bit-identical to -parallel 1 at any
// slot count (the contract of internal/exp's Harness), and every table row
// and figure series follows grid order, so two invocations print the same
// document.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"fedsu/internal/exp"
	"fedsu/internal/trace"
)

func main() {
	// The grids hold several engines at once (model replicas, datasets,
	// per-client strategy state); a tighter GC target keeps the peak
	// resident set 10-20 % lower (fig8 -light -rounds 8 on 2 vCPUs: 110-114
	// against 117-144 MiB) for about 10 % more wall time.
	debug.SetGCPercent(50)
	exp.Main("fedsu-bench", run)
}

// env is what every experiment runner reads besides its Config.
type env struct {
	h       exp.Harness
	stdout  io.Writer
	outDir  string
	light   bool
	fanouts []int
}

// sweepSet is the workload set of the ablation and sensitivity sweeps.
func (e env) sweepSet() []exp.Workload {
	if e.light {
		return []exp.Workload{exp.CNNWorkload()}
	}
	return []exp.Workload{exp.CNNWorkload(), exp.DenseNetWorkload()}
}

// experiment is one -exp id: its runner, whether "all" includes it, and
// its horizon when -rounds is unset (0: the preset's).
type experiment struct {
	id     string
	inAll  bool
	run    func(ctx context.Context, cfg exp.Config, e env) error
	rounds int
}

// experiments is the one table of -exp ids, in the order "all" runs them.
var experiments = []experiment{
	{"fig1", false, runFig12, 0},
	{"fig2", false, runFig12, 0},
	{"fig1+fig2", true, runFig12, 0},
	{"table1", false, runEndToEnd, 0},
	{"fig5", false, runEndToEnd, 0},
	{"table1+fig5", true, runEndToEnd, 0},
	{"fig6", true, runFig6, 0},
	{"fig7", true, runFig7, 0},
	{"fig8", true, runFig8, 0},
	{"fig9", true, runFig9, 0},
	{"fig10", true, runFig10, 0},
	{"table2", true, runTable2, 0},
	{"popscale", false, runPopScale, 0},
	// Quantized compose cells converge slower (error feedback carries the
	// rounding loss forward, it doesn't erase it); every cell gets time to
	// reach the converged plateau, so the table's accuracy column reads the
	// chains' asymptotic cost.
	{"compose", false, runCompose, 96},
}

// experimentIDs lists every accepted -exp id, "all" last.
func experimentIDs() string {
	ids := make([]string, 0, len(experiments)+1)
	for _, x := range experiments {
		ids = append(ids, x.id)
	}
	return strings.Join(append(ids, "all"), ", ")
}

// selectExperiments resolves a comma-separated -exp list, expanding "all",
// and refuses the whole list if any id is unknown.
func selectExperiments(list string) ([]experiment, error) {
	var out []experiment
	for _, id := range strings.Split(list, ",") {
		n := len(out)
		for _, x := range experiments {
			if x.id == id || id == "all" && x.inAll {
				out = append(out, x)
			}
		}
		if len(out) == n {
			return nil, fmt.Errorf("unknown experiment %q (want %s)", id, experimentIDs())
		}
	}
	return out, nil
}

// options are fedsu-bench's own flags. -rounds, -clients and -modelscale
// override the preset when positive.
type options struct {
	exp, scale, out, fanouts           string
	rounds, clients, modelScale, slots int
	light                              bool
}

// newFlags defines fedsu-bench's flag set: the run flags every experiment
// takes write straight into set, the command's own into o.
func newFlags(set *exp.Config, o *options) *flag.FlagSet {
	*set = exp.Config{Seed: 1}
	fs := flag.NewFlagSet("fedsu-bench", flag.ContinueOnError)
	fs.StringVar(&o.exp, "exp", "all", "comma-separated experiment ids: "+experimentIDs())
	fs.StringVar(&o.scale, "scale", "fast", "preset: fast or standard")
	fs.IntVar(&o.rounds, "rounds", 0, "override rounds")
	fs.IntVar(&o.clients, "clients", 0, "override client count (with -population, the cohort sampled per round)")
	fs.IntVar(&o.modelScale, "modelscale", 0, "override model width divisor (1 = paper scale)")
	fs.StringVar(&o.out, "out", "", "directory for CSV output")
	fs.BoolVar(&o.light, "light", false, "restrict the ablation and sensitivity sweeps to the CNN workload")
	fs.IntVar(&o.slots, "parallel", runtime.GOMAXPROCS(0), "experiment runs in flight at once in the grid experiments (1 = sequential)")
	fs.StringVar(&o.fanouts, "fanout", "8,32", "comma-separated tree fanouts the popscale experiment compares against the flat fold")
	exp.BindFlags(fs, set, "seed", "population", "compress")
	return fs
}

// run is the whole command: it parses args, runs the selected experiments
// and reports to stdout; progress goes to stderr.
func run(args []string, stdout io.Writer) error {
	var set exp.Config
	var o options
	if err := newFlags(&set, &o).Parse(args); err != nil {
		return err
	}
	selected, err := selectExperiments(o.exp)
	if err != nil {
		return err
	}
	cfg, err := preset(o.scale)
	if err != nil {
		return err
	}
	if o.rounds > 0 {
		cfg.Rounds = o.rounds
	}
	if o.clients > 0 {
		cfg.Clients = o.clients
	}
	if o.modelScale > 0 {
		cfg.ModelScale = o.modelScale
	}
	cfg.Seed, cfg.Population, cfg.Compress = set.Seed, set.Population, set.Compress
	popFanouts, err := parseFanouts(o.fanouts)
	if err != nil {
		return err
	}
	// One cache for the whole invocation: -exp all shares corpora and
	// partitions across table1, fig8, and the sensitivity sweeps.
	cfg.Artifacts = exp.NewArtifacts()

	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
	}

	ctx := context.Background()
	// Wall-clock enters run logic only through the harness's injected clock
	// (Harness.Run stamps per-run wall time with it); results stay a pure
	// function of Config and seed.
	h := exp.Harness{Verbose: os.Stderr, Parallel: o.slots, Clock: time.Now}
	e := env{h: h, stdout: stdout, outDir: o.out, light: o.light, fanouts: popFanouts}
	for _, x := range selected {
		xcfg := cfg
		if x.rounds > 0 && o.rounds == 0 {
			xcfg.Rounds = x.rounds
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		resetPeakRSS()
		start := time.Now()
		fmt.Fprintf(stdout, "\n=== %s ===\n", x.id)
		if err := x.run(ctx, xcfg, e); err != nil {
			return fmt.Errorf("%s: %w", x.id, err)
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		line := fmt.Sprintf("--- %s: wall %s, allocated %.1f MiB in %d objects",
			x.id, time.Since(start).Round(time.Millisecond),
			float64(after.TotalAlloc-before.TotalAlloc)/(1<<20),
			after.Mallocs-before.Mallocs)
		if rss, ok := peakRSS(); ok {
			line += fmt.Sprintf(", peak RSS %.1f MiB", rss/(1<<20))
		}
		fmt.Fprintln(stdout, line)
	}
	return nil
}

// render writes an experiment's report: its tables, then its figures,
// each plotted when titled and written as a CSV under -out.
func (e env) render(res interface{ Report() exp.Report }, err error) error {
	if err != nil {
		return err
	}
	rep := res.Report()
	for i, t := range rep.Tables {
		if i > 0 {
			fmt.Fprintln(e.stdout)
		}
		if err := t.Render(e.stdout); err != nil {
			return err
		}
	}
	for _, f := range rep.Figures {
		if f.Title != "" {
			fmt.Fprintf(e.stdout, "\n%s\n", f.Title)
			if err := trace.AsciiPlot(e.stdout, 72, 14, f.Series...); err != nil {
				return err
			}
		}
		if e.outDir == "" || len(f.Series) == 0 {
			continue
		}
		var csv bytes.Buffer
		if err := trace.WriteCSVMulti(&csv, f.Series...); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(e.outDir, f.File), csv.Bytes(), 0o666); err != nil {
			return err
		}
	}
	return nil
}

func runFig12(ctx context.Context, cfg exp.Config, e env) error {
	return e.render(exp.RunFig12(ctx, cfg, 2))
}

// runEndToEnd is Table I and Fig. 5: one grid, two renderings.
func runEndToEnd(ctx context.Context, cfg exp.Config, e env) error {
	return e.render(exp.RunEndToEnd(ctx, e.h, cfg, exp.Workloads(), exp.Schemes()))
}

func runFig6(ctx context.Context, cfg exp.Config, e env) error {
	return e.render(exp.RunFig6(ctx, cfg, exp.CNNWorkload()))
}

func runFig7(ctx context.Context, cfg exp.Config, e env) error {
	ws := exp.Workloads()
	if e.light {
		ws = e.sweepSet()
	}
	return e.render(exp.RunFig7(ctx, e.h, cfg, ws))
}

func runFig8(ctx context.Context, cfg exp.Config, e env) error {
	return e.render(exp.RunFig8(ctx, e.h, cfg, e.sweepSet()))
}

func runFig9(ctx context.Context, cfg exp.Config, e env) error {
	return e.render(exp.RunFig9(ctx, e.h, cfg, e.sweepSet()))
}

func runFig10(ctx context.Context, cfg exp.Config, e env) error {
	return e.render(exp.RunFig10(ctx, e.h, cfg, e.sweepSet()))
}

// runTable2 measures per-round overhead against the netem calibration's
// compute baselines.
func runTable2(ctx context.Context, cfg exp.Config, e env) error {
	base := map[string]float64{}
	for _, w := range exp.Workloads() {
		base[w.Name] = 1.2e-7 * float64(w.WireParams) * float64(cfg.LocalIters)
	}
	return e.render(exp.RunTable2(ctx, cfg, exp.Workloads(), base))
}

// runPopScale is a Table-I-style run at population scale: a cohort sampled
// per round from the registered devices, folded flat and through
// hierarchical trees; identical training trajectory, different root ingest.
func runPopScale(ctx context.Context, cfg exp.Config, e env) error {
	if cfg.Population == 0 {
		cfg.Population = 100_000
	}
	return e.render(exp.RunPopScale(ctx, e.h, cfg, exp.CNNWorkload(), "fedavg", e.fanouts))
}

// runCompose is the composable-compression grid: FedSU alone and under
// chained sparsify→quantize→entropy wire paths, plus a QSGD×entropy
// reference. Byte columns are measured wire bytes, not analytic. Its
// default horizon (the experiments table's) is long enough for every cell
// to reach the converged plateau, so the accuracy column isolates the
// chains' asymptotic cost, not a mid-training snapshot.
func runCompose(ctx context.Context, cfg exp.Config, e env) error {
	return e.render(exp.RunComposition(ctx, e.h, cfg, exp.CNNWorkload(), exp.ComposeCells()))
}

// preset returns the configuration a -scale name selects.
func preset(name string) (exp.Config, error) {
	switch name {
	case "fast":
		return exp.FastConfig(), nil
	case "standard":
		return exp.StandardConfig(), nil
	}
	return exp.Config{}, fmt.Errorf("unknown -scale %q (want fast, standard)", name)
}

// parseFanouts parses the -fanout list ("8,32") into tree fanouts.
func parseFanouts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var f int
		if _, err := fmt.Sscanf(part, "%d", &f); err != nil || f < 2 {
			return nil, fmt.Errorf("bad fanout %q (want integers >= 2)", part)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -fanout list")
	}
	return out, nil
}

// peakRSS reads the process peak resident set (Linux VmHWM) in bytes.
// The second return is false where /proc is unavailable.
func peakRSS() (float64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	_, rest, ok := strings.Cut(string(b), "\nVmHWM:")
	var kb float64
	if _, err := fmt.Sscanf(rest, "%f kB", &kb); !ok || err != nil {
		return 0, false
	}
	return kb * 1024, true
}

// resetPeakRSS best-effort rearms the peak-RSS watermark (writing "5" to
// /proc/self/clear_refs resets VmHWM) so per-phase peaks are attributable.
// A failure just leaves the watermark monotone — reporting stays valid as
// an upper bound.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
