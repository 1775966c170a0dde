// Command fedsu-bench regenerates the paper's tables and figures on the
// emulated cluster. Each experiment prints the paper-style rows/series and
// optionally writes CSVs for plotting.
//
// Usage:
//
//	fedsu-bench -exp all                 # everything, fast scale
//	fedsu-bench -exp table1 -scale standard -out results/
//	fedsu-bench -exp fig9 -rounds 120
//
// The experiment ids are the rows of the experiments table below; "all" is
// the paper's own figure set, which leaves out async, popscale and compose.
// Every id is checked before the first experiment runs.
//
// Grid experiments (table1/fig5, fig7, fig8, fig9/fig10, async, popscale,
// compose) fan their independent runs across -parallel slots sharing one
// dataset/partition cache; results are bit-identical to -parallel 1 at any
// slot count (the contract of internal/exp's Harness).
package main

import (
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
	{"fig1", true, runFig1, 0},
	{"fig2", true, runFig2, 0},
	{"table1", false, runEndToEnd, 0},
	{"fig5", false, runEndToEnd, 0},
	{"table1+fig5", true, runEndToEnd, 0},
	{"fig6", true, runFig6, 0},
	{"fig7", true, runFig7, 0},
	{"fig8", true, runFig8, 0},
	{"fig9", true, runSweep(exp.RunFig9), 0},
	{"fig10", true, runSweep(exp.RunFig10), 0},
	{"table2", true, runTable2, 0},
	{"async", false, runAsync, 0},
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
	exp.BindFlags(fs, set, "seed", "dtype", "population", "compress")
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
	cfg.Seed, cfg.DType, cfg.Population, cfg.Compress = set.Seed, set.DType, set.Population, set.Compress
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

func runFig1(ctx context.Context, cfg exp.Config, e env) error {
	res, err := exp.RunFig1(ctx, cfg, 2)
	if err != nil {
		return err
	}
	for name, series := range res.Trajectories {
		fmt.Fprintf(e.stdout, "Fig 1 (%s): parameter trajectories\n", name)
		if err := trace.AsciiPlot(e.stdout, 72, 14, series...); err != nil {
			return err
		}
		if err := writeCSV(e.outDir, "fig1_"+name+".csv", series...); err != nil {
			return err
		}
	}
	return nil
}

func runFig2(ctx context.Context, cfg exp.Config, e env) error {
	res, err := exp.RunFig2(ctx, cfg)
	if err != nil {
		return err
	}
	res.Report(e.stdout)
	if res.Instantaneous != nil {
		if err := trace.AsciiPlot(e.stdout, 72, 10, res.Instantaneous); err != nil {
			return err
		}
		if err := writeCSV(e.outDir, "fig2_instantaneous.csv", res.Instantaneous); err != nil {
			return err
		}
	}
	for name, cdf := range res.CDFs {
		if err := writeCSV(e.outDir, "fig2_cdf_"+name+".csv", cdf); err != nil {
			return err
		}
	}
	return nil
}

// runEndToEnd is Table I and Fig. 5: one grid, two renderings.
func runEndToEnd(ctx context.Context, cfg exp.Config, e env) error {
	ws := exp.Workloads()
	res, err := exp.RunEndToEnd(ctx, e.h, cfg, ws, exp.Schemes())
	if err != nil {
		return err
	}
	if err := res.Report(e.stdout, ws); err != nil {
		return err
	}
	for _, w := range ws {
		acc, ratio := res.Fig5Series(w.Name)
		fmt.Fprintf(e.stdout, "\nFig 5 (%s): time-to-accuracy\n", w.Name)
		if err := trace.AsciiPlot(e.stdout, 72, 14, acc...); err != nil {
			return err
		}
		if err := writeCSV(e.outDir, "fig5_acc_"+w.Name+".csv", acc...); err != nil {
			return err
		}
		if err := writeCSV(e.outDir, "fig5_ratio_"+w.Name+".csv", ratio...); err != nil {
			return err
		}
	}
	return nil
}

func runFig6(ctx context.Context, cfg exp.Config, e env) error {
	res, err := exp.RunFig6(ctx, cfg, exp.CNNWorkload())
	if err != nil {
		return err
	}
	fmt.Fprintf(e.stdout, "Fig 6 (%s, param %d): FedSU vs FedAvg trajectory\n", res.Workload, res.ParamIndex)
	fmt.Fprintf(e.stdout, "  speculative periods start=%v end=%v\n", res.SpecStart, res.SpecEnd)
	fmt.Fprintf(e.stdout, "  normalized approximation error: %.4f\n", res.ApproximationError())
	if err := trace.AsciiPlot(e.stdout, 72, 14, res.FedSU, res.FedAvg); err != nil {
		return err
	}
	return writeCSV(e.outDir, "fig6_"+res.Workload+".csv", res.FedSU, res.FedAvg)
}

func runFig7(ctx context.Context, cfg exp.Config, e env) error {
	ws := exp.Workloads()
	if e.light {
		ws = e.sweepSet()
	}
	res, err := exp.RunFig7(ctx, e.h, cfg, ws)
	if err != nil {
		return err
	}
	res.Report(e.stdout)
	for name, cdf := range res.CDFs {
		if err := writeCSV(e.outDir, "fig7_cdf_"+name+".csv", cdf); err != nil {
			return err
		}
	}
	return nil
}

func runFig8(ctx context.Context, cfg exp.Config, e env) error {
	ws := e.sweepSet()
	res, err := exp.RunFig8(ctx, e.h, cfg, ws)
	if err != nil {
		return err
	}
	res.Report(e.stdout)
	for _, w := range ws {
		var acc []*trace.Series
		for _, v := range exp.Variants() {
			acc = append(acc, res.Accuracy[w.Name][v])
		}
		if err := writeCSV(e.outDir, "fig8_acc_"+w.Name+".csv", acc...); err != nil {
			return err
		}
	}
	return nil
}

// runSweep is the runner of one sensitivity sweep (Fig. 9 or 10) over the
// sweep set.
func runSweep(sweep func(context.Context, exp.Harness, exp.Config, []exp.Workload) (*exp.SweepResult, error)) func(context.Context, exp.Config, env) error {
	return func(ctx context.Context, cfg exp.Config, e env) error {
		res, err := sweep(ctx, e.h, cfg, e.sweepSet())
		if err != nil {
			return err
		}
		res.Report(e.stdout)
		return nil
	}
}

// runTable2 measures per-round overhead against the netem calibration's
// compute baselines.
func runTable2(ctx context.Context, cfg exp.Config, e env) error {
	base := map[string]float64{}
	for _, w := range exp.Workloads() {
		base[w.Name] = 1.2e-7 * float64(w.WireParams) * float64(cfg.LocalIters)
	}
	res, err := exp.RunTable2(ctx, cfg, exp.Workloads(), base)
	if err != nil {
		return err
	}
	res.Report(e.stdout)
	return nil
}

func runAsync(ctx context.Context, cfg exp.Config, e env) error {
	w := exp.CNNWorkload()
	res, err := exp.RunAsyncCompare(ctx, e.h, cfg, w)
	if err != nil {
		return err
	}
	res.Report(e.stdout)
	var acc []*trace.Series
	for _, mode := range exp.AsyncModes() {
		acc = append(acc, res.Accuracy[w.Name][mode])
	}
	fmt.Fprintf(e.stdout, "\nAsync (%s): sync vs async time-to-accuracy\n", w.Name)
	if err := trace.AsciiPlot(e.stdout, 72, 14, acc...); err != nil {
		return err
	}
	if err := writeCSV(e.outDir, "async_acc_"+w.Name+".csv", acc...); err != nil {
		return err
	}
	if e.outDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(e.outDir, "async_acc_"+w.Name+".svg"))
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteSVG(f, trace.SVGOptions{
		Title:  "Sync vs buffered-async time-to-accuracy (" + w.Name + ")",
		XLabel: "emulated seconds", YLabel: "accuracy",
	}, acc...)
}

// runPopScale is a Table-I-style run at population scale: a cohort sampled
// per round from the registered devices, folded flat and through
// hierarchical trees; identical training trajectory, different root ingest.
func runPopScale(ctx context.Context, cfg exp.Config, e env) error {
	if cfg.Population == 0 {
		cfg.Population = 100_000
	}
	res, err := exp.RunPopScale(ctx, e.h, cfg, exp.CNNWorkload(), "fedavg", e.fanouts)
	if err != nil {
		return err
	}
	return res.Table().Render(e.stdout)
}

// runCompose is the composable-compression grid: FedSU alone and under
// chained sparsify→quantize→entropy wire paths, plus a QSGD×entropy
// reference. Byte columns are measured wire bytes, not analytic. Its
// default horizon (the experiments table's) is long enough for every cell
// to reach the converged plateau, so the accuracy column isolates the
// chains' asymptotic cost, not a mid-training snapshot.
func runCompose(ctx context.Context, cfg exp.Config, e env) error {
	res, err := exp.RunComposition(ctx, e.h, cfg, exp.CNNWorkload(), exp.ComposeCells())
	if err != nil {
		return err
	}
	if err := res.Table().Render(e.stdout); err != nil {
		return err
	}
	fmt.Fprintln(e.stdout)
	return res.StageTable().Render(e.stdout)
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

func writeCSV(dir, name string, series ...*trace.Series) error {
	if dir == "" || len(series) == 0 {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteCSVMulti(f, series...)
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
