// Command bench is the repository's real-round benchmark: four closed-loop
// workloads run from one process, end-to-end metrics measured with tracing
// off, per-layer metrics from a separate traced run plus replay probes, and
// output checks on every run. See README.md in this directory.
//
//	bash bench/run.sh --workload tcp_dense --seed 7 --seconds 20 --trace 0
//	bash bench/run.sh -repeat 5 -out a.json      # all workloads, both modes
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"fedsu/internal/par"
)

// instance is one workload, constructed and warmed up. Rounds are numbered
// from 0 after the warm-up.
type instance interface {
	// round runs closed-loop round r and returns its wall time.
	round(ctx context.Context, r int) (time.Duration, error)
	// after does the untimed work that follows round r: evaluation, counts
	// over the count window, output checks.
	after(r int) error
	// window is the fixed number of timed rounds the exact counts are taken
	// over, so they do not depend on how many rounds fit into the run.
	window() int
	// done reports whether the run may stop (sim_cnn: target reached).
	done() bool
	// finish runs the end-of-run output checks, returning one line per
	// failure, and adds the workload's metrics to m. Traced instances add
	// their span metrics and run their replay probes here.
	finish(ctx context.Context, m map[string]float64) []string
	// ops counts the sync/aggregate calls attempted and those that failed
	// (errors, evictions, timeouts, retries, reconnects).
	ops() (attempted, failed int)
	// fingerprint is the FNV-64a of the global vector at the end of the
	// count window.
	fingerprint() uint64
	// close stops what setup started; window, ops and fingerprint stay valid.
	close()
}

// workload is one named set of inputs. setup builds an instance at the given
// scale from the seed alone; rec is nil for an untraced instance.
type workload struct {
	name, why string
	setup     func(ctx context.Context, seed int64, sc scale, rec func(clients int) *recorder) (instance, error)
}

var workloads = []workload{
	{"sim_cnn", "in-process fl.Engine training the CNN under FedSU: the researcher path, where tensor/nn/opt/data do the work and flrpc and codec are bypassed", setupSim},
	{"tcp_dense", "flrpc coordinator and 4 clients over loopback, dense FedAvg, 600k parameters, no training: transport-bound, one 2.4 MB message per client per leg", setupTCPDense},
	{"tcp_fedsu_chain", "same fleet at 150k parameters under core.Manager with the topk,q4,rans chain: two small compressed collectives per round, so core and codec dominate and the socket idles", setupTCPChain},
	{"cohort_tree", "fl.Tree fanout 8 folding a 256-member cohort sampled from 100k devices, no training, codec or socket: the barrier, roster and fold state machine alone", setupTree},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median, which a single slow dial or page fault cannot move.
const setupReps = 5

// result is one run of one workload in one mode.
type result struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       int                `json:"trace"`
	Seconds     float64            `json:"seconds"`
	Rounds      int                `json:"rounds"`       // timed rounds run
	Window      int                `json:"count_window"` // timed rounds the exact counts cover
	Fingerprint string             `json:"fingerprint"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Checks      []string           `json:"failed_checks,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
}

// overrun is how long past its time budget a timed phase may run to finish
// its count window or reach its target before the run is given up.
const overrun = 90.0

// phase is the timed part of a run.
type phase struct {
	wallsMS []float64
	allocMB float64 // per round
	liveMB  float64
}

// measure drives the instances round after round until the time budget is
// spent, the count window is complete and every instance agrees to stop. With
// more than one instance (a traced run beside an untraced one) they take each
// round in turn, swapping who goes first, so drift of the host and warm-up of
// the process fall on both alike. The memory numbers describe one instance
// measured alone.
func measure(ctx context.Context, seconds float64, insts ...instance) ([]*phase, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ps := make([]*phase, len(insts))
	for i := range ps {
		ps[i] = &phase{}
	}
	running := func(r int) bool {
		for _, inst := range insts {
			if r < inst.window() || !inst.done() {
				return true
			}
		}
		return false
	}
	start := time.Now()
	for r := 0; time.Since(start).Seconds() < seconds || running(r); r++ {
		if time.Since(start).Seconds() > seconds+overrun {
			return nil, fmt.Errorf("count window or target not reached %g s after the time budget, at round %d", overrun, r)
		}
		for k := range insts {
			i := (k + r) % len(insts)
			d, err := insts[i].round(ctx, r)
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", r, err)
			}
			ps[i].wallsMS = append(ps[i].wallsMS, float64(d)/1e6)
			if err := insts[i].after(r); err != nil {
				return nil, fmt.Errorf("after round %d: %w", r, err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	ps[0].allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(len(ps[0].wallsMS))
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	ps[0].liveMB = float64(after.HeapAlloc) / 1e6
	return ps, nil
}

// timedSetup sets the workload up once, from nothing through the last
// warm-up round, and returns how long that took.
func timedSetup(ctx context.Context, w workload, seed int64, sc scale) (instance, float64, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := w.setup(ctx, seed, sc, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return inst, time.Since(t0).Seconds(), nil
}

// runEndToEnd is the --trace 0 run: every end-to-end metric. The workload is
// set up setupReps times, some before the timed phase (which runs on the last
// of those) and the rest after it, so that one slow patch of the host cannot
// cover them all.
func runEndToEnd(ctx context.Context, w workload, seed int64, seconds float64, sc scale) (*result, error) {
	var inst instance
	var setups []float64
	for len(setups) < (setupReps+1)/2 {
		if inst != nil {
			inst.close()
		}
		next, s, err := timedSetup(ctx, w, seed, sc)
		if err != nil {
			return nil, err
		}
		inst, setups = next, append(setups, s)
	}
	ps, err := measure(ctx, seconds, inst)
	if err != nil {
		inst.close()
		return nil, err
	}
	p := ps[0]
	all := map[string]float64{}
	checks := inst.finish(ctx, all)
	t := summarize(p.wallsMS)
	all["rounds_per_s"] = blockRate(p.wallsMS)
	all["round_ms_p50"] = t.P50
	all["alloc_mb_per_round"] = p.allocMB
	all["live_heap_mb"] = p.liveMB
	fmt.Printf("%s seed=%d trace=0: round_ms %s\n", w.name, seed, t)
	inst.close()
	for len(setups) < setupReps {
		extra, s, err := timedSetup(ctx, w, seed, sc)
		if err != nil {
			return nil, err
		}
		extra.close()
		setups = append(setups, s)
	}
	all["setup_s"] = median(setups)
	return newResult(w, seed, 0, seconds, inst, len(p.wallsMS), checks, all, endToEnd), nil
}

// runTraced is the --trace 1 run: an untraced and a traced instance take
// two thirds of the time in turns (their difference is the tracing
// overhead), then the traced one runs its replay probes; every per-layer
// metric.
func runTraced(ctx context.Context, w workload, seed int64, seconds float64, sc scale) (*result, error) {
	plain, err := w.setup(ctx, seed, sc, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer plain.close()
	traced, err := w.setup(ctx, seed, sc, newRecorder)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer traced.close()
	ps, err := measure(ctx, seconds*2/3, plain, traced)
	if err != nil {
		return nil, err
	}
	all := map[string]float64{}
	checks := traced.finish(ctx, all)
	if a, b := traced.fingerprint(), plain.fingerprint(); a != b {
		checks = append(checks, fmt.Sprintf("traced run ends on fingerprint %016x, untraced on %016x", a, b))
	}
	// Each traced round is set against the untraced round of the same index,
	// which ran right beside it: drift of the host and the round's own cost
	// cancel in the pair, which they do not in a ratio of two medians.
	pairs := make([]float64, len(ps[0].wallsMS))
	for i, plainMS := range ps[0].wallsMS {
		pairs[i] = ps[1].wallsMS[i] / plainMS
	}
	all["trace.overhead_ratio"] = median(pairs) - 1
	all["fl.round_ms_p90"] = p90(ps[0].wallsMS)
	all["fl.round_samples"] = float64(len(ps[0].wallsMS))
	fmt.Printf("%s seed=%d trace=1: %d rounds each, untraced and traced in turns\n", w.name, seed, len(ps[0].wallsMS))
	return newResult(w, seed, 1, seconds, traced, len(ps[1].wallsMS), checks, all, perLayer), nil
}

// newResult records what the instance ended on (it may be closed by now),
// keeps the metrics defs names (one the workload did not produce reads 0),
// prints them, and settles whether the run was correct.
func newResult(w workload, seed int64, trace int, seconds float64, inst instance, rounds int, checks []string, all map[string]float64, defs []metricDef) *result {
	r := &result{Workload: w.name, Seed: seed, Trace: trace, Seconds: seconds, Rounds: rounds, Window: inst.window(),
		Fingerprint: fmt.Sprintf("%016x", inst.fingerprint()), Checks: checks, Metrics: map[string]float64{}}
	r.Attempted, r.Failed = inst.ops()
	for _, d := range defs {
		v := all[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.Checks = append(r.Checks, fmt.Sprintf("metric %s is %v", d.Name, v))
			v = 0
		}
		r.Metrics[d.Name] = v
		fmt.Printf("  %-38s %14.6g %s\n", d.Name, v, d.Unit)
	}
	r.Correct = len(r.Checks) == 0 && r.Failed == 0
	fmt.Printf("  fingerprint %s  attempted %d  failed %d\n", r.Fingerprint, r.Attempted, r.Failed)
	for _, c := range r.Checks {
		fmt.Printf("  CHECK FAILED: %s\n", c)
	}
	return r
}

// line is the one-object summary the last line of standard output carries.
func (r *result) line() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for k, v := range r.Metrics {
		out.Metrics[k] = mv{v, unitOf(k)}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only floats, strings and bools, and NaN was filtered
	}
	return string(b)
}

// environment is every recorded field of where a document was measured.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Repeat     int     `json:"repeat"`
}

// document is what -out writes and -compare reads.
type document struct {
	Env     environment `json:"env"`
	Results []*result   `json:"results"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 7, "seed of every generated input: dataset, partition, trajectories, cohorts, chain rounding")
		seconds = flag.Float64("seconds", 20, "length of one run's timed phase")
		trace   = flag.Int("trace", 2, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and probes; 2: both")
		repeat  = flag.Int("repeat", 1, "runs per workload and mode, each with the next seed")
		out     = flag.String("out", "", "write every result and the environment to this JSON file")
		doList  = flag.Bool("list", false, "print every workload and metric with unit, direction and bound, and exit")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments, and exit")
	)
	flag.Parse()
	switch {
	case *doList:
		list(os.Stdout)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	// No more load than the host's cores carry, and the same on every host
	// with at least four.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	par.SetWorkers(runtime.GOMAXPROCS(0)) // the compute pool was sized before the pin
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	run := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (see -list)", *name))
		}
		run = []workload{w}
	}
	doc := document{Env: environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit(), Seed: *seed, Seconds: *seconds, Repeat: *repeat,
	}}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s seed=%d seconds=%g\n", doc.Env.NumCPU, doc.Env.GOMAXPROCS,
		doc.Env.GoVersion, doc.Env.GOOS, doc.Env.GOARCH, doc.Env.Commit, *seed, *seconds)
	for _, w := range run {
		for i := 0; i < *repeat; i++ {
			for _, mode := range []int{0, 1} {
				if *trace != 2 && *trace != mode {
					continue
				}
				fn := runEndToEnd
				if mode == 1 {
					fn = runTraced
				}
				r, err := fn(ctx, w, *seed+int64(i), *seconds, fullScale)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.name, err))
				}
				doc.Results = append(doc.Results, r)
			}
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	ok := true
	for _, r := range doc.Results {
		ok = ok && r.Correct
		fmt.Println(r.line())
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
