package exp

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// fingerprint reduces a run to a bit-exact digest string: every RoundStats
// field plus the final global parameter vector, floats rendered via their
// IEEE-754 bit patterns so even sign-of-zero or NaN-payload differences
// would show.
func fingerprint(r *Run) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s/%s\n", r.Workload, r.Scheme)
	for _, st := range r.Stats {
		fmt.Fprintf(&sb, "r%d d%x t%x a%x l%x tl%x up%d down%d sr%x pf%x p%d\n",
			st.Round,
			math.Float64bits(st.Duration), math.Float64bits(st.SimTime),
			math.Float64bits(st.Accuracy), math.Float64bits(st.Loss),
			math.Float64bits(st.TrainLoss),
			st.Traffic.UpBytes, st.Traffic.DownBytes,
			math.Float64bits(st.SparsificationRatio),
			math.Float64bits(st.PredictableFraction),
			st.Participants)
	}
	for _, v := range r.Engine.GlobalVector() {
		fmt.Fprintf(&sb, "%x ", math.Float64bits(v))
	}
	return sb.String()
}

// bitIdentGrid returns the Table-I grid the determinism proof runs: every
// scheme on two workloads that share no corpus (cnn/EMNIST and
// resnet18/FMNIST), at a scale small enough for tier-1. Set
// FEDSU_BITIDENT_FULL=1 to run the full FastConfig three-workload grid
// instead (minutes, not seconds).
func bitIdentGrid(t *testing.T) (Config, []Workload) {
	if os.Getenv("FEDSU_BITIDENT_FULL") != "" {
		return FastConfig(), Workloads()
	}
	cfg := microConfig()
	cfg.Rounds = 6
	return cfg, []Workload{CNNWorkload(), ResNetWorkload()}
}

// TestGridBitIdentity is the scheduler's core acceptance check: the Table-I
// grid produces byte-for-byte identical statistics and final models whether
// run sequentially, with 4 slots, with GOMAXPROCS slots, or with the run
// start order shuffled.
func TestGridBitIdentity(t *testing.T) {
	cfg, workloads := bitIdentGrid(t)
	grid := schemeGrid(cfg, workloads, Schemes())

	want, err := Harness{Parallel: 1}.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := make([]string, len(want))
	for i, r := range want {
		wantFP[i] = fingerprint(r)
	}

	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		workers := workers
		t.Run(fmt.Sprintf("parallel-%d", workers), func(t *testing.T) {
			got, err := Harness{Parallel: workers}.Run(context.Background(), grid)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if fp := fingerprint(got[i]); fp != wantFP[i] {
					t.Fatalf("run %d (%s/%s) diverged from sequential\nseq:  %.120s\npar:  %.120s",
						i, grid[i].Cfg.Workload, grid[i].Cfg.Scheme, wantFP[i], fp)
				}
			}
		})
	}

	t.Run("shuffled-order", func(t *testing.T) {
		h := Harness{Parallel: 3, order: rand.New(rand.NewSource(99)).Perm(len(grid))}
		got, err := h.Run(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if fp := fingerprint(got[i]); fp != wantFP[i] {
				t.Fatalf("run %d diverged under shuffled start order", i)
			}
		}
	})
}

// TestEndToEndParallelMatchesSequential checks the full driver (grid build,
// scheduler, report) end to end at both settings, including that the
// shared cache synthesized each distinct corpus once.
func TestEndToEndParallelMatchesSequential(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 4
	ws := []Workload{CNNWorkload(), ResNetWorkload()}

	seq, err := RunEndToEnd(context.Background(), Harness{}, cfg, ws, Schemes())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Artifacts = NewArtifacts()
	par, err := RunEndToEnd(context.Background(), Harness{Parallel: 4}, cfg, ws, Schemes())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		for _, s := range Schemes() {
			if fingerprint(seq.Lookup(w.Name, s)) != fingerprint(par.Lookup(w.Name, s)) {
				t.Fatalf("%s/%s diverged between sequential and parallel", w.Name, s)
			}
		}
	}
	// The rendered deliverables match byte for byte: the Table I report and
	// the Fig. 5 CSVs are what the harness actually ships.
	if seqRep, parRep := render(t, seq.Report()), render(t, par.Report()); seqRep != parRep {
		t.Fatalf("Table I / Fig 5 report differs between sequential and parallel:\nseq:\n%s\npar:\n%s", seqRep, parRep)
	}
	// 2 distinct corpora for 8 runs: each synthesized exactly once.
	if got := cfg.Artifacts.DatasetBuilds(); got != int64(len(ws)) {
		t.Errorf("DatasetBuilds = %d, want %d", got, len(ws))
	}
	if got := cfg.Artifacts.PartitionBuilds(); got != int64(len(ws)) {
		t.Errorf("PartitionBuilds = %d, want %d", got, len(ws))
	}
}

// TestTimeToAccuracyEmptyStats is the regression test for the zero-round
// crash: a run whose Stats slice is empty must report zero totals, not
// panic on Stats[len-1].
func TestTimeToAccuracyEmptyStats(t *testing.T) {
	r := &Run{Workload: "cnn", Scheme: "fedsu"}
	secs, rounds, reached := r.TimeToAccuracy(0.5)
	if secs != 0 || rounds != 0 || reached {
		t.Fatalf("TimeToAccuracy on empty Stats = (%v, %d, %v), want (0, 0, false)", secs, rounds, reached)
	}
}

// TestSchedulerErrorPropagation: an invalid scheme in one cell fails the
// whole grid with that cell's error, not a bare context.Canceled from the
// siblings it cancelled.
func TestSchedulerErrorPropagation(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 2
	grid := []GridRun{
		{Cfg: cfg.named(CNNWorkload(), "fedavg")},
		{Cfg: cfg.named(CNNWorkload(), "no-such-scheme")},
		{Cfg: cfg.named(CNNWorkload(), "fedsu")},
	}
	_, err := Harness{Parallel: 4}.Run(context.Background(), grid)
	if err == nil {
		t.Fatal("bad scheme must fail the grid")
	}
	if !strings.Contains(err.Error(), "no-such-scheme") {
		t.Fatalf("error %q does not name the failing scheme", err)
	}
}

// TestSchedulerCancelledContext: a pre-cancelled context aborts without
// running anything.
func TestSchedulerCancelledContext(t *testing.T) {
	cfg := microConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Harness{}.Run(ctx, schemeGrid(cfg, []Workload{CNNWorkload()}, Schemes()))
	if err == nil {
		t.Fatal("cancelled context must error")
	}
}

// TestSchedulerVerbosePrefixing: with several runs in flight, every verbose
// line is whole and carries its run's tag, and the injected clock produces
// per-run wall-time lines.
func TestSchedulerVerbosePrefixing(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	cfg := microConfig()
	cfg.Rounds = 2
	var tick int64
	var clockMu sync.Mutex
	h := Harness{Parallel: 4, Verbose: lockedWriter{mu: &mu, w: &buf}}
	h.Clock = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		tick += 250
		return time.Unix(0, tick*int64(time.Millisecond))
	}
	grid := schemeGrid(cfg, []Workload{CNNWorkload()}, Schemes())
	if _, err := h.Run(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) == 0 || out == "" {
		t.Fatal("no verbose output")
	}
	tags := map[string]int{}
	for _, ln := range lines {
		matched := false
		for _, g := range grid {
			tag := "[" + g.Cfg.Workload + "/" + g.Cfg.Scheme + "] "
			if strings.HasPrefix(ln, tag) {
				tags[tag]++
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("line %q carries no run tag (torn write?)", ln)
		}
	}
	if len(tags) != len(grid) {
		t.Fatalf("saw tags for %d runs, want %d", len(tags), len(grid))
	}
	// Concurrent cells interleave clock ticks, so the wall value is some
	// positive multiple of the tick — assert the line's presence and form.
	if !strings.Contains(out, "done: wall ") {
		t.Fatalf("missing per-run wall-clock line:\n%s", out)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(b)
}
