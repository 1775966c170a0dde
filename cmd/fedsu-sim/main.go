// Command fedsu-sim runs one emulated federated-learning training run and
// prints per-round statistics: accuracy, loss, sparsification ratio, and
// the emulated wall-clock produced by the bandwidth model.
//
// Usage:
//
//	fedsu-sim -workload cnn -scheme fedsu -clients 16 -rounds 100
//	fedsu-sim -workload resnet18 -scheme apf -csv run.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fedsu"
	"fedsu/internal/fl"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fedsu-sim:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args and reports to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fedsu-sim", flag.ExitOnError)
	var (
		workload   = fs.String("workload", "cnn", "model/dataset pair: "+strings.Join(fedsu.WorkloadNames(), ", "))
		scheme     = fs.String("scheme", "fedsu", "sync strategy: "+strings.Join(fedsu.StrategyNames(), ", "))
		clients    = fs.Int("clients", 8, "number of emulated clients")
		rounds     = fs.Int("rounds", 60, "training rounds (a resumed run finishes this horizon)")
		iters      = fs.Int("iters", 5, "local SGD iterations per round (paper: 50)")
		batch      = fs.Int("batch", 8, "mini-batch size (paper: 32)")
		samples    = fs.Int("samples", 1024, "synthetic dataset size")
		scale      = fs.Int("scale", 0, "model width divisor (0 = per-workload default, 1 = paper scale)")
		seed       = fs.Int64("seed", 1, "random seed")
		tr         = fs.Float64("tr", 0.01, "FedSU linearity threshold T_R")
		ts         = fs.Float64("ts", 1.0, "FedSU error-feedback threshold T_S")
		theta      = fs.Float64("theta", 0.9, "FedSU EMA decay factor")
		csvPath    = fs.String("csv", "", "write per-round stats CSV to this path")
		evalEvery  = fs.Int("eval-every", 2, "evaluate the global model every n rounds")
		proxMu     = fs.Float64("prox", 0, "FedProx proximal coefficient (0 disables)")
		dtype      = fs.String("dtype", "float64", "compute precision: float64 (bit-identical legacy results) or float32 (half the memory bandwidth, lossless wire)")
		ckptPath   = fs.String("checkpoint", "", "save a checkpoint here after the final round (synchronous runs)")
		resumePath = fs.String("resume", "", "resume from a checkpoint before training and run on to -rounds")
		async      = fs.Bool("async", false, "buffered-async rounds: clients run as independent arrival processes; -rounds counts global applications")
		asyncK     = fs.Int("k", 0, "async buffer size: apply the global every K contributions (default clients/2)")
		staleness  = fs.Int("staleness", 8, "async: drop contributions more than this many versions behind (-1 = unlimited)")
		staleW     = fs.Float64("staleness-weight", 0.5, "async: per-version contribution weight decay in (0, 1]")
		eventThr   = fs.Float64("event-threshold", 0, "event-triggered uploads: contribute only when the L2 norm of accumulated change crosses this (0 disables)")
		population = fs.Int("population", 0, "registered device count; > 0 samples a -cohort-sized cohort per round instead of a fixed fleet")
		cohortSize = fs.Int("cohort", 0, "per-round cohort size in population mode (default: -clients)")
		fanout     = fs.Int("fanout", 0, "hierarchical aggregation-tree fanout in population mode (0 = flat fold; >= 2 = tree, bit-identical global)")
		compress   = fs.String("compress", "", "wire compression chain spec, e.g. topk,q4,rans (stages: topk, q2..q8, lowrank[N], rans; empty = default codec)")
	)
	fs.Parse(args)
	// A mode's flags are refused outside that mode instead of being dropped.
	// Visit walks only the flags set on the command line, so no default
	// trips this.
	needs := map[string]string{"cohort": "-population", "k": "-async", "staleness": "-async", "staleness-weight": "-async"}
	modeOn := map[string]bool{"-population": *population > 0, "-async": *async}
	var modeErr error
	fs.Visit(func(f *flag.Flag) {
		if mode, ok := needs[f.Name]; ok && !modeOn[mode] && modeErr == nil {
			modeErr = fmt.Errorf("-%s applies only with %s", f.Name, mode)
		}
	})
	if modeErr != nil {
		return modeErr
	}
	if *evalEvery < 1 {
		return fmt.Errorf("-eval-every must be at least 1, got %d", *evalEvery)
	}

	opts := fedsu.DefaultOptions()
	opts.TR, opts.TS, opts.Theta = *tr, *ts, *theta

	var acfg fedsu.AsyncConfig
	if *async {
		k := *asyncK
		if k <= 0 {
			k = max(*clients/2, 1)
		}
		acfg = fedsu.AsyncConfig{K: k, MaxStaleness: *staleness, StalenessWeight: *staleW}
	}
	if *ckptPath != "" {
		if err := fl.CheckMode(fl.Config{Async: acfg}, "Checkpoint"); err != nil {
			return fmt.Errorf("-checkpoint: %w", err)
		}
	}

	nclients := *clients
	if *cohortSize > 0 {
		// In population mode the engine's client slots ARE the cohort.
		nclients = *cohortSize
	}

	sim, err := fedsu.NewSimulation(fedsu.SimulationConfig{
		Workload: *workload, Scheme: *scheme,
		Clients: nclients, Rounds: *rounds,
		LocalIters: *iters, BatchSize: *batch,
		Samples: *samples, ModelScale: *scale,
		EvalEvery: *evalEvery, Seed: *seed, FedSU: opts,
		ProxMu: *proxMu, DType: *dtype,
		Async: acfg, EventThreshold: *eventThr,
		Compress:   *compress,
		Population: *population, Fanout: *fanout,
	})
	if err != nil {
		return err
	}
	if *resumePath != "" {
		if err := sim.LoadCheckpoint(*resumePath); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "resumed from", *resumePath)
	}

	var csv *os.File
	if *csvPath != "" {
		csv, err = os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer csv.Close()
		fmt.Fprintln(csv, "round,sim_time_s,accuracy,loss,train_loss,sparsification,predictable,up_bytes,down_bytes")
	}

	fmt.Fprintf(stdout, "%-6s %-10s %-9s %-9s %-9s %-8s %-8s\n",
		"round", "time(s)", "acc", "loss", "trainloss", "sparse", "predict")
	// Sync and async runs both go through the simulation's driver, which
	// finishes the -rounds horizon (from wherever -resume left the run) and
	// evaluates on absolute rounds; async stats arrive per global
	// application.
	stats, err := sim.Run(context.Background())
	if err != nil {
		return err
	}
	for _, st := range stats {
		accStr := "-"
		lossStr := "-"
		if st.Accuracy >= 0 {
			accStr = fmt.Sprintf("%.4f", st.Accuracy)
			lossStr = fmt.Sprintf("%.4f", st.Loss)
		}
		fmt.Fprintf(stdout, "%-6d %-10.1f %-9s %-9s %-9.4f %-8.3f %-8.3f\n",
			st.Round, st.SimTime, accStr, lossStr, st.TrainLoss,
			st.SparsificationRatio, st.PredictableFraction)
		if csv != nil {
			fmt.Fprintf(csv, "%d,%.2f,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%d\n",
				st.Round, st.SimTime, st.Accuracy, st.Loss, st.TrainLoss,
				st.SparsificationRatio, st.PredictableFraction,
				st.Traffic.UpBytes, st.Traffic.DownBytes)
		}
	}
	if *ckptPath != "" {
		if err := sim.SaveCheckpoint(*ckptPath); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "checkpoint saved to", *ckptPath)
	}
	return nil
}
