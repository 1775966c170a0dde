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

	"fedsu"
	"fedsu/internal/exp"
)

func main() { exp.Main("fedsu-sim", run) }

// files are the paths fedsu-sim reads and writes besides its run.
type files struct{ csv, checkpoint, resume string }

// newFlags sets cfg to fedsu-sim's defaults and defines its flag set over
// it: every run flag writes straight into cfg, the file flags into f.
func newFlags(cfg *exp.Config, f *files) *flag.FlagSet {
	*cfg = exp.Config{
		Workload: "cnn", Scheme: "fedsu", Clients: 8, Rounds: 60,
		LocalIters: 5, BatchSize: 8, Samples: 1024, Seed: 1, EvalEvery: 2,
		FedSU: fedsu.DefaultOptions(),
	}
	fs := flag.NewFlagSet("fedsu-sim", flag.ContinueOnError)
	exp.BindFlags(fs, cfg, "workload", "scheme", "clients", "rounds", "iters", "batch", "samples", "scale", "seed",
		"population", "fanout", "compress")
	fs.Float64Var(&cfg.FedSU.TR, "tr", cfg.FedSU.TR, "FedSU linearity threshold T_R")
	fs.Float64Var(&cfg.FedSU.TS, "ts", cfg.FedSU.TS, "FedSU error-feedback threshold T_S")
	fs.Float64Var(&cfg.FedSU.Theta, "theta", cfg.FedSU.Theta, "FedSU EMA decay factor")
	fs.IntVar(&cfg.EvalEvery, "eval-every", cfg.EvalEvery, "evaluate the global model every n rounds")
	fs.StringVar(&f.csv, "csv", "", "write per-round stats CSV to this path")
	fs.StringVar(&f.checkpoint, "checkpoint", "", "save a checkpoint here after the final round")
	fs.StringVar(&f.resume, "resume", "", "resume from a checkpoint before training and run on to -rounds")
	return fs
}

// run is the whole command: it parses args and reports to stdout.
func run(args []string, stdout io.Writer) error {
	var cfg exp.Config
	var f files
	fs := newFlags(&cfg, &f)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.EvalEvery < 1 {
		return fmt.Errorf("-eval-every must be at least 1, got %d", cfg.EvalEvery)
	}

	sim, err := fedsu.NewSimulation(cfg)
	if err != nil {
		return err
	}
	if f.resume != "" {
		if err := sim.LoadCheckpoint(f.resume); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "resumed from", f.resume)
	}

	var csv *os.File
	if f.csv != "" {
		csv, err = os.Create(f.csv)
		if err != nil {
			return err
		}
		defer csv.Close()
		fmt.Fprintln(csv, "round,sim_time_s,accuracy,loss,train_loss,sparsification,predictable,up_bytes,down_bytes")
	}

	fmt.Fprintf(stdout, "%-6s %-10s %-9s %-9s %-9s %-8s %-8s\n",
		"round", "time(s)", "acc", "loss", "trainloss", "sparse", "predict")
	// The simulation's driver finishes the -rounds horizon (from wherever
	// -resume left the run) and evaluates on absolute rounds.
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
	if f.checkpoint != "" {
		if err := sim.SaveCheckpoint(f.checkpoint); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "checkpoint saved to", f.checkpoint)
	}
	return nil
}
