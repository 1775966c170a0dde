package exp

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fedsu/internal/fl"
)

// BindFlags defines the named run flags on fs, each writing straight into
// its field of cfg with the field's current value as its default. A flag
// that several commands share, with one name and one meaning, is defined
// here once.
func BindFlags(fs *flag.FlagSet, cfg *Config, names ...string) {
	for _, name := range names {
		switch name {
		case "workload":
			fs.StringVar(&cfg.Workload, name, cfg.Workload, "model/dataset pair: "+strings.Join(WorkloadNames(), ", "))
		case "scheme":
			fs.StringVar(&cfg.Scheme, name, cfg.Scheme, "sync strategy: "+strings.Join(fl.StrategyNames(), ", "))
		case "clients":
			fs.IntVar(&cfg.Clients, name, cfg.Clients, "client count; with -population, the cohort sampled per round")
		case "rounds":
			fs.IntVar(&cfg.Rounds, name, cfg.Rounds, "training rounds")
		case "iters":
			fs.IntVar(&cfg.LocalIters, name, cfg.LocalIters, "local SGD iterations per round (paper: 50)")
		case "batch":
			fs.IntVar(&cfg.BatchSize, name, cfg.BatchSize, "mini-batch size (paper: 32)")
		case "samples":
			fs.IntVar(&cfg.Samples, name, cfg.Samples, "synthetic dataset size (a TCP fleet shares one)")
		case "scale":
			fs.IntVar(&cfg.ModelScale, name, cfg.ModelScale, "model width divisor (0 = per-workload default, 1 = paper scale; equal on every party of a TCP session)")
		case "seed":
			fs.Int64Var(&cfg.Seed, name, cfg.Seed, "random seed (equal on every party of a TCP session)")
		case "compress":
			fs.StringVar(&cfg.Compress, name, cfg.Compress, "wire compression chain spec, e.g. topk,q4,rans (stages: topk, q2..q8, lowrank[N], rans; empty = default codec; equal on every party of a TCP session)")
		case "population":
			fs.IntVar(&cfg.Population, name, cfg.Population, "registered device count; > 0 samples a -clients cohort per round instead of a fixed fleet")
		case "fanout":
			fs.IntVar(&cfg.Fanout, name, cfg.Fanout, "hierarchical aggregation-tree fanout (0 = flat fold; >= 2 = tree, bit-identical global)")
		default:
			panic("exp: no run flag -" + name)
		}
	}
}

// Main is a command's main: it runs run on the command line and stdout,
// and exits 1 with the error, prefixed by the command's name, when run
// fails; -h and -help exit 0.
func Main(name string, run func(args []string, stdout io.Writer) error) {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}
