package exp

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fedsu/internal/fl"
	"fedsu/internal/tensor"
)

// BindFlags defines the named run flags on fs, each writing straight into
// its field of cfg with the field's current value as its default. A flag
// that several commands share, with one name and one meaning, is defined
// here once. "async" switches on the mode -k, -staleness and
// -staleness-weight configure; their defaults are the mode's own (K =
// clients/2, staleness 8, weight 0.5), and CheckFlags resolves them after
// parsing.
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
			fs.IntVar(&cfg.Rounds, name, cfg.Rounds, "training rounds (with -async: global applications)")
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
		case "dtype":
			fs.Func(name, "compute precision: float64 (the default, bit-identical legacy results) or float32 (half the memory bandwidth, lossless wire)",
				func(s string) (err error) { cfg.DType, err = tensor.ParseDType(s); return err })
		case "compress":
			fs.StringVar(&cfg.Compress, name, cfg.Compress, "wire compression chain spec, e.g. topk,q4,rans (stages: topk, q2..q8, lowrank[N], rans; empty = default codec; equal on every party of a TCP session)")
		case "population":
			fs.IntVar(&cfg.Population, name, cfg.Population, "registered device count; > 0 samples a -clients cohort per round instead of a fixed fleet")
		case "fanout":
			fs.IntVar(&cfg.Fanout, name, cfg.Fanout, "hierarchical aggregation-tree fanout (0 = flat fold; >= 2 = tree, bit-identical global)")
		case "async":
			fs.Bool(name, false, "buffered-async aggregation: clients arrive independently, the global applies every -k contributions")
		case "k":
			fs.IntVar(&cfg.Async.K, name, 0, "async buffer size: apply the global every K contributions (default clients/2)")
		case "staleness":
			fs.IntVar(&cfg.Async.MaxStaleness, name, 8, "async: drop contributions more than this many versions behind (-1 = unlimited)")
		case "staleness-weight":
			fs.Float64Var(&cfg.Async.StalenessWeight, name, 0.5, "async: per-version contribution weight decay in (0, 1]")
		default:
			panic("exp: no run flag -" + name)
		}
	}
}

// CheckFlags finishes a flag set BindFlags bound with "async". A flag of
// the async mode set without -async is refused, naming both, instead of
// being dropped; with -async, K defaults to half the clients, and without
// it cfg stays synchronous.
func CheckFlags(fs *flag.FlagSet, cfg *Config) error {
	async := fs.Lookup("async").Value.String() == "true"
	var err error
	fs.Visit(func(f *flag.Flag) {
		if !async && err == nil && (f.Name == "k" || strings.HasPrefix(f.Name, "staleness")) {
			err = fmt.Errorf("-%s applies only with -async", f.Name)
		}
	})
	if !async {
		cfg.Async = fl.AsyncConfig{}
	} else if cfg.Async.K <= 0 {
		cfg.Async.K = asyncK(cfg.Clients)
	}
	return err
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
