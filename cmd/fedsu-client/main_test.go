package main

import (
	"flag"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"fedsu/internal/doccmd"
	"fedsu/internal/exp"
	"fedsu/internal/fl"
	"fedsu/internal/sparse"
)

// TestClientIsBuiltLikeTheEngine: the client fedsu-client builds from its
// flags for id k is client k of the engine the same config builds — the
// same learning rate, the same strategy type, and the same vector bits
// after one local round — under a compression chain and on every
// workload. The client once rebuilt the engine's recipe by hand and trained
// at the paper's real-corpus rate instead of the emulation rate (resnet18:
// 0.001, not 0.02).
func TestClientIsBuiltLikeTheEngine(t *testing.T) {
	const fleet = 3
	for _, extra := range []string{
		"-workload cnn",
		"-workload cnn -compress topk,q4,rans",
		"-workload resnet18",
		"-workload densenet121",
	} {
		t.Run(extra, func(t *testing.T) {
			var cfg exp.Config
			var o options
			args := append([]string{"-scale", "32", "-samples", "96", "-iters", "2", "-batch", "4"}, strings.Fields(extra)...)
			if err := newFlags(&cfg, &o).Parse(args); err != nil {
				t.Fatal(err)
			}
			cfg.Clients = fleet
			engine, err := exp.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w, err := exp.WorkloadByName(cfg.Workload)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < fleet; k++ {
				got, err := exp.NewClient(cfg, k, fl.NewServer(fleet))
				if err != nil {
					t.Fatal(err)
				}
				want := engine.Clients()[k]
				if got.LR() != want.LR() || got.LR() != w.EffectiveLR() {
					t.Fatalf("client %d trains at %v, the engine's at %v, the workload's emulation rate is %v", k, got.LR(), want.LR(), w.EffectiveLR())
				}
				gs, ws := reflect.TypeOf(sparse.UnwrapSyncer(got.Syncer())), reflect.TypeOf(sparse.UnwrapSyncer(want.Syncer()))
				if gs != ws {
					t.Fatalf("client %d syncs with %v, the engine's with %v", k, gs, ws)
				}
				got.TrainLocal(0, cfg.LocalIters, cfg.BatchSize)
				want.TrainLocal(0, cfg.LocalIters, cfg.BatchSize)
				gv, wv := got.Model().Vector(), want.Model().Vector()
				for i := range wv {
					if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
						t.Fatalf("client %d: parameter %d is %v after one round, the engine's client holds %v", k, i, gv[i], wv[i])
					}
				}
			}
		})
	}
}

// TestDTypeFlagRemoved: compute is float64 only; -dtype float32 selected
// the float32 compute lane, which is gone. The parse fails before any dial.
func TestDTypeFlagRemoved(t *testing.T) {
	err := run([]string{"-dtype", "float32"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -dtype") {
		t.Fatalf("got %v, want -dtype refused as an unknown flag", err)
	}
}

// TestDocCommandsParse: every fedsu-client command line the docs quote parses
// with the command's flag set.
func TestDocCommandsParse(t *testing.T) {
	doccmd.Check(t, "fedsu-client", func() *flag.FlagSet {
		var cfg exp.Config
		var o options
		return newFlags(&cfg, &o)
	})
}
