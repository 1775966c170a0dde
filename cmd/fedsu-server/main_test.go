package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"fedsu/internal/doccmd"
	"fedsu/internal/exp"
)

// noListen makes a run that got past every refusal fail at Listen, on an
// invalid port, instead of serving until a signal.
var noListen = []string{"-addr", "127.0.0.1:-1"}

// TestModeFlagsRefused: a flag the chosen mode does not use is refused,
// naming the flag and the missing or conflicting mode, instead of being
// dropped — one row per flag.
func TestModeFlagsRefused(t *testing.T) {
	for _, c := range []struct{ flag, value, mode string }{
		{"-k", "2", "-async"},
		{"-staleness", "3", "-async"},
		{"-staleness-weight", "0.7", "-async"},
		{"-async", "true", "-upstream"},
		{"-k", "2", "-upstream"},
		{"-staleness", "3", "-upstream"},
		{"-staleness-weight", "0.7", "-upstream"},
		{"-fanout", "4", "-upstream"},
		{"-compress", "topk,q4,rans", "-upstream"},
		{"-workload", "resnet18", "-upstream"},
		{"-scale", "8", "-upstream"},
		{"-seed", "2", "-upstream"},
	} {
		t.Run(c.flag+"/"+c.mode, func(t *testing.T) {
			args := append([]string{c.flag + "=" + c.value}, noListen...)
			if c.mode == "-upstream" {
				args = append(args, "-upstream", "127.0.0.1:-1")
			}
			err := run(args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), c.flag+" ") || !strings.Contains(err.Error(), c.mode) {
				t.Errorf("got %v, want an error naming %s and %s", err, c.flag, c.mode)
			}
		})
	}
}

// TestDocCommandsParse: every fedsu-server command line the docs quote parses
// with the command's flag set.
func TestDocCommandsParse(t *testing.T) {
	doccmd.Check(t, "fedsu-server", func() *flag.FlagSet {
		var cfg exp.Config
		var o options
		return newFlags(&cfg, &o)
	})
}
