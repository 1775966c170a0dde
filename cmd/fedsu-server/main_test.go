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

// TestRetiredFlagsRefused: a flag the command no longer has is refused by
// name, not ignored by a coordinator that then serves without it. -async,
// -k, -staleness and -staleness-weight configured buffered-async rounds,
// which are gone.
func TestRetiredFlagsRefused(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-async", "true"},
		{"-k", "2"},
		{"-staleness", "3"},
		{"-staleness-weight", "0.7"},
	} {
		t.Run(strings.TrimPrefix(c.flag, "-"), func(t *testing.T) {
			err := run(append([]string{c.flag + "=" + c.value}, noListen...), io.Discard)
			if want := "flag provided but not defined: " + c.flag; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s=%s: got %v, want %q", c.flag, c.value, err, want)
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
