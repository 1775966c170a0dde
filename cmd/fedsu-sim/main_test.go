package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"fedsu/internal/doccmd"
	"fedsu/internal/exp"
)

// TestEvalEveryRejectsNonPositive: -eval-every is the round loop's
// divisor, so a value below 1 is refused before any training starts.
func TestEvalEveryRejectsNonPositive(t *testing.T) {
	for _, v := range []string{"0", "-1"} {
		err := run([]string{"-eval-every", v, "-rounds", "1"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-eval-every") {
			t.Errorf("-eval-every %s: got %v, want an error naming the flag", v, err)
		}
	}
}

// TestRetiredFlagsRefused: a flag the command no longer has is refused by
// name, not ignored by a run that then trains without it. -cohort was a
// second name for -clients that silently dropped -clients when both were
// set; -async, -k, -staleness and -staleness-weight configured buffered-async
// rounds, which are gone; -dtype float32 selected the float32 compute lane,
// which is gone too; -prox added a FedProx proximal term and
// -event-threshold gated uploads on accumulated drift, both retired as
// extensions no recorded run used.
func TestRetiredFlagsRefused(t *testing.T) {
	tiny := []string{"-rounds", "1", "-clients", "2", "-samples", "64", "-iters", "1"}
	for _, c := range []struct{ flag, value, want string }{
		{"-cohort", "2", "flag provided but not defined: -cohort"},
		{"-async", "true", "flag provided but not defined: -async"},
		{"-k", "1", "flag provided but not defined: -k"},
		{"-staleness", "3", "flag provided but not defined: -staleness"},
		{"-staleness-weight", "0.7", "flag provided but not defined: -staleness-weight"},
		{"-dtype", "float32", "flag provided but not defined: -dtype"},
		{"-prox", "0.1", "flag provided but not defined: -prox"},
		{"-event-threshold", "0.5", "flag provided but not defined: -event-threshold"},
	} {
		t.Run(strings.TrimPrefix(c.flag, "-"), func(t *testing.T) {
			err := run(append([]string{c.flag, c.value}, tiny...), io.Discard)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s %s: got %v, want %q", c.flag, c.value, err, c.want)
			}
		})
	}
}

// TestWorkloadOutsideThePaperRefused: only the paper's three workloads
// train; any other -workload is refused with the list of those three.
func TestWorkloadOutsideThePaperRefused(t *testing.T) {
	err := run([]string{"-workload", "lstm", "-rounds", "1", "-clients", "2", "-samples", "64", "-iters", "1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "cnn, densenet121, resnet18") {
		t.Fatalf("got %v, want an error listing cnn, densenet121, resnet18", err)
	}
}

// TestRunOneRound drives the command end to end at a tiny size: one round,
// evaluated because it is the last.
func TestRunOneRound(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-rounds", "1", "-eval-every", "1", "-clients", "2", "-samples", "64", "-iters", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "0 ") || strings.Contains(lines[1], " - ") {
		t.Fatalf("want a header and one evaluated round, got:\n%s", out.String())
	}
}

// TestResumeAtEveryRound is the command-line arm of the fl suite of the same
// name: for every round r, a -rounds r run that saves a checkpoint, then a
// -resume run at the full -rounds, must print exactly the lines the
// uninterrupted run printed for rounds r onwards — the same horizon, the
// same evaluated rounds, the same bits down to the emulated clock.
func TestResumeAtEveryRound(t *testing.T) {
	const rounds = 5
	base := []string{"-clients", "3", "-samples", "96", "-iters", "2", "-scale", "32", "-eval-every", "2"}
	sim := func(extra ...string) []string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append(append([]string(nil), base...), extra...), &out); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			if l != "" && l[0] >= '0' && l[0] <= '9' {
				lines = append(lines, l) // round lines; not the header or notices
			}
		}
		return lines
	}
	straight := sim("-rounds", fmt.Sprint(rounds))
	if len(straight) != rounds {
		t.Fatalf("straight run printed %d rounds, want %d", len(straight), rounds)
	}
	for r := 1; r < rounds; r++ {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		sim("-rounds", fmt.Sprint(r), "-checkpoint", path)
		resumed := sim("-rounds", fmt.Sprint(rounds), "-resume", path)
		if strings.Join(resumed, "\n") != strings.Join(straight[r:], "\n") {
			t.Fatalf("resumed at round %d:\n%s\nwant\n%s", r, strings.Join(resumed, "\n"), strings.Join(straight[r:], "\n"))
		}
	}
}

// TestDocCommandsParse: every fedsu-sim command line the docs quote parses
// with the command's flag set.
func TestDocCommandsParse(t *testing.T) {
	doccmd.Check(t, "fedsu-sim", func() *flag.FlagSet {
		var cfg exp.Config
		var o files
		return newFlags(&cfg, &o)
	})
}
