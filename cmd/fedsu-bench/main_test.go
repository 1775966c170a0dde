package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"fedsu/internal/doccmd"
	"fedsu/internal/exp"
)

// TestPresetRejectsUnknownScale: only the two preset names select a
// configuration; any other name, "Standard" included, is an error rather
// than a fast-scale run recorded under the name the user asked for.
func TestPresetRejectsUnknownScale(t *testing.T) {
	for name, want := range map[string]exp.Config{"fast": exp.FastConfig(), "standard": exp.StandardConfig()} {
		got, err := preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}
	for _, name := range []string{"Standard", "paper", ""} {
		if _, err := preset(name); err == nil || !strings.Contains(err.Error(), "fast, standard") {
			t.Errorf("%q: got %v, want an error listing fast, standard", name, err)
		}
	}
}

// TestUnknownExperimentRefusedFirst: an unknown id anywhere in -exp is
// refused before any experiment runs, and the error lists exactly the
// table's ids.
func TestUnknownExperimentRefusedFirst(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "table1,fig3"}, &out)
	var ids []string
	for _, x := range experiments {
		ids = append(ids, x.id)
	}
	want := `unknown experiment "fig3" (want ` + strings.Join(append(ids, "all"), ", ") + ")"
	if err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
	if strings.Contains(out.String(), "===") {
		t.Fatalf("an experiment started before the list was checked:\n%s", out.String())
	}
}

// TestSeqFlagRemoved: -parallel 1 is the one way to ask for a sequential
// grid.
func TestSeqFlagRemoved(t *testing.T) {
	err := run([]string{"-seq", "-exp", "fig3"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -seq") {
		t.Fatalf("got %v, want -seq refused as an unknown flag", err)
	}
}

// TestCohortFlagRemoved: -clients is the one name for the cohort size; the
// second name, -cohort, silently dropped -clients when both were set.
func TestCohortFlagRemoved(t *testing.T) {
	err := run([]string{"-cohort", "2", "-exp", "fig3"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -cohort") {
		t.Fatalf("got %v, want -cohort refused as an unknown flag", err)
	}
}

// TestDTypeFlagRemoved: compute is float64 only; -dtype float32 selected
// the float32 compute lane, which is gone.
func TestDTypeFlagRemoved(t *testing.T) {
	err := run([]string{"-dtype", "float32", "-exp", "fig3"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -dtype") {
		t.Fatalf("got %v, want -dtype refused as an unknown flag", err)
	}
}

// TestExperimentHorizon: an experiment's own horizon applies whenever
// -rounds is unset, wherever its id sits in -exp, and -rounds overrides
// every experiment's. compose once kept its 96 rounds only when it was the
// whole list, so -exp fig1,compose trained it at the preset's 48.
func TestExperimentHorizon(t *testing.T) {
	saved := experiments
	defer func() { experiments = saved }()
	var got []string
	experiments = nil
	for _, x := range saved {
		x := x
		x.run = func(_ context.Context, cfg exp.Config, _ env) error {
			got = append(got, fmt.Sprintf("%s:%d", x.id, cfg.Rounds))
			return nil
		}
		experiments = append(experiments, x)
	}
	for _, c := range []struct{ args, want string }{
		{"-exp compose", "compose:96"},
		{"-exp fig1,compose", "fig1:48 compose:96"},
		{"-exp compose,fig8 -scale standard", "compose:96 fig8:150"},
		{"-exp compose,fig1 -rounds 5", "compose:5 fig1:5"},
	} {
		got = nil
		if err := run(strings.Fields(c.args), io.Discard); err != nil {
			t.Fatalf("%s: %v", c.args, err)
		}
		if s := strings.Join(got, " "); s != c.want {
			t.Errorf("%s: trained %s, want %s", c.args, s, c.want)
		}
	}
}

// TestSelectExperiments: -exp resolves to rows of the experiments table in
// the order given, "all" expands to the paper's figure set in table order,
// and a list with any id outside the table selects nothing.
func TestSelectExperiments(t *testing.T) {
	paperSet := []string{"fig1+fig2", "table1+fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table2"}
	for _, c := range []struct {
		name, list string
		want       []string // nil: refused
	}{
		{"one", "fig8", []string{"fig8"}},
		{"order-kept", "table2,fig1", []string{"table2", "fig1"}},
		{"grid-renderings", "table1,fig5", []string{"table1", "fig5"}},
		{"all", "all", paperSet},
		{"all-plus-extension", "all,popscale", append(append([]string(nil), paperSet...), "popscale")},
		{"extensions", "popscale,compose", []string{"popscale", "compose"}},
		{"unknown", "fig3", nil},
		{"retired", "async", nil},
		{"unknown-after-known", "fig1,fig4", nil},
		{"case-sensitive", "Fig1", nil},
		{"empty-id", "fig1,", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			sel, err := selectExperiments(c.list)
			if c.want == nil {
				if err == nil || !strings.HasPrefix(err.Error(), "unknown experiment ") || sel != nil {
					t.Fatalf("%q: got %d rows, err %v; want refused", c.list, len(sel), err)
				}
				return
			}
			if err != nil {
				t.Fatalf("%q: %v", c.list, err)
			}
			var got []string
			for _, x := range sel {
				got = append(got, x.id)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%q selected %v, want %v", c.list, got, c.want)
			}
		})
	}
}

// TestDocCommandsParse: every fedsu-bench command line the docs quote parses
// with the command's flag set.
func TestDocCommandsParse(t *testing.T) {
	doccmd.Check(t, "fedsu-bench", func() *flag.FlagSet {
		var cfg exp.Config
		var o options
		return newFlags(&cfg, &o)
	})
}
