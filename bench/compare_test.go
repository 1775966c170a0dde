package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "round_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rounds_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same", lower, steady, steady, verdictOK},
		{"worse within the bound", lower, steady, []float64{108, 109, 107, 108, 108}, verdictOK},
		{"worse beyond the bound", lower, steady, []float64{112, 113, 111, 112, 112}, verdictRegressed},
		{"better", lower, steady, []float64{50, 51, 49, 50, 50}, verdictOK},
		{"higher is better: lower is a regression", higher, steady, []float64{85, 86, 84, 85, 85}, verdictRegressed},
		{"higher is better: higher is fine", higher, steady, []float64{150, 151, 149, 150, 150}, verdictOK},
		{"spread wider than the bound", lower, steady, []float64{80, 100, 120, 90, 110}, verdictUnresolved},
		{"baseline spread wider than the bound", lower, []float64{80, 100, 120, 90, 110}, steady, verdictUnresolved},
		{"single runs", lower, []float64{100}, []float64{120}, verdictRegressed},
	} {
		if _, got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	if delta, _ := judge(higher, []float64{100}, []float64{90}); delta < 0.0999 || delta > 0.1001 {
		t.Errorf("delta for a metric that is better higher = %v, want +0.10 (worse)", delta)
	}
}

func writeDoc(t *testing.T, dir, name string, round float64, fp string) string {
	t.Helper()
	doc := document{}
	for i, v := range []float64{round, round * 1.01, round * 0.99} {
		doc.Results = append(doc.Results, &result{Workload: "tcp_dense", Seed: int64(7 + i), Trace: 0, Correct: true, Attempted: 4, Fingerprint: fp,
			Metrics: map[string]float64{"round_ms_p50": v, "rounds_per_s": 1000 / v}})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	a := writeDoc(t, dir, "a.json", 50, "00ff")
	same := writeDoc(t, dir, "same.json", 51, "00ff")
	slow := writeDoc(t, dir, "slow.json", 70, "00ff")
	drift := writeDoc(t, dir, "drift.json", 50, "beef")

	var out strings.Builder
	if ok, err := compareFiles(&out, a, same); err != nil || !ok {
		t.Fatalf("a 2%% difference failed the comparison: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "tcp_dense") || !strings.Contains(out.String(), "round_ms_p50") || !strings.Contains(out.String(), "ok") {
		t.Errorf("no row for the metric:\n%s", out.String())
	}
	out.Reset()
	if ok, _ := compareFiles(&out, a, slow); ok || !strings.Contains(out.String(), string(verdictRegressed)) {
		t.Errorf("a 40%% slowdown passed:\n%s", out.String())
	}
	out.Reset()
	if ok, _ := compareFiles(&out, a, drift); ok || !strings.Contains(out.String(), "fingerprint") {
		t.Errorf("a changed fingerprint passed:\n%s", out.String())
	}
	if _, err := compareFiles(&out, a, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing file gave no error")
	}
}
