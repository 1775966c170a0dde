package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// toyScale shrinks every workload until all four, in both modes, run in a few
// seconds: enough to keep the harness from rotting, not to measure anything.
var toyScale = scale{
	sim:   simParams{clients: 4, iters: 1, batch: 4, samples: 128, modelScale: 16, warmup: 1, window: 4, evalEvery: 2, target: 0},
	dense: tcpParams{n: 2000, clients: 4, warmup: 1, window: 4, replay: 3},
	chain: tcpParams{n: 2000, clients: 4, warmup: 1, window: 6, replay: 3, compress: "topk,q4,rans"},
	tree:  treeParams{population: 2000, cohort: 32, fanout: 4, n: 500, vectors: 4, warmup: 2, window: 6, checkEvery: 3},
}

func TestSmokeAllWorkloadsBothModes(t *testing.T) {
	start := time.Now()
	ctx := context.Background()
	for _, w := range workloads {
		for mode, run := range []func(context.Context, workload, int64, float64, scale) (*result, error){runEndToEnd, runTraced} {
			r, err := run(ctx, w, 3, 0.05, toyScale)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, mode, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d checks=%v", w.name, mode, r.Correct, r.Attempted, r.Failed, r.Checks)
			}
			defs := [][]metricDef{endToEnd, perLayer}[mode]
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, mode, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := r.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace %d: metric %s missing", w.name, mode, d.Name)
				}
				if mode == 0 && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, v)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(r.line()), &line); err != nil || len(line.Metrics) != len(defs) || line.Metrics[defs[0].Name].Unit != defs[0].Unit {
				t.Errorf("%s trace %d: result line %q: %v", w.name, mode, r.line(), err)
			}
		}
	}
	if d := time.Since(start); d > 5*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, want under 5 s", d)
	}
}

// TestSameSeedSameFingerprint: the inputs come from the seed alone.
func TestSameSeedSameFingerprint(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		var fps [3]string
		for i, seed := range []int64{5, 5, 6} {
			r, err := runEndToEnd(ctx, w, seed, 0.01, toyScale)
			if err != nil {
				t.Fatal(err)
			}
			fps[i] = r.Fingerprint
		}
		if fps[0] != fps[1] || fps[0] == fps[2] {
			t.Errorf("%s: fingerprints %v for seeds 5, 5, 6", w.name, fps)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json in step with the tables
// the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (g.Bound != nil) != bounded || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
