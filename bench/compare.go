package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is what -compare says about one (workload, metric) row.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"  // b's median is worse than a's by more than the bound
	verdictUnresolved verdict = "unresolved" // either side's run-to-run spread is wider than the bound
	verdictInfo       verdict = "info"       // per-layer metrics have no bound
)

// judge compares the runs of one end-to-end metric on one workload: a is the
// baseline, b the candidate. delta is b's median relative to a's, signed so
// that positive is worse.
func judge(d metricDef, a, b []float64) (delta float64, v verdict) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / ma
	} else if mb != 0 {
		delta = 1
	}
	if d.Better == "higher" {
		delta = -delta
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return delta, verdictUnresolved
	case delta > d.Bound:
		return delta, verdictRegressed
	}
	return delta, verdictOK
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// values collects one metric's value from every run of a workload in a mode.
func (d *document) values(workload string, trace int, metric string) []float64 {
	var out []float64
	for _, r := range d.Results {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r.Metrics[metric])
		}
	}
	return out
}

// fingerprints maps (workload, seed) to the fingerprints its runs ended on.
func (d *document) fingerprints() map[string]string {
	out := map[string]string{}
	for _, r := range d.Results {
		key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		if prev, ok := out[key]; ok && prev != r.Fingerprint {
			out[key] = prev + "|" + r.Fingerprint
		} else {
			out[key] = r.Fingerprint
		}
	}
	return out
}

// compareFiles prints one row per (workload, metric) and reports whether b
// holds up against a: no regressed and no unresolved row, every run correct,
// and the same fingerprint wherever both ran the same workload and seed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-38s %14s %14s %9s %6s %7s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "delta", "bound", "iqr a", "iqr b", "verdict")
	for _, wl := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				va, vb := a.values(wl.name, trace, d.Name), b.values(wl.name, trace, d.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				delta, v := judge(d, va, vb)
				bound := fmt.Sprintf("%.2f", d.Bound)
				if trace == 1 {
					v, bound = verdictInfo, "-"
				}
				if v == verdictRegressed || v == verdictUnresolved {
					ok = false
				}
				fmt.Fprintf(w, "%-16s %-38s %14.6g %14.6g %+8.2f%% %6s %6.2f%% %6.2f%%  %s\n", wl.name, d.Name,
					median(va), median(vb), 100*delta, bound, 100*spread(va), 100*spread(vb), v)
			}
		}
	}
	for _, doc := range []*document{a, b} {
		for _, r := range doc.Results {
			if !r.Correct {
				ok = false
				fmt.Fprintf(w, "%s seed %d trace %d: not correct (%d of %d operations failed) %v\n", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted, r.Checks)
			}
		}
	}
	fb := b.fingerprints()
	for key, fa := range a.fingerprints() {
		if other, both := fb[key]; both && other != fa {
			ok = false
			fmt.Fprintf(w, "%s: fingerprint %s in a, %s in b\n", key, fa, other)
		}
	}
	return ok, nil
}
