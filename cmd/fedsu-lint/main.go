// fedsu-lint is the project's static-analysis gate: a multichecker that
// runs every fedsu analyzer over the requested package patterns and exits
// non-zero when any contract is violated.
//
// Usage:
//
//	fedsu-lint [flags] [package patterns]
//
//	fedsu-lint ./...                 # the make lint invocation
//	fedsu-lint -run pairing ./internal/nn/...
//	fedsu-lint -list                 # show the analyzers and their contracts
//
// Findings print as file:line:col: analyzer: message, one per line.
// Suppress an individual finding with `//lint:allow <analyzer> -- <reason>`
// on (or directly above) the offending line; the ` -- reason` part is
// mandatory, and a directive without it is itself reported as malformed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fedsu/internal/analysis"
	"fedsu/internal/analysis/ctxdispatch"
	"fedsu/internal/analysis/determinism"
	"fedsu/internal/analysis/driver"
	"fedsu/internal/analysis/errwrap"
	"fedsu/internal/analysis/goleak"
	"fedsu/internal/analysis/lockhold"
	"fedsu/internal/analysis/pairing"
	"fedsu/internal/analysis/sharedmut"
)

// analyzers is the full fedsu-lint suite: the syntactic/type-based checks,
// then the pairing and concurrency-discipline checks (pairing, lockhold,
// goleak, sharedmut).
var analyzers = []*analysis.Analyzer{
	pairing.Analyzer,
	ctxdispatch.Analyzer,
	determinism.Analyzer,
	errwrap.Analyzer,
	lockhold.Analyzer,
	goleak.Analyzer,
	sharedmut.Analyzer,
}

func main() {
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fedsu-lint [flags] [package patterns]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Printf("%-12s %s\n", a.Name, doc)
		}
		return
	}

	selected := analyzers
	if *run != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*run, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "fedsu-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedsu-lint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := driver.Load(cwd, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedsu-lint: %v\n", err)
		os.Exit(2)
	}

	findings := 0
	for _, pkg := range pkgs {
		for _, a := range selected {
			diags, err := analysis.RunAnalyzer(a, pkg.Fset, pkg.Files, pkg.Types, pkg.TypesInfo)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fedsu-lint: %v\n", err)
				os.Exit(2)
			}
			for _, d := range diags {
				fmt.Printf("%s: %s: %s\n", pkg.Fset.Position(d.Pos), a.Name, d.Message)
				findings++
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "fedsu-lint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}
