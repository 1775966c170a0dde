// Package ctxdispatch enforces the collective-dispatch contract inside the
// federated engine (internal/fl) and the TCP transport (internal/flrpc):
// aggregator and syncer calls must go through the ctx-aware dispatch
// helpers — sparse.AggModel, sparse.AggError, sparse.SyncContext, or
// sparse.Wire.Collect, which runs either collective for a strategy and
// accounts it — never directly through Aggregator.AggregateModel / Aggregator.AggregateError /
// Syncer.Sync.
//
// The dispatchers are what make cancellation work end-to-end: they route to
// the ContextAggregator/ContextSyncer fast path when the implementation has
// one, so a cancelled round actually unblocks a client parked on a barrier
// instead of stranding it (the PR 2 fault-tolerance machinery depends on
// this). A direct call compiles and passes every happy-path test — it just
// silently loses cancellation — which is exactly the class of regression a
// human reviewer misses.
//
// Implementations of the interface methods themselves (fl.Server,
// flrpc.Client) are declarations, not calls, and are not flagged. A
// deliberate direct call can be suppressed with
// `//lint:allow ctxdispatch -- <reason>`.
package ctxdispatch

import (
	"go/ast"
	"go/types"

	"fedsu/internal/analysis"
)

// Analyzer is the ctxdispatch check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxdispatch",
	Doc: "require sparse.AggModel/AggError/Wire.Collect/SyncContext dispatch in internal/fl and internal/flrpc\n\n" +
		"Direct Aggregator.AggregateModel/AggregateError and Syncer.Sync calls " +
		"bypass the ContextAggregator/ContextSyncer fast path and lose " +
		"cancellation; route through the sparse package's dispatch helpers.",
	Run: run,
}

// scope is the set of packages the contract governs.
var scope = map[string]bool{
	"fedsu/internal/fl":    true,
	"fedsu/internal/flrpc": true,
}

// dispatcher names the required helper for each forbidden direct call.
var dispatcher = map[string]string{
	"AggregateModel": "sparse.AggModel, or Wire.Collect from a strategy",
	"AggregateError": "sparse.AggError, or Wire.Collect from a strategy",
	"Sync":           "sparse.SyncContext",
}

func run(pass *analysis.Pass) error {
	if !scope[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			helper, forbidden := dispatcher[sel.Sel.Name]
			if !forbidden {
				return true
			}
			// Must be a method selected from a value (not a package-qualified
			// function, not a method expression).
			selection := pass.TypesInfo.Selections[sel]
			if selection == nil || selection.Kind() != types.MethodVal {
				return true
			}
			// The collective methods all take exactly three parameters
			// ((clientID, round, values) / (round, local, contributor));
			// this keeps unrelated methods like os.File.Sync out.
			sig, ok := selection.Obj().Type().(*types.Signature)
			if !ok || sig.Params().Len() != 3 {
				return true
			}
			pass.Reportf(call.Pos(), "direct call to %s bypasses ctx-aware dispatch; use %s",
				sel.Sel.Name, helper)
			return true
		})
	}
	return nil
}
