// Package sharedmut enforces the PR 7 "apply allocates fresh" contract:
// aggregation results handed out by the server are shared, immutable
// snapshots. The async accumulator's apply() publishes a freshly allocated
// global and then hands the SAME slice to every caller that asks for that
// version — fl.Server.AsyncGlobal, the AggregateModel/AggregateError
// entry points (whose op.result is likewise one slice delivered to every
// barrier participant), and the sparse dispatch helpers (AggModel,
// AggError, Wire.Collect, SyncContext) that forward them. A caller that writes through
// such a slice corrupts the model under every other client simultaneously
// — silently, because each client's own view stays self-consistent.
//
// The hierarchical collective (PR 9) widens the surface: fl.Tree's
// Aggregate entry points publish the root global the same way, and
// Tree.AggregatePartial / AggregatePartialCtx — the relay ingest path —
// hand the identical slice back to every block submitter.
//
// The check taints, per function, every variable that may alias a shared
// aggregation result (via the cfg def-use index: direct assignment,
// identifier copies, subslices, tuple results) and flags the mutating
// uses:
//
//   - element or subrange writes: g[i] = v, g[i] += v, g[i]++
//   - copy(g, ...) — copying INTO the shared backing array
//   - append(g, ...) — append may write the shared backing array in
//     place when spare capacity exists, and aliases it otherwise
//
// Reading is always fine, as is copying OUT (copy(dst, g),
// append(fresh, g...)). Mutate a private copy instead:
// own := append([]float64(nil), g...).
package sharedmut

import (
	"go/ast"
	"go/types"

	"fedsu/internal/analysis"
	"fedsu/internal/analysis/cfg"
)

// Analyzer is the sharedmut check.
var Analyzer = &analysis.Analyzer{
	Name: "sharedmut",
	Doc: "flag writes through shared aggregation results (AsyncGlobal, AggregateModel*, sparse dispatchers)\n\n" +
		"The server hands every caller the same immutable snapshot slice; " +
		"element writes, copy-into, and append through an alias corrupt the " +
		"model under every other client. Copy before mutating.",
	Run: run,
}

// sources maps defining package path -> name -> tuple index of the shared
// slice among the call's results.
var sources = map[string]map[string]int{
	"fedsu/internal/fl": {
		"AsyncGlobal":         0,
		"AggregateModel":      0,
		"AggregateError":      0,
		"AggregateModelCtx":   0,
		"AggregateErrorCtx":   0,
		"AggregatePartial":    0,
		"AggregatePartialCtx": 0,
	},
	"fedsu/internal/sparse": {
		"AggModel":    0,
		"AggError":    0,
		"Collect":     0,
		"SyncContext": 0,
	},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			check(pass, fd.Body)
		}
	}
	return nil
}

// isSource reports whether e is a call returning a shared aggregation
// result at tuple position result.
func isSource(pass *analysis.Pass, e ast.Expr, result int) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := analysis.CalledFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	idx, ok := sources[fn.Pkg().Path()][fn.Name()]
	return ok && idx == result
}

// check analyzes one function declaration body, nested literals included
// (an alias captured by a closure is still an alias, and the def-use
// index spans the whole body).
func check(pass *analysis.Pass, body *ast.BlockStmt) {
	du := cfg.NewDefUse(body, pass.TypesInfo)
	tainted := du.Taint(pass.TypesInfo, func(e ast.Expr, result int) bool {
		return isSource(pass, e, result)
	})
	if len(tainted) == 0 && !mentionsSourceCall(pass, body) {
		return
	}
	// sharedBase resolves an expression to the tainted variable (through
	// parens and subslices) or to a direct source call, returning the name
	// to report.
	sharedBase := func(e ast.Expr) (string, bool) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.Ident:
				obj := pass.TypesInfo.Uses[x]
				if obj == nil {
					obj = pass.TypesInfo.Defs[x]
				}
				if obj == nil {
					return "", false
				}
				_, isTainted := tainted[obj]
				return x.Name, isTainted
			case *ast.CallExpr:
				if isSource(pass, x, 0) {
					return "the aggregation result", true
				}
				return "", false
			default:
				return "", false
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				idx, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				if name, shared := sharedBase(idx.X); shared {
					pass.Reportf(lhs.Pos(), "write through %s, a shared aggregation result: apply hands every caller the same immutable snapshot; copy before mutating", nameQ(name))
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := n.X.(*ast.IndexExpr); ok {
				if name, shared := sharedBase(idx.X); shared {
					pass.Reportf(n.Pos(), "write through %s, a shared aggregation result: apply hands every caller the same immutable snapshot; copy before mutating", nameQ(name))
				}
			}
		case *ast.CallExpr:
			id, ok := n.Fun.(*ast.Ident)
			if !ok || len(n.Args) == 0 {
				return true
			}
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			switch id.Name {
			case "copy":
				if name, shared := sharedBase(n.Args[0]); shared {
					pass.Reportf(n.Pos(), "copy into %s, a shared aggregation result: the destination backing array is visible to every other caller; copy into a fresh slice instead", nameQ(name))
				}
			case "append":
				if name, shared := sharedBase(n.Args[0]); shared {
					pass.Reportf(n.Pos(), "append to %s, a shared aggregation result: append may write the shared backing array in place; start from a fresh copy (append([]float64(nil), g...))", nameQ(name))
				}
			}
		}
		return true
	})
}

// mentionsSourceCall reports whether the body contains a direct source
// call at all (covers `fl.Server.AsyncGlobal()[0] = v` style writes with
// no variable to taint).
func mentionsSourceCall(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isSource(pass, call, 0) {
			found = true
		}
		return !found
	})
	return found
}

func nameQ(name string) string {
	if name == "the aggregation result" {
		return name
	}
	return "\"" + name + "\""
}
