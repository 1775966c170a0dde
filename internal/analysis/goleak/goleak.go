// Package goleak checks that every goroutine spawned in internal/fl,
// internal/flrpc, internal/exp, internal/par, internal/core and
// internal/sparse has a bounded lifetime.
// A `go` statement passes when the launched body exhibits one of the
// project's three sanctioned lifetime shapes:
//
//   - joined: the body calls (*sync.WaitGroup).Done (usually deferred),
//     so a sibling Wait observes its completion — the engine's per-client
//     fan-out and the grid scheduler's slot workers;
//   - bounded: the body contains a select with a receive clause, so it
//     parks on a quit/ctx.Done()-style signal instead of spinning forever
//     — the par pool workers and the flrpc heartbeat loop;
//   - completing: the body's final action (directly or via defer) is a
//     channel send or close, signalling termination to a consumer — the
//     flrpc connection's read loop (a deferred close of its done channel)
//     and the serve loop's done close.
//
// Everything else is a fire-and-forget goroutine: it outlives its
// spawning call with nothing observing its termination, which is exactly
// the shape that leaks goroutines (and their model-sized captures) under
// the ROADMAP's many-servers-per-process scale-out. The check resolves
// `go f(...)` through same-package function declarations, and `go x.f()`
// through a func-typed field f to every function the package assigns to
// that field (core.Manager launches its error collective through a method
// value bound once, because launching a method call allocates its closure):
// each must pass. A goroutine running another package's code cannot be
// verified intra-procedurally and must be annotated
// (`//lint:allow goleak -- <reason>`) or wrapped.
package goleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"fedsu/internal/analysis"
)

// Analyzer is the goleak check.
var Analyzer = &analysis.Analyzer{
	Name: "goleak",
	Doc: "flag fire-and-forget goroutines: every go statement must be joined, quit-bounded, or completion-signalling\n\n" +
		"Scoped to internal/fl, internal/flrpc, internal/exp, internal/par, internal/core, internal/sparse. " +
		"A goroutine passes when its body calls WaitGroup.Done, parks on a " +
		"select receive (quit channel / ctx.Done()), or finishes by sending " +
		"on or closing a channel.",
	Run: run,
}

// scope is the set of packages the contract governs.
var scope = map[string]bool{
	"fedsu/internal/fl":     true,
	"fedsu/internal/flrpc":  true,
	"fedsu/internal/exp":    true,
	"fedsu/internal/par":    true,
	"fedsu/internal/core":   true,
	"fedsu/internal/sparse": true,
}

func run(pass *analysis.Pass) error {
	if !scope[pass.Pkg.Path()] {
		return nil
	}
	// Index this package's function declarations so `go m.method()` and
	// `go helper()` resolve to a checkable body, and what it assigns to
	// func-typed fields so `go m.field()` resolves too.
	decls := map[*types.Func]*ast.FuncDecl{}
	fields := map[*types.Var][]ast.Expr{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							if v := funcField(pass.TypesInfo, sel.Sel); v != nil {
								fields[v] = append(fields[v], n.Rhs[i])
							}
						}
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok {
					if v := funcField(pass.TypesInfo, key); v != nil {
						fields[v] = append(fields[v], n.Value)
					}
				}
			}
			return true
		})
	}
	// check reports g unless the function value fun — a literal or a
	// same-package function or method — has a sanctioned body.
	check := func(g *ast.GoStmt, fun ast.Expr) {
		if lit, ok := fun.(*ast.FuncLit); ok {
			if !sanctioned(pass.TypesInfo, lit.Body) {
				pass.Reportf(g.Pos(), "fire-and-forget goroutine: join it with a WaitGroup, bound it with a quit/ctx.Done() select, or signal completion on a channel")
			}
			return
		}
		fn := analysis.CalledFunc(pass.TypesInfo, &ast.CallExpr{Fun: fun})
		if fn == nil {
			pass.Reportf(g.Pos(), "goroutine launches an indirect call: its lifetime cannot be verified; wrap it in a joined or quit-bounded function")
			return
		}
		fd, local := decls[fn]
		if !local {
			pass.Reportf(g.Pos(), "goroutine runs %s, defined outside this package: its lifetime cannot be verified; wrap it in a joined or quit-bounded function, or annotate the sanctioned launch", fn.Name())
			return
		}
		if !sanctioned(pass.TypesInfo, fd.Body) {
			pass.Reportf(g.Pos(), "fire-and-forget goroutine: join it with a WaitGroup, bound it with a quit/ctx.Done() select, or signal completion on a channel")
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var v *types.Var
			if sel, ok := g.Call.Fun.(*ast.SelectorExpr); ok {
				v = funcField(pass.TypesInfo, sel.Sel)
			}
			if v == nil || len(fields[v]) == 0 {
				check(g, g.Call.Fun)
				return true
			}
			for _, fun := range fields[v] {
				check(g, fun)
			}
			return true
		})
	}
	return nil
}

// funcField returns the func-typed struct field id names, nil when it
// names anything else.
func funcField(info *types.Info, id *ast.Ident) *types.Var {
	v, ok := info.Uses[id].(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	if _, isFunc := v.Type().Underlying().(*types.Signature); !isFunc {
		return nil
	}
	return v
}

// sanctioned reports whether body matches one of the three bounded
// lifetime shapes (see the package comment).
func sanctioned(info *types.Info, body *ast.BlockStmt) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// wg.Done(): joined.
			if fn := analysis.CalledFunc(info, n); fn != nil && fn.Name() == "Done" &&
				fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				ok = true
			}
		case *ast.SelectStmt:
			// A receive clause: the goroutine parks on communication (the
			// quit-channel / ctx.Done() idiom) rather than spinning.
			for _, cl := range n.Body.List {
				cc, isComm := cl.(*ast.CommClause)
				if !isComm || cc.Comm == nil {
					continue
				}
				if commIsReceive(cc.Comm) {
					ok = true
				}
			}
		case *ast.DeferStmt:
			// defer close(ch): completion signalled at every exit.
			if isClose(n.Call) {
				ok = true
			}
		}
		return !ok
	})
	if ok {
		return true
	}
	// Completing shape: the body's final statement sends on or closes a
	// channel.
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.SendStmt:
		return true
	case *ast.ExprStmt:
		if call, isCall := last.X.(*ast.CallExpr); isCall && isClose(call) {
			return true
		}
	}
	return false
}

// commIsReceive reports whether a select comm statement is a receive
// (bare `<-ch` or an assignment form `v := <-ch`), as opposed to a send.
func commIsReceive(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		u, isUnary := s.X.(*ast.UnaryExpr)
		return isUnary && u.Op == token.ARROW
	case *ast.AssignStmt:
		return true
	}
	return false
}

func isClose(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "close"
}
