// Package tokenpair generalizes scratchpair's Get/Put pairing discipline
// to the process-wide compute-token budget (par.AcquireToken /
// par.ReleaseToken). Tokens are anonymous — Acquire returns nothing — so
// instead of scratchpair's per-variable table the check runs an interval
// dataflow over the cfg package's control-flow graph: each block's state
// is the [min, max] number of tokens held on paths reaching it (capped,
// so loops converge), plus the number of releases scheduled by defer.
//
// Enforced rules, in contract order:
//
//   - balance: every path out of a function releases what it acquired
//     (a leaked token permanently shrinks the process-wide budget);
//   - no release without acquire (par panics at runtime; the analyzer
//     catches it at build time);
//   - no nested acquire on a must-held path: one goroutine holding two
//     tokens deadlocks the budget once capacity drains to one;
//   - release BEFORE every blocking rendezvous with other token holders:
//     collective barriers (Client.SyncRound/SyncRoundCtx, the
//     sparse.SyncContext / AggModel / AggError dispatchers, Wire.Collect,
//     which runs either for a strategy, and the tree
//     collective's Tree.AggregatePartial/AggregatePartialCtx relay ingest,
//     which parks until the root publishes) and channel handshakes. This
//     is the PR 5 engine rule — the token is a throttle, not a lock, and
//     holding one across a barrier deadlocks whenever clients outnumber
//     tokens.
//
// par.Parallelize/ParallelizeGrain are deliberately NOT rendezvous here:
// holding a token across the pool dispatch is the intended pattern (the
// pool falls back inline and its workers never acquire tokens).
package tokenpair

import (
	"go/ast"
	"go/token"
	"go/types"

	"fedsu/internal/analysis"
	"fedsu/internal/analysis/cfg"
)

// Analyzer is the tokenpair check.
var Analyzer = &analysis.Analyzer{
	Name: "tokenpair",
	Doc: "check par.AcquireToken/ReleaseToken pairing and the release-before-barrier ordering rule\n\n" +
		"Every acquisition must be balanced on every path, never nested on a " +
		"must-held path, and released before collective barriers and channel " +
		"rendezvous (the compute-token budget is a throttle, not a lock).",
	Run: run,
}

const parPkg = "fedsu/internal/par"

// barriers maps defining package path -> function/method names whose call
// is a blocking rendezvous with other token holders.
var barriers = map[string]map[string]bool{
	"fedsu/internal/fl": {
		"SyncRound": true, "SyncRoundCtx": true,
		"AggregatePartial": true, "AggregatePartialCtx": true,
	},
	"fedsu/internal/sparse": {"SyncContext": true, "AggModel": true, "AggError": true, "Collect": true},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil && mentionsToken(pass, body) {
				check(pass, body)
			}
			return true
		})
	}
	return nil
}

// mentionsToken cheaply gates the dataflow: only bodies that touch the
// token API (outside nested function literals) are analyzed.
func mentionsToken(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	cfg.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && tokenCall(pass, call) != "" {
			found = true
		}
		return !found
	})
	return found
}

// tokenCall returns "acquire"/"release" for the par token calls, "" else.
func tokenCall(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := analysis.CalledFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != parPkg {
		return ""
	}
	switch fn.Name() {
	case "AcquireToken":
		return "acquire"
	case "ReleaseToken":
		return "release"
	}
	return ""
}

// tokens is the abstract state: the interval of tokens held on paths into
// a point, and how many releases are scheduled by defer. The interval is
// capped so acquire-in-a-loop converges (anything >= capTokens is already
// a reported bug).
type tokens struct {
	lo, hi   int
	deferred int
}

const capTokens = 2

func (t tokens) acquire() tokens {
	if t.lo < capTokens {
		t.lo++
	}
	if t.hi < capTokens {
		t.hi++
	}
	return t
}

func (t tokens) release() tokens {
	if t.lo > 0 {
		t.lo--
	}
	if t.hi > 0 {
		t.hi--
	}
	return t
}

func check(pass *analysis.Pass, body *ast.BlockStmt) {
	c := &checker{pass: pass}
	g := cfg.Build(body)
	lat := cfg.Lattice[tokens]{
		Transfer: func(b *cfg.Block, in tokens) tokens { return c.scan(g, b, in, false) },
		Join: func(a, b tokens) tokens {
			return tokens{lo: min(a.lo, b.lo), hi: max(a.hi, b.hi), deferred: min(a.deferred, b.deferred)}
		},
		Equal: func(a, b tokens) bool { return a == b },
	}
	entries := cfg.Forward(g, tokens{}, lat)
	for _, b := range g.Blocks {
		if in, ok := entries[b]; ok {
			c.scan(g, b, in, true)
		}
	}
	// Balance at function exit: tokens still held beyond the deferred
	// releases leak out of the process-wide budget. (Paths ending in panic
	// never reach Exit and are exempt, matching scratchpair.)
	if exit, ok := entries[g.Exit]; ok && exit.hi-exit.deferred > 0 {
		pos := firstAcquire(pass, body)
		if pos == token.NoPos {
			pos = body.Pos()
		}
		c.pass.Reportf(pos, "AcquireToken is not balanced by ReleaseToken on every path out of the function; the leaked token permanently shrinks the compute budget")
	}
}

// firstAcquire finds the first AcquireToken call in the body (outside
// nested function literals) to anchor the balance diagnostic.
func firstAcquire(pass *analysis.Pass, body *ast.BlockStmt) token.Pos {
	pos := token.NoPos
	cfg.Inspect(body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && tokenCall(pass, call) == "acquire" {
			pos = call.Pos()
		}
		return pos == token.NoPos
	})
	return pos
}

type checker struct {
	pass *analysis.Pass
}

// scan interprets one block, optionally reporting violations against the
// incoming state.
func (c *checker) scan(g *cfg.Graph, b *cfg.Block, in tokens, report bool) tokens {
	st := in
	for _, n := range b.Nodes {
		comm := false
		if s, ok := n.(ast.Stmt); ok && g.SelectComm[s] {
			comm = true
		}
		cfg.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.DeferStmt:
				if tokenCall(c.pass, m.Call) == "release" {
					st.deferred++
				}
				return false
			case *ast.GoStmt:
				return false
			case *ast.SelectStmt:
				if !cfg.HasDefault(m) {
					c.rendezvous(m.Pos(), "select with no default clause", st, report)
				}
			case *ast.RangeStmt:
				if isChan(c.pass, m.X) {
					c.rendezvous(m.Pos(), "range over a channel", st, report)
				}
			case *ast.SendStmt:
				if !comm {
					c.rendezvous(m.Arrow, "channel send", st, report)
				}
			case *ast.UnaryExpr:
				if m.Op == token.ARROW && !comm {
					c.rendezvous(m.Pos(), "channel receive", st, report)
				}
			case *ast.CallExpr:
				switch tokenCall(c.pass, m) {
				case "acquire":
					if report && st.lo >= 1 {
						c.pass.Reportf(m.Pos(), "AcquireToken while a token is already held: nested acquisitions deadlock the budget once capacity drains")
					}
					st = st.acquire()
				case "release":
					if report && st.hi == 0 {
						c.pass.Reportf(m.Pos(), "ReleaseToken without a matching AcquireToken (par panics on an over-release at runtime)")
					}
					st = st.release()
				default:
					if fn := analysis.CalledFunc(c.pass.TypesInfo, m); fn != nil && fn.Pkg() != nil {
						if names := barriers[fn.Pkg().Path()]; names[fn.Name()] {
							c.rendezvous(m.Pos(), "collective barrier "+fn.Name(), st, report)
						}
					}
				}
			}
			return true
		})
	}
	return st
}

// rendezvous reports a blocking rendezvous reached with a token possibly
// held. Deferred releases do not excuse it: they run at function exit,
// after the rendezvous has already deadlocked.
func (c *checker) rendezvous(pos token.Pos, what string, st tokens, report bool) {
	if !report || st.hi == 0 {
		return
	}
	c.pass.Reportf(pos, "compute token held across %s; call ReleaseToken before the rendezvous (the budget is a throttle, not a lock)", what)
}

func isChan(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
