// Package pairing checks the project's acquire/release contracts on every
// path out of a function. One table names them:
//
//	tensor.GetScratch / tensor.PutScratch   scratch tensors (arena.go)
//	codec.GetBuf      / codec.PutBuf        pooled wire buffers (codec/pool.go)
//	codec.GetVals     / codec.PutVals       pooled vectors (codec/pool.go)
//	par.AcquireToken  / par.ReleaseToken    the process-wide compute budget
//
// A leaked pool resource crashes nothing: it silently demotes the pool to
// plain allocation, which the steady-state allocation tests
// (TestSyncSteadyStateAllocs, TestTreeSteadyStateAllocs,
// TestTransportSteadyStateAllocs, TestTrainStepSteadyStateAllocs,
// TestTrainLocalSteadyStateAllocs) notice only on the paths they drive. A leaked token permanently shrinks the
// budget.
//
// Each function body gets one forward dataflow over the cfg package's
// graph, so early returns, break, continue, goto and loop back edges are
// all paths. Paths ending in panic never reach exit and are exempt.
//
// Pool rows are tracked per variable. A resource must be released,
// deferred (directly or in a deferred closure), returned, or stored where
// it outlives the call (a field, map or slice element, composite literal,
// or through &) on every path out; passing it to a call is a borrow.
// Reaching an acquisition again while its variable still holds that
// site's resource is a loop that leaks one resource per iteration.
//
// The token row is anonymous — AcquireToken returns nothing — so it is
// tracked as the [lo, hi] number of tokens held (capped, so loops
// converge) plus the releases deferred. Every path out must release what
// it acquired; a release needs a possible acquire (par panics on an
// over-release); an acquire must not happen while a token is held on
// every path (two tokens in one goroutine deadlock the budget once it
// drains to one); and no blocking rendezvous with other token holders —
// a barrier in the barriers table or a channel handshake — may be reached
// while a token may be held: the token is a throttle, not a lock, and a
// holder parked on a barrier deadlocks whenever clients outnumber tokens.
// par.Parallelize is not a rendezvous: its pool falls back inline and its
// workers never acquire tokens.
package pairing

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"fedsu/internal/analysis"
	"fedsu/internal/analysis/cfg"
)

// Analyzer is the pairing check.
var Analyzer = &analysis.Analyzer{
	Name: "pairing",
	Doc: "check that pool Get/Put calls and par.AcquireToken/ReleaseToken are paired on all paths\n\n" +
		"Every resource drawn from a project pool (GetScratch, GetBuf, GetVals) " +
		"must be released, deferred, returned, or stored before the acquiring " +
		"function exits, on every control-flow path. Every compute token must be " +
		"released on every path, never nested on a must-held path, and released " +
		"before collective barriers and channel rendezvous (the budget is a " +
		"throttle, not a lock).",
	Run: run,
}

// pair is one enforced acquire/release family: the defining package, the
// two function names, and the noun diagnostics use for a pooled resource.
// An anonymous row's acquire returns nothing, so it is counted rather than
// tracked per variable.
type pair struct {
	pkg, get, put, noun string
	anonymous           bool
}

var pairs = []pair{
	{pkg: "fedsu/internal/tensor", get: "GetScratch", put: "PutScratch", noun: "scratch tensor"},
	{pkg: "fedsu/internal/sparse/codec", get: "GetBuf", put: "PutBuf", noun: "pooled codec buffer"},
	{pkg: "fedsu/internal/sparse/codec", get: "GetVals", put: "PutVals", noun: "pooled codec value slice"},
	{pkg: "fedsu/internal/par", get: "AcquireToken", put: "ReleaseToken", anonymous: true},
}

// barriers maps defining package path -> function/method names whose call
// is a blocking rendezvous with other token holders: the client's
// collective round, the sync dispatchers, Leg.Dispatch and Wire.Collect,
// which runs either leg for a strategy, and the tree's relay ingest, which
// parks until the root publishes.
var barriers = map[string]map[string]bool{
	"fedsu/internal/fl": {"SyncRoundCtx": true, "AggregatePartialCtx": true},
	"fedsu/internal/sparse": {
		"SyncContext": true, "AggModel": true, "AggError": true, "Dispatch": true, "Collect": true,
	},
}

// lookup returns the row fn belongs to and whether fn acquires (true) or
// releases (false); nil when fn is in no row.
func lookup(fn *types.Func) (*pair, bool) {
	if fn == nil || fn.Pkg() == nil {
		return nil, false
	}
	for i := range pairs {
		if p := &pairs[i]; fn.Pkg().Path() == p.pkg && (fn.Name() == p.get || fn.Name() == p.put) {
			return p, fn.Name() == p.get
		}
	}
	return nil, false
}

// hold is one variable's pooled resource on the paths into a point: the
// acquisition site (NoPos when only a release has been deferred, ahead of
// the acquisition) and whether a deferred release covers it.
type hold struct {
	pos      token.Pos
	row      *pair
	deferred bool
}

// tokens is the token row: the interval of tokens held on the paths into
// a point, and how many releases are deferred.
type tokens struct{ lo, hi, deferred int }

// capTokens bounds the interval so acquire-in-a-loop converges; anything
// at the cap is already a reported bug.
const capTokens = 2

// state is the dataflow fact: the pool rows per variable, the token row.
type state struct {
	held map[types.Object]hold
	tok  tokens
}

// drop ends tracking of obj's resource (released or handed off); a
// release deferred for it stays scheduled.
func (s *state) drop(obj types.Object) {
	if h, ok := s.held[obj]; ok && h.pos.IsValid() {
		if h.deferred {
			s.held[obj] = hold{deferred: true}
		} else {
			delete(s.held, obj)
		}
	}
}

func join(a, b state) state {
	out := state{
		held: map[types.Object]hold{},
		tok:  tokens{lo: min(a.tok.lo, b.tok.lo), hi: max(a.tok.hi, b.tok.hi), deferred: min(a.tok.deferred, b.tok.deferred)},
	}
	for obj, x := range a.held {
		if h, ok := joinHold(x, b.held[obj]); ok {
			out.held[obj] = h
		}
	}
	for obj, y := range b.held {
		if _, seen := a.held[obj]; !seen {
			if h, ok := joinHold(hold{}, y); ok {
				out.held[obj] = h
			}
		}
	}
	return out
}

// joinHold merges one variable's holds from two paths (the zero hold for a
// path without one). The resource is held when either path holds it, and
// covered by a defer only when every path that holds it scheduled the
// release: a path that never acquired needs none, which is the
// acquire-and-defer-inside-one-branch pattern. A defer scheduled ahead of
// the acquisition survives only when every path scheduled it.
func joinHold(x, y hold) (hold, bool) {
	if !x.pos.IsValid() && !y.pos.IsValid() {
		return x, x.deferred && y.deferred
	}
	h := hold{pos: x.pos, row: x.row, deferred: (x.deferred || !x.pos.IsValid()) && (y.deferred || !y.pos.IsValid())}
	if !x.pos.IsValid() || (y.pos.IsValid() && y.pos < x.pos) {
		h.pos, h.row = y.pos, y.row
	}
	return h, true
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					check(pass, fn.Body)
				}
			case *ast.FuncLit:
				check(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass     *analysis.Pass
	g        *cfg.Graph
	reported map[types.Object]bool
	firstTok token.Pos // earliest reachable AcquireToken: the balance report's anchor
}

func check(pass *analysis.Pass, body *ast.BlockStmt) {
	c := &checker{pass: pass, g: cfg.Build(body), reported: map[types.Object]bool{}}
	entries := cfg.Forward(c.g, state{held: map[types.Object]hold{}}, cfg.Lattice[state]{
		Transfer: func(b *cfg.Block, in state) state { return c.scan(b, in, false) },
		Join:     join,
		Equal:    func(a, b state) bool { return a.tok == b.tok && maps.Equal(a.held, b.held) },
	})
	// Reporting pass: once per block from the fixpoint entry states (the
	// silent fixpoint may visit a block many times).
	for _, b := range c.g.Blocks {
		if in, ok := entries[b]; ok {
			c.scan(b, in, true)
		}
	}
	exit, ok := entries[c.g.Exit]
	if !ok {
		return
	}
	// Returns report and clear their pool holds, so what reaches exit fell
	// off the end of the body.
	c.leaks(exit.held, body.Rbrace)
	if exit.tok.hi-exit.tok.deferred > 0 {
		c.pass.Reportf(c.firstTok, "AcquireToken is not balanced by ReleaseToken on every path out of the function; the leaked token permanently shrinks the compute budget")
	}
}

// scan interprets one block, reporting violations against the incoming
// state when report is set.
func (c *checker) scan(b *cfg.Block, in state, report bool) state {
	st := state{held: maps.Clone(in.held), tok: in.tok}
	for _, n := range b.Nodes {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if len(s.Lhs) == len(s.Rhs) {
					c.bind(s.Lhs[i], rhs, &st, report)
				} else {
					c.transfer(rhs, &st) // x, y := f(): no pool function has several results
				}
			}
		case *ast.DeclStmt:
			for _, spec := range s.Decl.(*ast.GenDecl).Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == len(vs.Values) {
					for i, val := range vs.Values {
						c.bind(vs.Names[i], val, &st, report)
					}
				}
			}
		case *ast.ExprStmt:
			if row := c.pool(s.X); row != nil && report {
				c.pass.Reportf(s.X.Pos(), "%s result discarded: the %s can never be released", row.get, row.noun)
			}
		case *ast.DeferStmt:
			c.deferRelease(s, &st)
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				c.transfer(res, &st)
			}
			if report {
				c.leaks(st.held, s.Pos())
			}
			clear(st.held)
		}
		c.calls(n, &st, report)
	}
	return st
}

// leaks reports every pooled resource held at an exit without a deferred
// release.
func (c *checker) leaks(held map[types.Object]hold, exit token.Pos) {
	for obj, h := range held {
		if h.pos.IsValid() && !h.deferred {
			c.report(obj, h, "is not released by %s on all paths (leaks at line %d)", h.row.put, c.pass.Fset.Position(exit).Line)
		}
	}
}

// report flags obj's resource at its acquisition, once per function.
func (c *checker) report(obj types.Object, h hold, format string, args ...any) {
	if !c.reported[obj] {
		c.reported[obj] = true
		c.pass.Reportf(h.pos, "%s %q "+format, append([]any{h.row.noun, obj.Name()}, args...)...)
	}
}

// pool returns the pool row whose acquisition e calls, or nil.
func (c *checker) pool(e ast.Expr) *pair {
	if call, ok := e.(*ast.CallExpr); ok {
		if row, acquire := lookup(analysis.CalledFunc(c.pass.TypesInfo, call)); acquire && !row.anonymous {
			return row
		}
	}
	return nil
}

// bind applies one lhs = rhs pair: an acquisition into a variable, or an
// ownership transfer (c.field = x, lit := T{x}). A copy between
// variables, such as a swap, changes nothing.
func (c *checker) bind(lhs, rhs ast.Expr, st *state, report bool) {
	var obj types.Object
	id, plain := lhs.(*ast.Ident)
	if plain {
		obj = cfg.ObjOf(id, c.pass.TypesInfo)
	}
	row := c.pool(rhs)
	switch {
	case row == nil:
		if _, copied := rhs.(*ast.Ident); !copied || !plain {
			c.transfer(rhs, st)
		}
	case obj != nil:
		h := st.held[obj]
		if report && h.pos == rhs.Pos() && !h.deferred {
			c.report(obj, h, "acquired in a loop body is still held at the end of the iteration")
		}
		st.held[obj] = hold{pos: rhs.Pos(), row: row, deferred: h.deferred}
	case report:
		c.pass.Reportf(rhs.Pos(), "%s result stored into a non-variable target; pairing cannot be verified", row.get)
	}
}

// transfer ends tracking of every held variable that escapes through e
// into storage that outlives the flow: e itself when it is a variable, or
// any variable inside a composite literal or a unary expression (&x).
func (c *checker) transfer(e ast.Expr, st *state) {
	switch e := e.(type) {
	case *ast.Ident:
		st.drop(cfg.ObjOf(e, c.pass.TypesInfo))
	case *ast.CompositeLit, *ast.UnaryExpr:
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				st.drop(cfg.ObjOf(id, c.pass.TypesInfo))
			}
			return true
		})
	case *ast.ParenExpr:
		c.transfer(e.X, st)
	}
}

// deferRelease records the releases a defer schedules, made by the
// deferred call itself or inside a deferred closure.
func (c *checker) deferRelease(d *ast.DeferStmt, st *state) {
	ast.Inspect(d.Call, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch row, acquire := lookup(analysis.CalledFunc(c.pass.TypesInfo, call)); {
		case row == nil || acquire:
		case row.anonymous:
			st.tok.deferred++
		default:
			if obj := c.released(call); obj != nil {
				h := st.held[obj]
				h.deferred = true
				st.held[obj] = h
			}
		}
		return true
	})
}

// released returns the variable a pool release call names, or nil.
func (c *checker) released(call *ast.CallExpr) types.Object {
	if len(call.Args) == 1 {
		if id, ok := call.Args[0].(*ast.Ident); ok {
			return cfg.ObjOf(id, c.pass.TypesInfo)
		}
	}
	return nil
}

// calls applies the calls a node makes now (not deferred, not in a new
// goroutine): pool releases, token acquires and releases, and the blocking
// rendezvous a held token must not cross.
func (c *checker) calls(n ast.Node, st *state, report bool) {
	// A select comm's channel operation is performed by the select's
	// marker node, which accounts for blocking per its default clause.
	s, _ := n.(ast.Stmt)
	comm := s != nil && c.g.SelectComm[s]
	cfg.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			if !cfg.HasDefault(m) {
				c.rendezvous(m.Pos(), "select with no default clause", st, report)
			}
		case *ast.RangeStmt:
			if t := c.pass.TypesInfo.TypeOf(m.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					c.rendezvous(m.Pos(), "range over a channel", st, report)
				}
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
			c.call(m, st, report)
		}
		return true
	})
}

func (c *checker) call(call *ast.CallExpr, st *state, report bool) {
	fn := analysis.CalledFunc(c.pass.TypesInfo, call)
	row, acquire := lookup(fn)
	switch {
	case row == nil:
		if fn != nil && fn.Pkg() != nil && barriers[fn.Pkg().Path()][fn.Name()] {
			c.rendezvous(call.Pos(), "collective barrier "+fn.Name(), st, report)
		}
	case !row.anonymous:
		if !acquire {
			st.drop(c.released(call))
		}
	case acquire:
		if report {
			if !c.firstTok.IsValid() || call.Pos() < c.firstTok {
				c.firstTok = call.Pos()
			}
			if st.tok.lo >= 1 {
				c.pass.Reportf(call.Pos(), "%s while a token is already held: nested acquisitions deadlock the budget once capacity drains", row.get)
			}
		}
		st.tok.lo, st.tok.hi = min(st.tok.lo+1, capTokens), min(st.tok.hi+1, capTokens)
	default:
		if report && st.tok.hi == 0 {
			c.pass.Reportf(call.Pos(), "%s without a matching %s (par panics on an over-release at runtime)", row.put, row.get)
		}
		st.tok.lo, st.tok.hi = max(st.tok.lo-1, 0), max(st.tok.hi-1, 0)
	}
}

// rendezvous reports a blocking rendezvous reached with a token possibly
// held. Deferred releases do not excuse it: they run at function exit,
// after the rendezvous has already deadlocked.
func (c *checker) rendezvous(pos token.Pos, what string, st *state, report bool) {
	if report && st.tok.hi > 0 {
		c.pass.Reportf(pos, "compute token held across %s; call ReleaseToken before the rendezvous (the budget is a throttle, not a lock)", what)
	}
}
