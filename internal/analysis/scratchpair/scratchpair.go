// Package scratchpair checks that every pooled-resource acquisition is
// balanced by its release on every path out of the acquiring function. It
// enforces the project's Get/Put families:
//
//	tensor.GetScratch / tensor.PutScratch   (scratch tensors, arena.go)
//	codec.GetBuf      / codec.PutBuf        (pooled wire buffers, codec/pool.go)
//	codec.GetVals     / codec.PutVals       (pooled vectors, codec/pool.go)
//
// The pools recycle backing stores through sync.Pool; a Get without a Put
// does not crash anything — it silently demotes the pool to plain
// allocation, which is exactly why the allocation budgets in
// BENCH_kernels.json and BENCH_agg.json regress without any test failing.
// This analyzer makes the pairing a compile-time contract.
//
// The check is flow-sensitive over the function body: acquisitions are
// tracked per variable through if/else, switch, select, and loop bodies,
// and must be dead (released, deferred, or ownership-transferred) at every
// return and at the end of the function. Ownership transfers that end
// tracking:
//
//   - returning the resource to the caller
//   - storing it into a struct field, map, slice element, or composite
//     literal (e.g. the Conv2D im2col cache retained for Backward, or the
//     fl.Server stray-contribution map drained at barrier completion)
//
// Passing a resource to an ordinary function is a use, not a transfer: the
// callee is expected to borrow, not keep.
package scratchpair

import (
	"go/ast"
	"go/token"
	"go/types"

	"fedsu/internal/analysis"
)

// Analyzer is the scratchpair check.
var Analyzer = &analysis.Analyzer{
	Name: "scratchpair",
	Doc: "check that pooled Get/Put calls (GetScratch, GetBuf, GetVals) are paired on all paths\n\n" +
		"Every resource drawn from a project pool must be released, deferred, " +
		"returned, or stored before the acquiring function exits, on every " +
		"control-flow path including early and error returns.",
	Run: run,
}

// pairSpec is one enforced Get/Put family: the defining package, the two
// function names, and the noun diagnostics use for the resource.
type pairSpec struct {
	pkg  string
	get  string
	put  string
	noun string
}

// pairs is the table of enforced pools. putNames is its release-side index.
var pairs = []pairSpec{
	{pkg: "fedsu/internal/tensor", get: "GetScratch", put: "PutScratch", noun: "scratch tensor"},
	{pkg: "fedsu/internal/sparse/codec", get: "GetBuf", put: "PutBuf", noun: "pooled codec buffer"},
	{pkg: "fedsu/internal/sparse/codec", get: "GetVals", put: "PutVals", noun: "pooled codec value slice"},
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
			if body != nil {
				a := &checker{pass: pass, reported: map[types.Object]bool{}}
				st := newState()
				st, terminated := a.flowBlock(body.List, st)
				if !terminated {
					a.reportHeld(st, body.Rbrace)
				}
			}
			return true
		})
	}
	return nil
}

// acquisition records where a resource was drawn and from which pool.
type acquisition struct {
	pos  token.Pos
	pair *pairSpec
}

// state is the set of live acquisitions along one path.
type state struct {
	held     map[types.Object]acquisition // variable -> acquisition
	deferred map[types.Object]bool        // release scheduled by defer
}

func newState() *state {
	return &state{held: map[types.Object]acquisition{}, deferred: map[types.Object]bool{}}
}

func (s *state) clone() *state {
	c := newState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

// merge folds the exit state of a conditional branch into s. A resource
// leaks if any incoming path holds it without a scheduled release, so the
// merged resource is held when either path holds it, and stays covered by a
// defer only when every path that actually holds it also scheduled the
// release — a path that never acquired the resource needs none (the
// acquire-and-defer-inside-one-branch pattern).
func (s *state) merge(o *state) {
	leaks := map[types.Object]bool{}
	for k := range s.held {
		if !s.deferred[k] {
			leaks[k] = true
		}
	}
	for k, v := range o.held {
		if _, ok := s.held[k]; !ok {
			s.held[k] = v
		}
	}
	for k := range s.held {
		_, inO := o.held[k]
		if leaks[k] || (inO && !o.deferred[k]) {
			delete(s.deferred, k)
		} else if s.deferred[k] || o.deferred[k] {
			s.deferred[k] = true
		}
	}
	// Defers covering a resource not currently held (scheduled ahead of a
	// re-acquisition) only survive when scheduled on every path.
	for k := range s.deferred {
		if _, held := s.held[k]; !held && !o.deferred[k] {
			delete(s.deferred, k)
		}
	}
}

type checker struct {
	pass     *analysis.Pass
	reported map[types.Object]bool
}

// reportHeld flags every live, non-deferred acquisition at an exit point.
func (c *checker) reportHeld(s *state, exit token.Pos) {
	for obj, acq := range s.held {
		if s.deferred[obj] || c.reported[obj] {
			continue
		}
		c.reported[obj] = true
		c.pass.Reportf(acq.pos, "%s %q is not released by %s on all paths (leaks at line %d)",
			acq.pair.noun, obj.Name(), acq.pair.put, c.pass.Fset.Position(exit).Line)
	}
}

// flowBlock interprets stmts in order, returning the fall-through state and
// whether every path through the block terminated (returned, panicked, or
// branched away) before reaching its end.
func (c *checker) flowBlock(stmts []ast.Stmt, s *state) (*state, bool) {
	for _, stmt := range stmts {
		var terminated bool
		s, terminated = c.flowStmt(stmt, s)
		if terminated {
			return s, true
		}
	}
	return s, false
}

func (c *checker) flowStmt(stmt ast.Stmt, s *state) (*state, bool) {
	switch st := stmt.(type) {
	case *ast.AssignStmt:
		c.flowAssign(st, s)

	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, val := range vs.Values {
					if p := c.getPair(val); p != nil && i < len(vs.Names) {
						if obj := c.pass.TypesInfo.Defs[vs.Names[i]]; obj != nil {
							s.held[obj] = acquisition{pos: val.Pos(), pair: p}
						}
					}
				}
			}
		}

	case *ast.ExprStmt:
		if obj := c.putTarget(st.X); obj != nil {
			delete(s.held, obj)
		} else if p := c.getPair(st.X); p != nil {
			c.pass.Reportf(st.X.Pos(), "%s result discarded: the %s can never be released", p.get, p.noun)
		}
		if isPanic(st.X) {
			return s, true
		}

	case *ast.DeferStmt:
		c.flowDefer(st, s)

	case *ast.ReturnStmt:
		for _, res := range st.Results {
			c.transferExpr(res, s)
		}
		c.reportHeld(s, st.Pos())
		return s, true

	case *ast.BranchStmt:
		// break/continue/goto: the path leaves this block. Leak detection at
		// the loop and function exits still sees the merged state.
		return s, true

	case *ast.BlockStmt:
		return c.flowBlock(st.List, s)

	case *ast.LabeledStmt:
		return c.flowStmt(st.Stmt, s)

	case *ast.IfStmt:
		if st.Init != nil {
			s, _ = c.flowStmt(st.Init, s)
		}
		thenState, thenTerm := c.flowBlock(st.Body.List, s.clone())
		elseState, elseTerm := s, false
		if st.Else != nil {
			elseState, elseTerm = c.flowStmt(st.Else, s.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return thenState, true
		case thenTerm:
			return elseState, false
		case elseTerm:
			return thenState, false
		default:
			thenState.merge(elseState)
			return thenState, false
		}

	case *ast.ForStmt:
		if st.Init != nil {
			s, _ = c.flowStmt(st.Init, s)
		}
		return c.flowLoopBody(st.Body, s), false

	case *ast.RangeStmt:
		return c.flowLoopBody(st.Body, s), false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.flowCases(stmt, s)
	}
	return s, false
}

// flowLoopBody interprets one iteration of a loop body. A resource acquired
// inside the body must be dead again by the end of the iteration — each
// further spin would leak another pooled buffer.
func (c *checker) flowLoopBody(body *ast.BlockStmt, entry *state) *state {
	exit, _ := c.flowBlock(body.List, entry.clone())
	for obj, acq := range exit.held {
		if _, before := entry.held[obj]; before || exit.deferred[obj] || c.reported[obj] {
			continue
		}
		c.reported[obj] = true
		c.pass.Reportf(acq.pos, "%s %q acquired in a loop body is still held at the end of the iteration",
			acq.pair.noun, obj.Name())
		delete(exit.held, obj)
	}
	// Releases of pre-loop resources inside the body are honoured (the loop
	// is assumed to run; a zero-iteration leak needs //lint:allow).
	return exit
}

// flowCases handles switch/type-switch/select: each clause flows
// independently from the entry state and the exits merge.
func (c *checker) flowCases(stmt ast.Stmt, s *state) (*state, bool) {
	var body *ast.BlockStmt
	hasDefault := false
	switch st := stmt.(type) {
	case *ast.SwitchStmt:
		if st.Init != nil {
			s, _ = c.flowStmt(st.Init, s)
		}
		body = st.Body
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s, _ = c.flowStmt(st.Init, s)
		}
		body = st.Body
	case *ast.SelectStmt:
		body = st.Body
	}
	var merged *state
	allTerm := true
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch clause := cl.(type) {
		case *ast.CaseClause:
			stmts = clause.Body
			if clause.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			stmts = clause.Body
			hasDefault = true // select always runs one clause
		}
		exit, term := c.flowBlock(stmts, s.clone())
		allTerm = allTerm && term
		if !term {
			if merged == nil {
				merged = exit
			} else {
				merged.merge(exit)
			}
		}
	}
	if merged == nil {
		merged = s
	} else if !hasDefault {
		merged.merge(s) // no case may match: entry state flows through
	}
	return merged, allTerm && hasDefault
}

// flowAssign handles acquisitions (x := GetScratch(...)) and ownership
// transfers (c.field = x, lit := T{x}, swaps are no-ops at set level).
func (c *checker) flowAssign(st *ast.AssignStmt, s *state) {
	if len(st.Lhs) == len(st.Rhs) {
		for i, rhs := range st.Rhs {
			if p := c.getPair(rhs); p != nil {
				if id, ok := st.Lhs[i].(*ast.Ident); ok {
					if obj := c.objOf(id); obj != nil {
						s.held[obj] = acquisition{pos: rhs.Pos(), pair: p}
						continue
					}
				}
				c.pass.Reportf(rhs.Pos(), "%s result stored into a non-variable target; pairing cannot be verified", p.get)
				continue
			}
			// Storing a held resource anywhere that outlives the function body
			// transfers ownership out of this flow.
			if id, ok := rhs.(*ast.Ident); ok {
				if obj := c.objOf(id); obj != nil && s.has(obj) && !isPlainIdent(st.Lhs[i]) {
					delete(s.held, obj)
				}
			} else {
				c.transferExpr(rhs, s)
			}
		}
		return
	}
	// x, y := f() — no pool function has multiple results; just scan for
	// transfers inside the RHS.
	for _, rhs := range st.Rhs {
		c.transferExpr(rhs, s)
	}
}

// flowDefer recognises `defer PutScratch(x)` and
// `defer func() { ...; PutScratch(x); ... }()` (and the sparse pool
// equivalents).
func (c *checker) flowDefer(st *ast.DeferStmt, s *state) {
	if obj := c.putTarget(st.Call); obj != nil {
		s.deferred[obj] = true
		return
	}
	if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if obj := c.putTarget(call); obj != nil {
					s.deferred[obj] = true
				}
			}
			return true
		})
	}
}

// transferExpr removes from tracking every held variable that escapes
// through expr into storage that outlives the flow (composite literals,
// address-taken values, map/slice stores). Plain call arguments are
// borrows and do not transfer.
func (c *checker) transferExpr(expr ast.Expr, s *state) {
	switch e := expr.(type) {
	case *ast.Ident:
		if obj := c.objOf(e); obj != nil {
			delete(s.held, obj)
		}
	case *ast.CompositeLit, *ast.UnaryExpr:
		ast.Inspect(expr, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := c.objOf(id); obj != nil && s.has(obj) {
					delete(s.held, obj)
				}
			}
			return true
		})
	case *ast.ParenExpr:
		c.transferExpr(e.X, s)
	}
}

func (s *state) has(obj types.Object) bool {
	_, ok := s.held[obj]
	return ok
}

func isPlainIdent(e ast.Expr) bool {
	_, ok := e.(*ast.Ident)
	return ok
}

func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// putTarget returns the released variable's object when expr is a release
// call of any enforced pair with a plain identifier argument, else nil.
func (c *checker) putTarget(expr ast.Expr) types.Object {
	call, ok := expr.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	fn := c.calledFunc(call)
	if fn == nil {
		return nil
	}
	match := false
	for i := range pairs {
		if fn.Name() == pairs[i].put && fn.Pkg() != nil && fn.Pkg().Path() == pairs[i].pkg {
			match = true
			break
		}
	}
	if !match {
		return nil
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	return c.objOf(id)
}

// getPair returns the pair whose acquiring function expr calls, or nil.
func (c *checker) getPair(expr ast.Expr) *pairSpec {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := c.calledFunc(call)
	if fn == nil {
		return nil
	}
	for i := range pairs {
		if fn.Name() == pairs[i].get && fn.Pkg() != nil && fn.Pkg().Path() == pairs[i].pkg {
			return &pairs[i]
		}
	}
	return nil
}

// calledFunc resolves a call's callee to its function object (qualified
// from outside the defining package or bare inside it).
func (c *checker) calledFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := c.pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// objOf resolves an identifier to its variable object, ignoring the blank
// identifier.
func (c *checker) objOf(id *ast.Ident) types.Object {
	if id.Name == "_" {
		return nil
	}
	if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
		if _, ok := obj.(*types.Var); ok {
			return obj
		}
		return nil
	}
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		if _, ok := obj.(*types.Var); ok {
			return obj
		}
	}
	return nil
}
