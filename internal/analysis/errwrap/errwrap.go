// Package errwrap keeps the typed-error contract intact across the wrap
// chain and across the flrpc wire boundary.
//
// Two rules, both born from the PR 2 fault-tolerance work:
//
//   - An error value passed to fmt.Errorf must be wrapped with %w, not
//     flattened with %v/%s: fl.ErrEvicted and fl.EvictedError are matched
//     with errors.Is/errors.As throughout the engine, and one %v anywhere
//     in the chain severs it.
//
//   - Code must not compare error *text* (err.Error() == "...",
//     strings.Contains(err.Error(), ...)): a string match is a latent bug
//     that breaks the moment a message is reworded. No text-matching shim
//     remains in the tree — the one internal/flrpc kept while net/rpc
//     flattened server-side errors to strings went with net/rpc; its
//     framed transport carries a typed status byte instead. A wire
//     boundary that truly delivers nothing but text would have to carry
//     `//lint:allow errwrap`, which is the only sanctioned way to add one.
package errwrap

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"fedsu/internal/analysis"
)

// Analyzer is the errwrap check.
var Analyzer = &analysis.Analyzer{
	Name: "errwrap",
	Doc: "require %w for wrapped errors and forbid error-string comparisons\n\n" +
		"fmt.Errorf must wrap error-typed arguments with %w so errors.Is/As " +
		"survive (fl.ErrEvicted reaches flrpc's status byte this way), and " +
		"error text must never be compared: no text-matching shim remains.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	errType := types.Universe.Lookup("error").Type()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				checkErrorf(pass, node, errType)
				checkStringMatch(pass, node, errType)
			case *ast.BinaryExpr:
				checkComparison(pass, node, errType)
			}
			return true
		})
	}
	return nil
}

// checkErrorf verifies that every error-typed argument of fmt.Errorf is
// consumed by a %w verb.
func checkErrorf(pass *analysis.Pass, call *ast.CallExpr, errType types.Type) {
	if !isPkgFunc(pass, call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	format, ok := stringConstant(pass, call.Args[0])
	if !ok || strings.Contains(format, "%[") {
		return // non-constant or explicitly indexed formats: out of scope
	}
	verbs := formatVerbs(format)
	args := call.Args[1:]
	for i, verb := range verbs {
		if i >= len(args) || verb == 'w' {
			continue
		}
		tv, ok := pass.TypesInfo.Types[args[i]]
		if !ok || tv.Type == nil || !types.AssignableTo(tv.Type, errType) {
			continue
		}
		pass.Reportf(args[i].Pos(), "error formatted with %%%c loses its type; use %%w so errors.Is/errors.As can unwrap it",
			verb)
	}
}

// formatVerbs returns one element per argument the format string consumes:
// the verb letter, with '*' width/precision arguments represented as '*'.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
	scan:
		for ; i < len(format); i++ {
			switch c := format[i]; {
			case c == '%':
				break scan // literal %%
			case c == '*':
				verbs = append(verbs, '*') // consumes a width argument
			case strings.IndexByte("+-# 0.0123456789", c) >= 0:
				// flags, width, precision: keep scanning
			default:
				verbs = append(verbs, c)
				break scan
			}
		}
	}
	return verbs
}

// checkComparison flags `x.Error() == "..."`-style comparisons.
func checkComparison(pass *analysis.Pass, cmp *ast.BinaryExpr, errType types.Type) {
	if cmp.Op != token.EQL && cmp.Op != token.NEQ {
		return
	}
	if containsErrorText(pass, cmp.X, errType) || containsErrorText(pass, cmp.Y, errType) {
		pass.Reportf(cmp.Pos(), "comparing error text; match sentinel errors with errors.Is/errors.As (a wire-boundary shim needs //lint:allow errwrap -- <reason>)")
	}
}

// matchFuncs are the strings functions that amount to an error-text
// comparison when fed err.Error().
var matchFuncs = map[string]bool{
	"Contains": true, "HasPrefix": true, "HasSuffix": true,
	"EqualFold": true, "Index": true,
}

// checkStringMatch flags strings.Contains(err.Error(), ...) and friends.
func checkStringMatch(pass *analysis.Pass, call *ast.CallExpr, errType types.Type) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !matchFuncs[sel.Sel.Name] || !isPkgFunc(pass, call, "strings", sel.Sel.Name) {
		return
	}
	for _, arg := range call.Args {
		if containsErrorText(pass, arg, errType) {
			pass.Reportf(call.Pos(), "matching on error text; match sentinel errors with errors.Is/errors.As (a wire-boundary shim needs //lint:allow errwrap -- <reason>)")
			return
		}
	}
}

// containsErrorText reports whether expr contains a call to the Error()
// method of an error value.
func containsErrorText(pass *analysis.Pass, expr ast.Expr, errType types.Type) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Error" {
			return true
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		if ok && tv.Type != nil && types.AssignableTo(tv.Type, errType) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isPkgFunc reports whether call invokes the named package-level function.
func isPkgFunc(pass *analysis.Pass, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath
}

// stringConstant returns the constant string value of expr, if any.
func stringConstant(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
