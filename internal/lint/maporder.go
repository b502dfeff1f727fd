package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapOrder enforces the order-insensitivity contract behind every
// bit-identity oracle in the repo: Go randomizes map iteration order per
// run, so a `range` over a map that emits records, accumulates into a
// result slice, or writes output produces a different sequence on every
// execution — exactly the hazard class that silently breaks the engine's
// "bit-identical at any Parallelism" guarantee (and with it the chaos
// harness, whose oracles diff full outputs). A map-range that merely
// aggregates order-insensitively (sums, map writes, lookups) is fine, and
// an accumulation that is sorted afterwards in the same function is
// recognized and not flagged.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "forbid emitting/accumulating output from a range over a map without an intervening sort",
	Run:  runMapOrder,
}

// outputWriters are call names that put bytes on an output stream: reaching
// one from inside a map-range means externally visible nondeterminism.
var outputWriters = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Write": true, "WriteString": true,
}

func runMapOrder(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			runMapOrderFunc(pass, fd.Body)
		}
	}
}

func runMapOrderFunc(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			return true
		}
		checkMapRange(pass, body, rs)
		return true
	})
}

// checkMapRange inspects one map-range for order-sensitive effects.
// funcBody is the enclosing function body, searched for a rescuing sort of
// the accumulation target after the loop.
func checkMapRange(pass *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt) {
	reported := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Emit" {
					reported = true
					pass.Reportf(rs.Pos(),
						"range over map %s emits records in map iteration order — iterate a sorted key slice instead (map order is randomized per run)",
						pass.ExprString(rs.X))
					return false
				}
				if outputWriters[sel.Sel.Name] {
					reported = true
					pass.Reportf(rs.Pos(),
						"range over map %s writes output in map iteration order — iterate a sorted key slice instead",
						pass.ExprString(rs.X))
					return false
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(n.Lhs) {
					continue
				}
				target := n.Lhs[i]
				root := rootIdent(target)
				if !declaredOutside(pass, root, rs) {
					continue
				}
				if sortedAfter(pass, funcBody, rs, root) {
					continue
				}
				reported = true
				pass.Reportf(rs.Pos(),
					"range over map %s appends to %s in map iteration order with no later sort — sort the keys (or the result) to keep output deterministic",
					pass.ExprString(rs.X), pass.ExprString(target))
				return false
			}
		}
		return true
	})
}

// isBuiltinAppend reports whether call is the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin || pass.Info.Uses[id] == nil
}

// rootIdent unwraps index/selector/paren/star/assert chains to the leftmost
// identifier (attrs[c] → attrs, m.out → m), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	id, _ := unwrapChain(e).(*ast.Ident)
	return id
}

// unwrapChain strips index/selector/paren/star/slice/assert layers and
// returns the innermost expression.
func unwrapChain(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return e
		}
	}
}

// declaredOutside reports whether the identifier's object is declared
// outside the range statement — i.e. the loop accumulates into surrounding
// state. Unresolvable identifiers count as outside (conservative: flag).
func declaredOutside(pass *Pass, id *ast.Ident, rs *ast.RangeStmt) bool {
	if id == nil {
		return true
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	if obj == nil {
		return true
	}
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// sortedAfter reports whether, after the range statement, the enclosing
// function sorts the accumulation target: a call into package sort, or any
// call whose name contains "Sort", taking an expression rooted at the same
// identifier object.
func sortedAfter(pass *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt, root *ast.Ident) bool {
	if root == nil {
		return false
	}
	rootObj := pass.Info.Uses[root]
	if rootObj == nil {
		rootObj = pass.Info.Defs[root]
	}
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			ar := rootIdent(arg)
			if ar == nil {
				continue
			}
			if ar.Name == root.Name {
				obj := pass.Info.Uses[ar]
				if obj == nil || rootObj == nil || obj == rootObj {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes sort.X(...) and any function whose name mentions
// Sort (signature.Sort and friends).
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if pkgNameOf(pass, fun.X) == "sort" {
			return true
		}
		return strings.Contains(fun.Sel.Name, "Sort")
	case *ast.Ident:
		return strings.Contains(fun.Name, "Sort")
	}
	return false
}
