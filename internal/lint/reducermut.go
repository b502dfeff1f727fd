package lint

import (
	"go/ast"
	"go/types"
)

// ReducerMut enforces the read-only-values reducer contract that makes the
// engine's reduce retry path safe: a failed reduce attempt is re-run from
// the same immutable shuffled bucket, so a reducer (or combiner) that
// writes through a slice or pointer obtained from values.Value(i) corrupts
// the input of its own retry and double-counts (mr.TypedReducer documents
// the contract; internal/core's copy-based reducers are the sanctioned
// pattern). The analyzer finds reducer-shaped functions
// (TypedReducerFunc/TypedCombinerFunc conversions, Job{TypedReducer:/
// TypedCombiner:} literals, ReduceTyped/CombineTyped methods) and flags
// writes through, and emits of, the aliases of their Values parameter.
var ReducerMut = &Analyzer{
	Name: "reducermut",
	Doc:  "forbid reducers/combiners from writing through or leaking the shared values they read (retry safety)",
	Run:  runReducerMut,
}

func runReducerMut(pass *Pass) {
	checkLit := func(e ast.Expr) {
		if fl, ok := e.(*ast.FuncLit); ok {
			if vp := valuesParam(pass, fl.Type); vp != nil {
				checkReducerBody(pass, fl.Body, vp)
			}
		}
	}
	for _, file := range pass.Files {
		// Methods implementing the TypedReducer/TypedCombiner interfaces.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			if fd.Name.Name != "ReduceTyped" && fd.Name.Name != "CombineTyped" {
				continue
			}
			if vp := valuesParam(pass, fd.Type); vp != nil {
				checkReducerBody(pass, fd.Body, vp)
			}
		}
		// Function literals used as TypedReducerFunc/TypedCombinerFunc
		// conversions or assigned to Job{TypedReducer:, TypedCombiner:}
		// (a wrapped conversion there is the CallExpr case).
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name := calleeName(n.Fun); name == "TypedReducerFunc" || name == "TypedCombinerFunc" {
					for _, arg := range n.Args {
						checkLit(arg)
					}
				}
			case *ast.CompositeLit:
				if typeName(pass.TypeOf(n)) != "Job" {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && (key.Name == "TypedReducer" || key.Name == "TypedCombiner") {
						checkLit(kv.Value)
					}
				}
			}
			return true
		})
	}
}

// valuesParam returns the declaring identifier of the Values parameter
// (the view over the shuffled values), or nil when the signature does not
// look like a reducer/combiner.
func valuesParam(pass *Pass, ft *ast.FuncType) *ast.Ident {
	for _, field := range ft.Params.List {
		if len(field.Names) == 1 && typeName(pass.TypeOf(field.Type)) == "Values" {
			return field.Names[0]
		}
	}
	return nil
}

// calleeName extracts the bare name of a called/converted identifier
// (mr.TypedReducerFunc → "TypedReducerFunc").
func calleeName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// typeName returns the name of t's named type (through pointers), or "".
func typeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// checkReducerBody flags writes through the aliases of the values
// parameter, and escapes of those aliases.
func checkReducerBody(pass *Pass, body *ast.BlockStmt, values *ast.Ident) {
	valuesObj := pass.Info.Defs[values]
	if valuesObj == nil {
		return
	}
	// aliases maps objects that reference the shared shuffled data: the
	// parameter itself and locals bound to what values.Value(i) returns —
	// directly, through a reference-typed assertion, or as range variables
	// over such a value.
	aliases := map[types.Object]bool{valuesObj: true}
	isAlias := func(e ast.Expr) bool {
		root := sharedRoot(e)
		if root == nil {
			return false
		}
		obj := pass.Info.Uses[root]
		if obj == nil {
			obj = pass.Info.Defs[root]
		}
		return obj != nil && aliases[obj]
	}
	// refType reports whether writing through a value of this type mutates
	// shared state (array/struct copies do not).
	refType := func(t types.Type) bool {
		if t == nil {
			return true // unknown: stay conservative
		}
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map, *types.Pointer:
			return true
		}
		return false
	}

	// Pass 1: grow the alias set to a fixpoint (handles aliases declared
	// before later writes regardless of nesting).
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					// An `any` from values.Value(i) aliases too: it still
					// holds the slice or pointer a later assertion exposes.
					t := pass.TypeOf(rhs)
					if i >= len(n.Lhs) || !isAlias(rhs) || !(refType(t) || types.IsInterface(t)) {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						obj := pass.Info.Defs[id]
						if obj == nil {
							obj = pass.Info.Uses[id]
						}
						if obj != nil && !aliases[obj] {
							aliases[obj] = true
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				if !isAlias(n.X) {
					return true
				}
				if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
					obj := pass.Info.Defs[id]
					if obj != nil && !aliases[obj] {
						aliases[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}

	// checkWrite flags a write target (assignment LHS or ++/-- operand) that
	// stores through shared shuffled data.
	checkWrite := func(target ast.Expr) {
		switch l := target.(type) {
		case *ast.IndexExpr:
			if isAlias(l.X) {
				pass.Reportf(target.Pos(),
					"reducer assigns through a shared shuffled value (%s) — a retried attempt re-reads the same bucket, so accumulate into fresh state instead",
					pass.ExprString(target))
			}
		case *ast.StarExpr:
			if isAlias(l.X) {
				pass.Reportf(target.Pos(),
					"reducer writes through a pointer shipped in its values (%s) — shuffled values are shared across retries",
					pass.ExprString(target))
			}
		case *ast.SelectorExpr:
			if isAlias(l.X) && refType(pass.TypeOf(l.X)) {
				pass.Reportf(target.Pos(),
					"reducer writes a field through shared shuffled data (%s) — shuffled values are shared across retries",
					pass.ExprString(target))
			}
		}
	}

	// Pass 2: flag mutations and escapes.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				checkWrite(lhs)
				// x = append(alias, ...) may write into the shared backing
				// array past len.
				if i < len(n.Rhs) {
					if call, ok := n.Rhs[i].(*ast.CallExpr); ok && isBuiltinAppend(pass, call) && len(call.Args) > 0 && isAlias(call.Args[0]) {
						pass.Reportf(n.Rhs[i].Pos(),
							"append to an alias of a shared shuffled value (%s) can write into its backing array — copy into fresh state instead",
							pass.ExprString(call.Args[0]))
					}
				}
			}
		case *ast.IncDecStmt:
			checkWrite(n.X)
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Emit" {
				return true
			}
			for _, arg := range n.Args {
				if isAlias(arg) && refType(pass.TypeOf(arg)) {
					pass.Reportf(arg.Pos(),
						"reducer emits an alias of a shared shuffled value (%s) — the output would share backing state with the shuffle buffer; emit a copy",
						pass.ExprString(arg))
				}
			}
		}
		return true
	})
}

// sharedRoot is rootIdent seen through Value method calls, so
// values.Value(0).([]int64)[j] roots at values.
func sharedRoot(e ast.Expr) *ast.Ident {
	e = unwrapChain(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Value" {
			return sharedRoot(sel.X)
		}
	}
	id, _ := e.(*ast.Ident)
	return id
}
