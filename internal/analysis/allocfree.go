package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocFree turns the PR 3 zero-allocs/op benchmark contract into a
// compile-time one: a function whose doc comment carries //bfgts:allocfree
// may not contain, anywhere in its body (including nested function
// literals):
//
//   - make or new,
//   - a composite literal that escapes to the heap: any &T{...}, and any
//     slice or map literal (value struct/array literals returned or passed
//     by value stay on the stack and are allowed),
//   - an append to a fresh function-local slice (one declared inside the
//     function with no backing storage: `var xs []T` or `xs := []T{}`);
//     self-appends to pooled storage — fields, parameters, captured
//     variables, or locals initialized from existing storage — are allowed
//     because steady state reuses the retained capacity, and that is
//     exactly what the paired Test*AllocFree runtime gates pin,
//   - an append whose result lands somewhere other than its own first
//     argument or a return statement (growth into a second slice always
//     copies),
//   - interface boxing: a concrete non-pointer-shaped value — or a value
//     of type-parameter type, whose shape is unknown — converted,
//     assigned, passed, or returned as an interface,
//   - a variable-capturing closure that escapes: assigned, stored,
//     returned, or passed outside the package. A capturing closure passed
//     directly to a same-package function (the lineSet.each iterator
//     pattern) is allowed — the callee is under this analyzer's
//     jurisdiction too and does not retain its argument.
//
// The check is intra-procedural: calls to unannotated helpers are not
// followed. Annotate the callee to extend coverage. Intended slow paths
// (pool misses) are suppressed per line with
// `//bfgts:ignore allocfree <reason>`, and arguments to panic are exempt —
// an allocation while crashing is not a steady-state cost.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc:  "forbid heap allocation in functions annotated //bfgts:allocfree",
	Run:  runAllocFree,
}

// AllocFreeDirective is the doc-comment marker, exported so tests can
// cross-check the annotated set against the runtime allocation gates.
const AllocFreeDirective = "allocfree"

func runAllocFree(pass *Pass) error {
	pkgFuncs(pass.Files, func(fd *ast.FuncDecl) {
		if !hasDirective(fd.Doc, AllocFreeDirective) {
			return
		}
		checkAllocFreeBody(pass, fd)
	})
	return nil
}

func checkAllocFreeBody(pass *Pass, fd *ast.FuncDecl) {
	localInits := collectLocalSliceInits(pass, fd.Body)

	var walk func(n ast.Node, stack []ast.Node) bool
	walk = func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanicCall(pass, n) {
				// Crash paths may allocate; skip the whole argument tree.
				return false
			}
			checkAllocCall(pass, n, stack, localInits)
			checkBoxingCall(pass, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal escapes to the heap in //bfgts:allocfree function %s", fd.Name.Name)
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(), "%s literal allocates in //bfgts:allocfree function %s", typeKindName(tv.Type), fd.Name.Name)
				}
			}
		case *ast.FuncLit:
			checkClosure(pass, n, stack, fd)
		case *ast.AssignStmt:
			checkBoxingAssign(pass, n)
		case *ast.ValueSpec:
			checkBoxingValueSpec(pass, n)
		case *ast.ReturnStmt:
			checkBoxingReturn(pass, n, fd, stack)
		}
		return true
	}

	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !walk(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// checkAllocCall flags make, new, and non-self or fresh-local appends.
func checkAllocCall(pass *Pass, call *ast.CallExpr, stack []ast.Node, localInits map[types.Object]ast.Expr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	if !ok {
		return
	}
	switch b.Name() {
	case "make":
		pass.Reportf(call.Pos(), "make allocates in //bfgts:allocfree function; hoist to construction time or pool the storage")
	case "new":
		pass.Reportf(call.Pos(), "new allocates in //bfgts:allocfree function; hoist to construction time or pool the storage")
	case "append":
		checkAppend(pass, call, stack, localInits)
	}
}

// checkAppend applies the pooled-self-append rule.
func checkAppend(pass *Pass, call *ast.CallExpr, stack []ast.Node, localInits map[types.Object]ast.Expr) {
	if len(call.Args) == 0 {
		return
	}
	if !isSelfAppend(pass, call, stack) {
		pass.Reportf(call.Pos(), "append result does not flow back into its own slice; growth into a second slice copies and allocates")
		return
	}
	// Self-append: allowed unless the target is a fresh function-local
	// slice, which starts with no capacity and allocates every call.
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return // fields, index expressions: pooled storage by convention
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	init, isLocal := localInits[obj]
	if !isLocal {
		return // parameter or captured variable: caller-owned storage
	}
	if init == nil || isEmptySliceExpr(pass, init) {
		pass.Reportf(call.Pos(), "append to fresh local slice %s allocates every call; reuse pooled storage or take a caller-provided buffer", id.Name)
	}
}

// isSelfAppend reports whether the append's value flows back into its
// first argument (x = append(x, ...)) or straight out via return.
func isSelfAppend(pass *Pass, call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.AssignStmt:
		for i, rhs := range parent.Rhs {
			if rhs == ast.Expr(call) && i < len(parent.Lhs) {
				return types.ExprString(parent.Lhs[i]) == types.ExprString(call.Args[0])
			}
		}
	}
	return false
}

// collectLocalSliceInits maps every slice-typed object declared directly in
// the function body to its initializer expression (nil when declared
// without one).
func collectLocalSliceInits(pass *Pass, body *ast.BlockStmt) map[types.Object]ast.Expr {
	inits := map[types.Object]ast.Expr{}
	record := func(id *ast.Ident, init ast.Expr) {
		obj := pass.TypesInfo.Defs[id]
		if obj == nil || obj.Type() == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); ok {
			inits[obj] = init
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					var init ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						init = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						init = n.Rhs[0]
					}
					record(id, init)
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				var init ast.Expr
				if i < len(n.Values) {
					init = n.Values[i]
				}
				record(id, init)
			}
		}
		return true
	})
	return inits
}

// isEmptySliceExpr reports whether expr denotes storage-free slice state:
// nil or an empty composite literal. Anything else (a slice of existing
// storage, a call returning pooled memory) counts as backed.
func isEmptySliceExpr(pass *Pass, expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	}
	return false
}

// checkClosure flags capturing function literals except those passed
// directly as an argument to a same-package function or method.
func checkClosure(pass *Pass, lit *ast.FuncLit, stack []ast.Node, fd *ast.FuncDecl) {
	if !capturesVariables(pass, lit) {
		return
	}
	if len(stack) > 0 {
		if call, ok := stack[len(stack)-1].(*ast.CallExpr); ok {
			for _, arg := range call.Args {
				if arg == ast.Expr(lit) && samePackageCallee(pass, call) {
					return
				}
			}
		}
	}
	pass.Reportf(lit.Pos(), "capturing closure escapes in //bfgts:allocfree function %s; register a long-lived continuation instead (see sim.Engine.Register)", fd.Name.Name)
}

// capturesVariables reports whether the literal references any object
// declared outside it.
func capturesVariables(pass *Pass, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() {
			if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
				// Package-level variables live in static storage and do
				// not force a heap closure by themselves.
				if obj.Parent() != pass.Pkg.Scope() {
					captures = true
				}
			}
		}
		return true
	})
	return captures
}

// samePackageCallee reports whether the call's target is a function or
// method defined in the package under analysis.
func samePackageCallee(pass *Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	return obj != nil && obj.Pkg() == pass.Pkg
}

// isPanicCall reports whether call is the panic builtin.
func isPanicCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// --- interface boxing ---

// boxes reports whether assigning src to a dst of interface type stores a
// value that must be heap-boxed. Pointer-shaped values (pointers, channels,
// maps, funcs, unsafe.Pointer) ride in the interface word directly.
func boxes(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	// Type parameters answer IsInterface with their constraint, so they
	// are settled first: storing into a T is a plain copy, and a T stored
	// into an interface is a value of unknown shape — boxed, in general.
	if _, ok := dst.(*types.TypeParam); ok {
		return false
	}
	if !types.IsInterface(dst) {
		return false
	}
	if _, ok := src.(*types.TypeParam); ok {
		return true
	}
	if types.IsInterface(src) {
		return false
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	switch src.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if src.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

func (p *Pass) exprType(e ast.Expr) types.Type {
	if tv, ok := p.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (p *Pass) reportBoxing(pos token.Pos, src types.Type) {
	p.Reportf(pos, "%s boxed into interface allocates in //bfgts:allocfree function", src)
}

// checkBoxingCall flags concrete arguments to interface parameters and
// conversions to interface types.
func checkBoxingCall(pass *Pass, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Explicit conversion: interface(T) boxes.
		if len(call.Args) == 1 {
			if src := pass.exprType(call.Args[0]); boxes(tv.Type, src) {
				pass.reportBoxing(call.Pos(), src)
			}
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var dst types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // xs... passes the slice through unboxed
			}
			dst = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			dst = params.At(i).Type()
		}
		if src := pass.exprType(arg); boxes(dst, src) {
			pass.reportBoxing(arg.Pos(), src)
		}
	}
}

func checkBoxingAssign(pass *Pass, assign *ast.AssignStmt) {
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i := range assign.Lhs {
		var dst types.Type
		if assign.Tok == token.DEFINE {
			if id, ok := assign.Lhs[i].(*ast.Ident); ok {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					dst = obj.Type()
				}
			}
		} else {
			dst = pass.exprType(assign.Lhs[i])
		}
		if src := pass.exprType(assign.Rhs[i]); boxes(dst, src) {
			pass.reportBoxing(assign.Rhs[i].Pos(), src)
		}
	}
}

func checkBoxingValueSpec(pass *Pass, spec *ast.ValueSpec) {
	for i, id := range spec.Names {
		if i >= len(spec.Values) {
			break
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			continue
		}
		if src := pass.exprType(spec.Values[i]); boxes(obj.Type(), src) {
			pass.reportBoxing(spec.Values[i].Pos(), src)
		}
	}
}

func checkBoxingReturn(pass *Pass, ret *ast.ReturnStmt, fd *ast.FuncDecl, stack []ast.Node) {
	// A return inside a nested function literal reports against the
	// literal's own signature, not the annotated declaration's.
	var sig *types.Signature
	for i := len(stack) - 1; i >= 0; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok {
			t := pass.exprType(lit)
			if t == nil {
				return
			}
			sig, _ = t.(*types.Signature)
			break
		}
	}
	if sig == nil {
		obj := pass.TypesInfo.Defs[fd.Name]
		if obj == nil {
			return
		}
		sig, _ = obj.Type().(*types.Signature)
	}
	if sig == nil || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, res := range ret.Results {
		if src := pass.exprType(res); boxes(sig.Results().At(i).Type(), src) {
			pass.reportBoxing(res.Pos(), src)
		}
	}
}

// typeKindName names a type's underlying kind for diagnostics.
func typeKindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}
