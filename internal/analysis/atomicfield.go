package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField enforces all-atomic-or-never access on fields and
// package-level variables that are reached through sync/atomic anywhere in
// the package. Mixed atomic/plain access is the classic lost-update and
// torn-read bug the race detector only catches when a stress test happens
// to interleave the two sides; this pins it at compile time across
// internal/stm, internal/bloofi and internal/sim's ShardBarrier.
//
// Two rules:
//
//   - A variable (struct field or package-level var) whose address is
//     passed to a sync/atomic free function (atomic.LoadInt64(&s.n), ...)
//     must not be read or written plainly anywhere else in the package.
//   - A value of a sync/atomic type (atomic.Int64, atomic.Pointer[T],
//     atomic.Value, ...) must never be copied: not assigned, passed,
//     returned, or ranged over by value — neither bare nor inside a
//     struct or array that embeds it (the STM's padded epoch slots: a
//     `for _, s := range slots` scan would read private copies). Typed
//     atomics are only usable through methods on a stable address; a copy
//     silently forks the cell. (Method-receiver uses and &-of expressions
//     are not copies.)
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "fields accessed through sync/atomic must never be read or written plainly; atomic values must not be copied",
	Run:  runAtomicField,
}

// atomicFreeFuncs are the sync/atomic package-level functions taking an
// address argument (everything except the type constructors and helpers).
func isAtomicFreeFunc(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return "", false
	}
	name := sel.Sel.Name
	for _, prefix := range []string{"Load", "Store", "Add", "And", "Or", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(name, prefix) {
			return name, true
		}
	}
	return "", false
}

// isAtomicType reports whether t is one of sync/atomic's typed cells.
func isAtomicType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// holdsAtomic reports whether copying a value of type t copies a typed
// atomic cell: t is one, or a struct or array with one inside. Pointers,
// slices and maps share their cells instead of copying them.
func holdsAtomic(t types.Type) bool {
	if t == nil {
		return false
	}
	if isAtomicType(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsAtomic(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return holdsAtomic(u.Elem())
	}
	return false
}

func runAtomicField(pass *Pass) error {
	// Pass 1: collect the objects whose address feeds an atomic free
	// function, remembering the op name for the message, plus the set of
	// those sanctioned &x sites themselves.
	atomicObjs := map[types.Object]string{}
	sanctioned := map[ast.Expr]bool{} // the x inside an atomic &x argument
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			op, ok := isAtomicFreeFunc(pass, call)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if obj := addrTargetObj(pass, un.X); obj != nil {
					if _, seen := atomicObjs[obj]; !seen {
						atomicObjs[obj] = op
					}
					sanctioned[un.X] = true
				}
			}
			return true
		})
	}

	// Pass 2: flag plain uses of those objects and copies of typed atomics.
	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			checkPlainAtomicUse(pass, n, pass.TypesInfo.Uses[n.Sel], atomicObjs, sanctioned, stack)
		case *ast.Ident:
			// Bare package-level vars; fields come through the selector
			// case above (skip the Sel ident so they are not checked twice).
			if len(stack) > 0 {
				if sel, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && sel.Sel == n {
					return true
				}
			}
			if obj, ok := pass.TypesInfo.Uses[n].(*types.Var); ok {
				checkPlainAtomicUse(pass, n, obj, atomicObjs, sanctioned, stack)
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				checkAtomicCopy(pass, rhs)
			}
			for _, lhs := range n.Lhs {
				checkAtomicOverwrite(pass, lhs)
			}
		case *ast.ValueSpec:
			for _, v := range n.Values {
				checkAtomicCopy(pass, v)
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				checkAtomicCopy(pass, res)
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				checkAtomicCopy(pass, arg)
			}
		case *ast.RangeStmt:
			checkAtomicRange(pass, n)
		}
		return true
	})
	return nil
}

// addrTargetObj resolves the target of an &x atomic argument to a stable
// object: a struct field or a package-level variable. Locals are exempt —
// a local only the current goroutine can reach has no mixed-access hazard
// worth annotating (and flagging them would fire on init-before-publish
// idioms).
func addrTargetObj(pass *Pass, x ast.Expr) types.Object {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return pass.TypesInfo.Uses[x.Sel]
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		if v, ok := obj.(*types.Var); ok && v.Parent() != nil && v.Parent().Parent() == types.Universe {
			// Package scope sits directly under Universe.
			return v
		}
	case *ast.IndexExpr:
		return addrTargetObj(pass, x.X)
	case *ast.ParenExpr:
		return addrTargetObj(pass, x.X)
	}
	return nil
}

// checkPlainAtomicUse flags a use of an atomically-accessed object outside
// a sanctioned &x-to-atomic position.
func checkPlainAtomicUse(pass *Pass, use ast.Expr, obj types.Object, atomicObjs map[types.Object]string, sanctioned map[ast.Expr]bool, stack []ast.Node) {
	if obj == nil {
		return
	}
	op, ok := atomicObjs[obj]
	if !ok {
		return
	}
	// Walk outward through index/paren wrappers: if any enclosing
	// expression is a sanctioned atomic &x target, this use is the atomic
	// access itself.
	if sanctioned[use] {
		return
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if e, ok := stack[i].(ast.Expr); ok && sanctioned[e] {
			return
		}
		if _, isStmt := stack[i].(ast.Stmt); isStmt {
			break
		}
	}
	pass.Reportf(use.Pos(), "%s is accessed with atomic.%s elsewhere in this package; plain reads/writes race with it — use sync/atomic here too", obj.Name(), op)
}

// checkAtomicCopy flags expressions that copy a typed atomic by value.
func checkAtomicCopy(pass *Pass, e ast.Expr) {
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return // calls, literals, &x, conversions: not a value copy of a cell
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || !tv.IsValue() {
		return
	}
	if holdsAtomic(tv.Type) {
		pass.Reportf(e.Pos(), "copies %s by value; typed atomics are only meaningful through methods on one address", typeShort(tv.Type))
	}
}

// checkAtomicRange flags a range statement whose value variable receives
// a copy of each element's atomic cells.
func checkAtomicRange(pass *Pass, rng *ast.RangeStmt) {
	if rng.Value == nil {
		return
	}
	if id, ok := rng.Value.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	t := pass.exprType(rng.X)
	if t == nil {
		return
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem() // range over *[N]T
	}
	var elem types.Type
	switch u := t.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	case *types.Map:
		elem = u.Elem()
	}
	if holdsAtomic(elem) {
		pass.Reportf(rng.Value.Pos(), "range copies %s by value; typed atomics are only meaningful through methods on one address — index the collection instead", typeShort(elem))
	}
}

// checkAtomicOverwrite flags plain assignment into an atomic-typed lvalue
// (n.cur = x), which bypasses the cell's Store.
func checkAtomicOverwrite(pass *Pass, lhs ast.Expr) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	switch lhs.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	// Skip declarations of new atomic variables (var x atomic.Int64 is
	// fine); only flag overwrites of existing cells through selectors and
	// indexes, where another goroutine may hold the address.
	if _, isIdent := lhs.(*ast.Ident); isIdent {
		return
	}
	tv, ok := pass.TypesInfo.Types[lhs]
	if !ok {
		return
	}
	if holdsAtomic(tv.Type) {
		pass.Reportf(lhs.Pos(), "plainly overwrites %s; use its Store method", typeShort(tv.Type))
	}
}

// typeShort renders a type without its package path qualifier noise.
func typeShort(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
