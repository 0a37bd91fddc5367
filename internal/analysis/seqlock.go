package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Seqlock pins the two optimistic-reader protocols the concurrent layers
// depend on, both declared on the reader's doc comment:
//
// //bfgts:seqlock <epochField> [<stableField>...] — a classic retry
// reader (the STM's TVar read path): the epoch/version cell named by
// <epochField> must be
//
//   - loaded at least twice (the before- and after- reads of the critical
//     section),
//   - compared for equality/inequality against a recorded value (the
//     recheck that detects a concurrent writer),
//   - tested for odd values somewhere in the function (an odd epoch means
//     a writer is mid-flight and the read must not be trusted), and
//   - any pointer loaded inside the critical section may only be
//     dereferenced after a recheck, and never on the failed branch of one
//     — a retained pointer after a failed check may point into a torn or
//     recycled cell. Selecting a field through the pointer is a
//     dereference too, except for the <stableField>s: fields written
//     only when the pointee is made, which a reader may load before the
//     recheck (the STM's cell id, stored as a hazard).
//
// //bfgts:seqlock-pub <idxField> — a published double-buffer reader (the
// Bloofi AtomicTree's probe-vs-repair protocol, the STM's sigSlot pairs):
// the published index named by <idxField> must be loaded exactly once per
// receiver path (two loads can straddle a writer's flip and mix buffer
// generations), and a Store to it must flip the loaded value (1-cur),
// never reset to a constant.
var Seqlock = &Analyzer{
	Name: "seqlock",
	Doc:  "//bfgts:seqlock readers must recheck the epoch around the critical read; //bfgts:seqlock-pub readers must snapshot the published index exactly once",
	Run:  runSeqlock,
}

func runSeqlock(pass *Pass) error {
	pkgFuncs(pass.Files, func(fd *ast.FuncDecl) {
		if args, ok := directiveArgs(fd.Doc, "seqlock"); ok && len(args) >= 1 {
			checkSeqlockRetry(pass, fd, args[0], args[1:])
		}
		if args, ok := directiveArgs(fd.Doc, "seqlock-pub"); ok && len(args) == 1 {
			checkSeqlockPub(pass, fd, args[0])
		}
	})
	return nil
}

// epochLoadCall reports whether call is <recv>.<field>.Load(), returning
// the receiver path of <recv>.
func epochLoadCall(call *ast.CallExpr, field string) (recvPath string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Load" || len(call.Args) != 0 {
		return "", false
	}
	inner, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel || inner.Sel.Name != field {
		return "", false
	}
	return exprPath(inner.X), true
}

// exprHasEpochLoad reports whether the expression contains an
// <x>.<field>.Load() call or an identifier bound to one.
func exprHasEpochLoad(e ast.Expr, field string, epochVars map[types.Object]bool, info *types.Info) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if _, ok := epochLoadCall(n, field); ok {
				found = true
			}
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && epochVars[obj] {
				found = true
			}
		}
		return true
	})
	return found
}

func checkSeqlockRetry(pass *Pass, fd *ast.FuncDecl, field string, stable []string) {
	info := pass.TypesInfo

	// Collect epoch loads, the variables they are bound to, pointer loads
	// (vars assigned from a pointer-returning .Load()), rechecks and odd
	// tests, all in one ordered walk.
	var loadSites []token.Pos
	epochVars := map[types.Object]bool{}     // v1 := x.version.Load()
	ptrLoads := map[types.Object]token.Pos{} // val := x.val.Load() (pointer-typed)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if _, ok := epochLoadCall(n, field); ok {
				loadSites = append(loadSites, n.Pos())
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if _, isEpoch := epochLoadCall(call, field); isEpoch {
					epochVars[obj] = true
					continue
				}
				// A .Load() whose result is pointer-typed: the retained
				// pointer the deref rule guards.
				if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel && sel.Sel.Name == "Load" {
					if tv, ok := info.Types[rhs]; ok {
						if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
							ptrLoads[obj] = rhs.Pos()
						}
					}
				}
			}
		}
		return true
	})

	if len(loadSites) < 2 {
		pass.Reportf(fd.Pos(), "seqlock reader %s loads epoch field %s %d time(s); the protocol needs a load before and after the critical read", fd.Name.Name, field, len(loadSites))
	}

	// Rechecks: ==/!= comparisons with an epoch load (or epoch-bound var)
	// on either side. Odd tests: x&1 or x%2 where x derives from the epoch.
	var recheckSites []token.Pos
	oddTested := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.EQL, token.NEQ:
			if exprHasEpochLoad(be.X, field, epochVars, info) || exprHasEpochLoad(be.Y, field, epochVars, info) {
				recheckSites = append(recheckSites, be.Pos())
			}
		case token.AND, token.REM:
			if exprHasEpochLoad(be.X, field, epochVars, info) {
				oddTested = true
			}
		}
		return true
	})
	if len(recheckSites) == 0 {
		pass.Reportf(fd.Pos(), "seqlock reader %s never compares %s against a recorded value; a concurrent writer goes undetected", fd.Name.Name, field)
	}
	if !oddTested {
		pass.Reportf(fd.Pos(), "seqlock reader %s never tests %s for odd (writer-active) values", fd.Name.Name, field)
	}

	// Deref rule: a *p or p.f of a retained loaded pointer needs a recheck
	// between the load and the deref, and must not sit on the failed
	// branch of a recheck (the body of a != check, or the else of a ==
	// check). p.f is exempt when f is one of the stable fields.
	checkDeref := func(id *ast.Ident, what string, pos token.Pos, failZone bool) {
		obj := info.Uses[id]
		if obj == nil {
			return
		}
		loadPos, tracked := ptrLoads[obj]
		if !tracked {
			return
		}
		if failZone {
			pass.Reportf(pos, "seqlock reader %s dereferences %s on the failed %s-check path; a retained pointer is invalid once the recheck fails", fd.Name.Name, what, field)
		} else if !anyBetween(recheckSites, loadPos, pos) {
			pass.Reportf(pos, "seqlock reader %s dereferences %s loaded at the start of the critical section without rechecking %s in between", fd.Name.Name, what, field)
		}
	}
	var walk func(n ast.Node, failZone bool)
	walk = func(n ast.Node, failZone bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.IfStmt:
			if n.Init != nil {
				walk(n.Init, failZone)
			}
			walk(n.Cond, failZone)
			bodyFail, elseFail := failZone, failZone
			if op, isRecheck := recheckCond(n.Cond, field, epochVars, info); isRecheck {
				if op == token.NEQ {
					bodyFail = true
				} else {
					elseFail = true
				}
			}
			walkBlock(n.Body, bodyFail, walk)
			if n.Else != nil {
				walk(n.Else, elseFail)
			}
			return
		case *ast.StarExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				checkDeref(id, id.Name, n.Pos(), failZone)
			}
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && !slices.Contains(stable, n.Sel.Name) {
				if sel := info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
					checkDeref(id, id.Name+"."+n.Sel.Name, n.Pos(), failZone)
				}
			}
		}
		// Generic recursion.
		children(n, func(c ast.Node) { walk(c, failZone) })
	}
	walkBlock(fd.Body, false, walk)
	return
}

// recheckCond reports whether cond is (or contains at top level) an epoch
// recheck comparison, returning its operator.
func recheckCond(cond ast.Expr, field string, epochVars map[types.Object]bool, info *types.Info) (token.Token, bool) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return token.ILLEGAL, false
	}
	if be.Op == token.EQL || be.Op == token.NEQ {
		if exprHasEpochLoad(be.X, field, epochVars, info) || exprHasEpochLoad(be.Y, field, epochVars, info) {
			return be.Op, true
		}
	}
	return token.ILLEGAL, false
}

// anyBetween reports whether any position in sorted-or-not sites falls in
// the open interval (lo, hi).
func anyBetween(sites []token.Pos, lo, hi token.Pos) bool {
	for _, p := range sites {
		if p > lo && p < hi {
			return true
		}
	}
	return false
}

// walkBlock runs walk over each statement of a block with the given
// fail-zone flag.
func walkBlock(b *ast.BlockStmt, failZone bool, walk func(ast.Node, bool)) {
	if b == nil {
		return
	}
	for _, st := range b.List {
		walk(st, failZone)
	}
}

// children invokes fn once per direct child node of n (via ast.Inspect's
// first level).
func children(n ast.Node, fn func(ast.Node)) {
	if n == nil {
		return
	}
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c == nil {
			return false
		}
		fn(c)
		return false
	})
}

func checkSeqlockPub(pass *Pass, fd *ast.FuncDecl, field string) {
	info := pass.TypesInfo
	loadsByRecv := map[string][]token.Pos{}
	loadedVars := map[types.Object]bool{}
	var storeSites []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, ok := epochLoadCall(call, field); ok {
			loadsByRecv[recv] = append(loadsByRecv[recv], call.Pos())
			return true
		}
		// <recv>.<field>.Store(x)
		sel, isSel := call.Fun.(*ast.SelectorExpr)
		if !isSel || sel.Sel.Name != "Store" || len(call.Args) != 1 {
			return true
		}
		inner, isSel := sel.X.(*ast.SelectorExpr)
		if !isSel || inner.Sel.Name != field {
			return true
		}
		storeSites = append(storeSites, call)
		return true
	})
	// Bind vars assigned from a load (cur := slot.cur.Load()) so stores of
	// 1-cur are recognized as flips.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			if _, isLoad := epochLoadCall(call, field); !isLoad {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					loadedVars[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					loadedVars[obj] = true
				}
			}
		}
		return true
	})

	if len(loadsByRecv) == 0 && len(storeSites) == 0 {
		pass.Reportf(fd.Pos(), "//bfgts:seqlock-pub %s on %s but the function never loads or stores %s; drop or fix the directive", field, fd.Name.Name, field)
		return
	}
	for recv, sites := range loadsByRecv {
		if len(sites) > 1 {
			// Report at the second load: the first snapshot was fine.
			pass.Reportf(sites[1], "published index %s.%s loaded %d times in %s; a concurrent flip between loads mixes buffer generations — load once and reuse the snapshot", recv, field, len(sites), fd.Name.Name)
		}
	}
	for _, call := range storeSites {
		arg := call.Args[0]
		if exprHasEpochLoad(arg, field, loadedVars, info) {
			continue // 1-cur / cur^1 style flip of the snapshot
		}
		pass.Reportf(call.Pos(), "published index %s stored without deriving from its loaded value in %s; a publish must flip the snapshot (1-cur), not reset the index", field, fd.Name.Name)
	}
}
