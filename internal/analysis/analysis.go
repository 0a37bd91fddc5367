// Package analysis is bfgtsvet's stdlib-only reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, plus the analyzers that
// statically enforce this repo's load-bearing invariants:
//
//   - determinism: no wall-clock time, no global math/rand, no unordered
//     map-range iteration feeding output or appends, in the packages whose
//     results are pinned byte-identical at any -parallel level.
//   - allocfree: functions annotated //bfgts:allocfree must not contain
//     heap-escaping composite literals, make/new, appends to fresh local
//     slices, interface boxing, or escaping capturing closures.
//   - pinpair: every System.Pin(tx) must be balanced by a later (or
//     deferred) Unpin in the same function, or carry an explicit
//     //bfgts:pin-handoff directive naming where the Unpin lives.
//   - metricshoist: metrics Registry lookups (Counter/Gauge/...) are
//     construction-time only — banned inside loops and //bfgts:allocfree
//     bodies, per the nil-is-free cached-instrument design.
//   - atomicfield: a field reached through sync/atomic (typed atomics, or
//     free functions taking its address) must never be read or written
//     plainly elsewhere in the package.
//   - lockorder: double-lock and missing-unlock on sync.Mutex/RWMutex
//     paths, package-wide lock-acquisition-order cycles, and the
//     //bfgts:lock-rank canonical sort-before-acquire discipline of the
//     STM commit path.
//   - seqlock: //bfgts:seqlock readers must load the epoch before and
//     after the critical read, test for odd (writer-active) values, and
//     never dereference a retained pointer (or select one of its fields
//     not declared stable) before the recheck;
//     //bfgts:seqlock-pub readers of a published double-buffer index must
//     load it exactly once per receiver and only flip (never reset) it.
//   - spsc: //bfgts:spsc-producer and //bfgts:spsc-consumer methods of a
//     ring type must never both be called on the same ring identity
//     anywhere in the package — single-ownership of each ring end.
//   - shardsafe: managers carrying the sched.ShardSafe marker must not
//     write package-level state or touch the cross-lane-shared Env.Rand
//     from their methods.
//   - directives: every //bfgts: comment must name a known directive,
//     sit in a legal position (function doc vs line), and carry its
//     required arguments (an ignore needs a written justification).
//
// The module cannot vendor x/tools, so the Analyzer/Pass/Diagnostic types
// here mirror the x/tools API shape closely enough that the analyzers and
// their tests would port over mechanically if the dependency ever lands.
//
// Directives (all are line comments, parsed from the files' comment lists):
//
//	//bfgts:allocfree                      on a function's doc comment
//	//bfgts:ignore <analyzer> <reason>     on or directly above an offending
//	                                       line; <analyzer> may be "all"
//	//bfgts:pin-handoff <where>            on or directly above a Pin call
//	//bfgts:seqlock <epochField> [<stableField>...]
//	                                       on a seqlock reader's doc comment
//	//bfgts:seqlock-pub <idxField>         on a published-index reader's doc
//	//bfgts:spsc-producer                  on a ring type's push method
//	//bfgts:spsc-consumer                  on a ring type's pop method
//	//bfgts:lock-rank <slice>              on a function whose acquisition
//	                                       loop must follow a sort of <slice>
//	//bfgts:lock-handoff <where>           on or directly above a Lock whose
//	                                       Unlock lives elsewhere
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned within a Pass's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Analyzer is a single static check, run over one package at a time.
type Analyzer struct {
	Name string
	Doc  string
	// PinnedOnly marks analyzers that only apply to the packages whose
	// output is pinned byte-identical (the vet driver consults this; the
	// analyzer itself flags wherever it is run, which is what the
	// analysistest fixtures rely on).
	PinnedOnly bool
	Run        func(*Pass) error
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Run executes one analyzer over a type-checked package and returns its
// findings, sorted by position, with //bfgts:ignore suppressions applied.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	ignores := collectIgnores(fset, files)
	kept := pass.diags[:0]
	for _, d := range pass.diags {
		if !ignores.suppresses(fset, d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, AllocFree, PinPair, MetricsHoist,
		AtomicField, LockOrder, Seqlock, SPSC, ShardSafe, Directives,
	}
}

// commentText returns a comment's text with any trailing analysistest
// `// want` expectation stripped, so fixtures can assert on diagnostics
// reported at a directive comment's own position.
func commentText(c *ast.Comment) string {
	text := c.Text
	if i := strings.Index(text, " // want "); i >= 0 {
		text = strings.TrimRight(text[:i], " \t")
	}
	return text
}

// ignoreSet records //bfgts:ignore directives by file and line.
type ignoreSet map[string]map[int][]string // filename -> line -> analyzer names

func collectIgnores(fset *token.FileSet, files []*ast.File) ignoreSet {
	set := ignoreSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(commentText(c), "//bfgts:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				m := set[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					set[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], fields[0])
			}
		}
	}
	return set
}

// suppresses reports whether an ignore directive on the diagnostic's line,
// or the line directly above it, names this analyzer (or "all").
func (s ignoreSet) suppresses(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	m := s[pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range m[line] {
			if name == d.Analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

// hasDirective reports whether a function's doc comment carries the given
// //bfgts: directive (exact word, e.g. "allocfree").
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(commentText(c), "//bfgts:")
		if !ok {
			continue
		}
		if fields := strings.Fields(rest); len(fields) > 0 && fields[0] == directive {
			return true
		}
	}
	return false
}

// lineDirective reports whether a //bfgts:<directive> comment sits on the
// given line or the line directly above it in file f.
func lineDirective(fset *token.FileSet, f *ast.File, pos token.Pos, directive string) bool {
	want := fset.Position(pos).Line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(commentText(c), "//bfgts:")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 || fields[0] != directive {
				continue
			}
			if l := fset.Position(c.Pos()).Line; l == want || l == want-1 {
				return true
			}
		}
	}
	return false
}

// inspectStack walks each file, calling fn with every node and the stack of
// its ancestors (outermost first, not including the node itself). If fn
// returns false the node's children are skipped.
func inspectStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(n, stack) {
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}

// enclosingFile returns the *ast.File of a Pass containing pos.
func (p *Pass) enclosingFile(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// pkgFuncs calls fn for every function declaration with a body.
func pkgFuncs(files []*ast.File, fn func(fd *ast.FuncDecl)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// directiveArgs returns the arguments of a //bfgts:<directive> comment in a
// function's doc group, and whether the directive is present at all.
func directiveArgs(doc *ast.CommentGroup, directive string) ([]string, bool) {
	if doc == nil {
		return nil, false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(commentText(c), "//bfgts:")
		if !ok {
			continue
		}
		if fields := strings.Fields(rest); len(fields) > 0 && fields[0] == directive {
			return fields[1:], true
		}
	}
	return nil, false
}

// exprPath renders an identifier/selector/index chain ("sh.out[i]" ->
// "sh.out[]", "v.version" -> "v.version") as a stable receiver-path key.
// Expressions outside that grammar render as "" (callers skip them).
func exprPath(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := exprPath(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.IndexExpr:
		if base := exprPath(e.X); base != "" {
			return base + "[]"
		}
	case *ast.StarExpr:
		return exprPath(e.X)
	case *ast.ParenExpr:
		return exprPath(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprPath(e.X)
		}
	}
	return ""
}

// exprContainsName reports whether the rendered path of expr mentions name
// as one of its dot/bracket-separated components.
func exprContainsName(expr ast.Expr, name string) bool {
	path := exprPath(expr)
	for _, part := range strings.FieldsFunc(path, func(r rune) bool {
		return r == '.' || r == '[' || r == ']'
	}) {
		if part == name {
			return true
		}
	}
	return false
}

// namedType unwraps pointers and returns the named type of t, or nil.
func namedType(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isPkgType reports whether t (possibly behind a pointer) is the named type
// pkgPath.name.
func isPkgType(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil {
		return false
	}
	if n.Obj().Name() != name {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pkg.Path() == pkgPath
}
