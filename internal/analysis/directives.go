package analysis

import (
	"go/ast"
	"sort"
	"strconv"
	"strings"
)

// Directives validates the //bfgts: directive comments themselves, so a
// typo'd or misplaced annotation fails vet instead of silently disabling
// the check it was meant to configure:
//
//   - the directive name must be one of the known set;
//   - func-doc directives (allocfree, seqlock, seqlock-pub, spsc-producer,
//     spsc-consumer, lock-rank) must sit on a function declaration's doc
//     comment — on a type, var, or free-floating line they bind to
//     nothing;
//   - arities: seqlock takes an epoch field and then any number of
//     stable-field names, seqlock-pub/lock-rank take exactly one argument,
//     allocfree and the spsc roles take none, pin-handoff and lock-handoff
//     need at least a location, and ignore needs an analyzer name AND a
//     written justification (a bare "//bfgts:ignore determinism" is
//     rejected — suppressions must say why);
//   - "// bfgts:..." with a space after // is flagged as malformed: that
//     is exactly what gofmt rewrites a non-directive-shaped form into,
//     leaving an annotation that looks alive but binds to nothing.
var Directives = &Analyzer{
	Name: "directives",
	Doc:  "every //bfgts: comment must name a known directive, sit in a legal position, and carry its required arguments",
	Run:  runDirectives,
}

// directiveSpec describes one known directive's placement and arity.
type directiveSpec struct {
	docOnly  bool // must be a FuncDecl doc comment
	minArgs  int
	maxArgs  int // -1: unbounded
	argsHint string
}

var knownDirectives = map[string]directiveSpec{
	"allocfree":     {docOnly: true, minArgs: 0, maxArgs: 0},
	"seqlock":       {docOnly: true, minArgs: 1, maxArgs: -1, argsHint: "<epochField> [<stableField>...]"},
	"seqlock-pub":   {docOnly: true, minArgs: 1, maxArgs: 1, argsHint: "<idxField>"},
	"spsc-producer": {docOnly: true, minArgs: 0, maxArgs: 0},
	"spsc-consumer": {docOnly: true, minArgs: 0, maxArgs: 0},
	"lock-rank":     {docOnly: true, minArgs: 1, maxArgs: 1, argsHint: "<slice>"},
	"pin-handoff":   {minArgs: 1, maxArgs: -1, argsHint: "<where>"},
	"lock-handoff":  {minArgs: 1, maxArgs: -1, argsHint: "<where>"},
	"ignore":        {minArgs: 2, maxArgs: -1, argsHint: "<analyzer> <justification>"},
}

func runDirectives(pass *Pass) error {
	for _, f := range pass.Files {
		// Comment groups serving as FuncDecl docs.
		funcDocs := map[*ast.CommentGroup]bool{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcDocs[fd.Doc] = true
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := commentText(c)
				rest, ok := strings.CutPrefix(text, "//bfgts:")
				if !ok {
					// "// bfgts:" is what gofmt turns a malformed
					// directive into (directive comments must have no
					// space after //) — the annotation looks alive but
					// binds to nothing.
					if after, spaced := strings.CutPrefix(text, "//"); spaced {
						if strings.HasPrefix(strings.TrimLeft(after, " \t"), "bfgts:") {
							pass.Reportf(c.Pos(), "malformed //bfgts: directive: no space allowed after // (gofmt mangles non-directive forms into this)")
						}
					}
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					pass.Reportf(c.Pos(), "empty //bfgts: directive")
					continue
				}
				name, args := fields[0], fields[1:]
				spec, known := knownDirectives[name]
				if !known {
					pass.Reportf(c.Pos(), "unknown directive //bfgts:%s; known: %s", name, knownDirectiveNames())
					continue
				}
				if spec.docOnly && !funcDocs[cg] {
					pass.Reportf(c.Pos(), "//bfgts:%s must be on a function declaration's doc comment; here it binds to nothing", name)
					continue
				}
				if len(args) < spec.minArgs || (spec.maxArgs >= 0 && len(args) > spec.maxArgs) {
					want := describeArity(spec)
					pass.Reportf(c.Pos(), "//bfgts:%s takes %s, got %d: //bfgts:%s %s", name, want, len(args), name, spec.argsHint)
				}
			}
		}
	}
	return nil
}

func describeArity(spec directiveSpec) string {
	switch {
	case spec.minArgs == spec.maxArgs && spec.minArgs == 0:
		return "no arguments"
	case spec.minArgs == spec.maxArgs:
		return pluralArgs(spec.minArgs)
	case spec.maxArgs < 0:
		return "at least " + pluralArgs(spec.minArgs)
	default:
		return pluralArgs(spec.minArgs) + " to " + pluralArgs(spec.maxArgs)
	}
}

func pluralArgs(n int) string {
	if n == 1 {
		return "1 argument"
	}
	return strconv.Itoa(n) + " arguments"
}

// knownDirectiveNames renders the sorted known-directive list for the
// unknown-directive message.
func knownDirectiveNames() string {
	names := make([]string, 0, len(knownDirectives))
	for name := range knownDirectives {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
