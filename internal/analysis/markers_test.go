package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// gateEntryPoints maps each package with a Test*AllocFree runtime gate to
// the hot-path functions that gate drives. Every one of them must carry the
// //bfgts:allocfree directive, so the static analyzer and the runtime
// testing.AllocsPerRun gates pin the same set of functions: the analyzer
// explains *why* a gate regressed, and the gate catches allocation sources
// (map growth, runtime-internal paths) the analyzer cannot see.
var gateEntryPoints = map[string][]string{
	"tm": { // TestTxLifecycleAllocFree / TestShardHotPathAllocFree (via processDrained)
		"Begin", "Access", "Commit", "Abort", "release", "Unpin",
		"add", "has", "each", "appendTo", "intersects", "reset",
		"LineWriteHeld",
	},
	"sim": { // TestEngineDispatchAllocFree / TestShardHotPathAllocFree
		"AtHandle", "AfterHandle", "atOp", "afterOp", "Step", "push", "pop",
		"Publish", "MinOther", "probeShared", "drainInbound",
		"processDrained", "waitHorizon", "inboundEmpty",
	},
	"bloom": { // TestEq3EstimateAllocFree
		"EstimateCardinality", "EstimateIntersection",
		"EstimateIntersectionErrorInto",
	},
	"bloofi": { // TestBloofiTreeAllocFree / TestAtomicTreeAllocFree
		"Insert", "Remove", "Set", "Clear", "Len", "Occupied",
		"OccupiedBefore", "alloc", "release", "repair", "lock", "unlock",
		"Reset", "Next", "Nodes", "Candidates", "matchesAny", "hasKey",
	},
	"stm": { // TestReadOnlyPathAllocFree / TestAbortRetryPathAllocFree / TestCommitPathAllocs / TestPredictPathAllocFree
		"Read", "Write", "begin", "abortOn", "commit", "reset", "commitFail",
		"writeSetHas", "readVersionOf", "lookupRead", "lookupWrite",
		"appendRead", "appendWrite", "sortWrites", "commitBookkeeping",
		"abandon", "unwindCells", "poolOf", "take", "put",
		"install", "discard", "vet",
		"OnBegin", "OnAbort", "OnCommit", "predict", "suspend", "stallOn",
		"republish", "validate", "backoff", "jitter", "enemyDTx",
		"decShard", "decNow", "settleSuspension", "onLeave", "setRunning",
	},
	"stamp": { // TestStampNextAllocFree
		"Next", "tx", "read", "write", "readSpan", "build", "onCommit",
	},
	"decision": { // TestDecisionHotPathAllocFree / TestDecisionRecordingAllocFreeLive
		"Add", "SetWait", "Resolve", "SetEnemy", "Shard",
	},
}

// TestAllocFreeMarkersMatchRuntimeGates fails when a runtime-gated hot-path
// function loses its //bfgts:allocfree annotation (or is renamed without
// updating this table), keeping static and runtime enforcement in lockstep.
func TestAllocFreeMarkersMatchRuntimeGates(t *testing.T) {
	for pkg, fns := range gateEntryPoints {
		annotated := annotatedFuncs(t, filepath.Join("..", pkg))
		for _, fn := range fns {
			if !annotated[fn] {
				t.Errorf("internal/%s: %s is exercised by a Test*AllocFree gate but has no //bfgts:%s directive",
					pkg, fn, analysis.AllocFreeDirective)
			}
		}
	}
}

// annotatedFuncs parses a package directory's non-test sources and returns
// the names of functions whose doc comment carries //bfgts:allocfree.
func annotatedFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no sources in %s: %v", dir, err)
	}
	out := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if rest, ok := strings.CutPrefix(c.Text, "//bfgts:"); ok {
					if fields := strings.Fields(rest); len(fields) > 0 && fields[0] == analysis.AllocFreeDirective {
						out[fd.Name.Name] = true
					}
				}
			}
		}
	}
	return out
}
