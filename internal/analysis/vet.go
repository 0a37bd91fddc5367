package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
)

// This file implements the go vet action protocol, so cmd/bfgtsvet can be
// run as `go vet -vettool=$(bfgtsvet) ./...` with the go command doing
// package loading, export-data generation, caching and scheduling. The
// protocol (cmd/go/internal/work.vetConfig) is:
//
//   - `tool -V=full` prints "name version <id>"; the go command uses the id
//     as the cache key, so it must change whenever the tool's behavior
//     does. We hash the tool's own binary.
//   - `tool -flags` prints a JSON description of supported analyzer flags.
//   - `tool path/to/vet.cfg` analyzes one package described by the JSON
//     config, writes the (opaque to the go command) facts file named by
//     VetxOutput, prints findings to stderr, and exits nonzero on findings.
//
// Dependencies are vetted first with VetxOnly=true to produce facts; none
// of this suite's analyzers use cross-package facts, so that path just
// writes an empty file. This mirrors x/tools' unitchecker, which the
// module cannot depend on.

// vetConfig matches the JSON written by cmd/go/internal/work.buildVetConfig.
type vetConfig struct {
	ID         string
	Compiler   string
	Dir        string
	ImportPath string
	GoFiles    []string
	NonGoFiles []string

	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool
	VetxOnly    bool
	VetxOutput  string
	GoVersion   string

	SucceedOnTypecheckFailure bool
}

// pinnedPackages are the import-path suffixes whose simulation output is
// pinned byte-identical at any -parallel level (ROADMAP; enforced at
// runtime by TestParallelMatchesSerial). The determinism analyzer runs
// only on these.
var pinnedPackages = []string{
	"internal/sim",
	"internal/tm",
	"internal/sched",
	"internal/harness",
	"internal/bloofi",
	"internal/decision",
	"internal/workload",
	"internal/stamp",
}

// isPinnedImportPath matches a package (or its test variants) against
// pinnedPackages.
func isPinnedImportPath(path string) bool {
	path = strings.TrimSuffix(path, ".test")
	path = strings.TrimSuffix(path, "_test")
	for _, p := range pinnedPackages {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

// jsonEnv is how -json survives the standalone mode's re-exec through the
// go command: the child tool invocations see the environment, not the
// original argv.
const jsonEnv = "BFGTSVET_JSON"

// VetMain is cmd/bfgtsvet's entry point. It never returns.
func VetMain() {
	args := os.Args[1:]
	jsonMode := os.Getenv(jsonEnv) == "1"
	kept := args[:0]
	for _, arg := range args {
		if arg == "-json" || arg == "--json" {
			jsonMode = true
			continue
		}
		kept = append(kept, arg)
	}
	args = kept
	for _, arg := range args {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			// The id keys go vet's result cache (which replays stderr), so
			// the output mode must be part of it.
			id := selfID()
			if jsonMode {
				id += "-json"
			}
			fmt.Printf("bfgtsvet version %s\n", id)
			os.Exit(0)
		case arg == "-flags" || arg == "--flags":
			fmt.Println("[]")
			os.Exit(0)
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		diags, err := RunVetConfig(args[0], os.Stderr, jsonMode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfgtsvet: %v\n", err)
			os.Exit(2)
		}
		if diags > 0 {
			os.Exit(1)
		}
		os.Exit(0)
	}
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bfgtsvet [packages]  (or via go vet -vettool)")
		os.Exit(2)
	}
	// Standalone convenience mode: `bfgtsvet ./...` re-execs the go
	// command with this binary as the vet tool, so users get the same
	// loading, caching and parallelism as the scripts/check.sh gate.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfgtsvet: %v\n", err)
		os.Exit(2)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool", self}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if jsonMode {
		cmd.Env = append(os.Environ(), jsonEnv+"=1")
	}
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "bfgtsvet: %v\n", err)
		os.Exit(2)
	}
	os.Exit(0)
}

// selfID returns a content hash of the running binary, so go vet's result
// cache is invalidated whenever the tool is rebuilt with different
// analyzers.
func selfID() string {
	path, err := os.Executable()
	if err != nil {
		return "v0-unknown"
	}
	f, err := os.Open(path)
	if err != nil {
		return "v0-unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "v0-unknown"
	}
	return fmt.Sprintf("v1-%x", h.Sum(nil)[:12])
}

// JSONDiagnostic is the machine-readable form of one finding, emitted one
// JSON object per line in -json mode for CI annotation tooling.
type JSONDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Encode renders the diagnostic as its single-line -json wire form.
func (d JSONDiagnostic) Encode() string {
	b, _ := json.Marshal(d)
	return string(b)
}

// ParseJSONDiagnostic decodes one -json output line.
func ParseJSONDiagnostic(line string) (JSONDiagnostic, error) {
	var d JSONDiagnostic
	if err := json.Unmarshal([]byte(line), &d); err != nil {
		return JSONDiagnostic{}, err
	}
	return d, nil
}

// FormatDiagnostic renders one finding for vet output: the classic
// "file:line:col: message (bfgtsvet/analyzer)" form, or the JSON wire form
// when jsonMode.
func FormatDiagnostic(pos token.Position, d Diagnostic, jsonMode bool) string {
	if jsonMode {
		return JSONDiagnostic{
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		}.Encode()
	}
	return fmt.Sprintf("%s: %s (bfgtsvet/%s)", pos, d.Message, d.Analyzer)
}

// RunVetConfig analyzes the single package described by a go vet config
// file, printing findings to w. It returns the number of findings.
func RunVetConfig(cfgPath string, w io.Writer, jsonMode bool) (int, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return 0, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("parsing %s: %v", cfgPath, err)
	}
	// The facts file must exist even when we have nothing to say: the go
	// command records it as the action's output for caching.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("bfgtsvet\n"), 0o666); err != nil {
			return 0, err
		}
	}
	if cfg.VetxOnly {
		return 0, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0, nil
			}
			return 0, err
		}
		files = append(files, f)
	}

	var typeErrs []error
	tcfg := types.Config{
		Importer: &vetImporter{cfg: &cfg, fset: fset},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	if cfg.GoVersion != "" {
		tcfg.GoVersion = cfg.GoVersion
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, _ := tcfg.Check(cfg.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, fmt.Errorf("typecheck %s: %v", cfg.ImportPath, typeErrs[0])
	}

	pinned := isPinnedImportPath(cfg.ImportPath)
	count := 0
	for _, a := range All() {
		if a.PinnedOnly && !pinned {
			continue
		}
		diags, err := Run(a, fset, files, pkg, info)
		if err != nil {
			return count, fmt.Errorf("%s: %v", a.Name, err)
		}
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			// Test files may allocate, shuffle, and time things freely;
			// the invariants guard shipped simulation code.
			if strings.HasSuffix(pos.Filename, "_test.go") {
				continue
			}
			fmt.Fprintln(w, FormatDiagnostic(pos, d, jsonMode))
			count++
		}
	}
	return count, nil
}

// vetImporter resolves imports through the export data files the go
// command already built, honoring the source-path -> canonical-path map
// (vendored std imports and the like).
type vetImporter struct {
	cfg  *vetConfig
	fset *token.FileSet
	gc   types.ImporterFrom
}

func (v *vetImporter) Import(path string) (*types.Package, error) {
	return v.ImportFrom(path, "", 0)
}

func (v *vetImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := v.cfg.ImportMap[path]; ok {
		path = mapped
	}
	if v.gc == nil {
		lookup := func(p string) (io.ReadCloser, error) {
			file, ok := v.cfg.PackageFile[p]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", p)
			}
			return os.Open(file)
		}
		v.gc = importer.ForCompiler(v.fset, "gc", lookup).(types.ImporterFrom)
	}
	return v.gc.ImportFrom(path, dir, mode)
}
