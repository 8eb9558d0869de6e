// Package unit is the driver behind cmd/ascoma-vet. It implements the
// command-line protocol that `go vet -vettool=...` requires of an analysis
// tool, with no dependency beyond the standard library:
//
//	-V=full    print an executable fingerprint (for go's build cache)
//	-flags     print the supported flags as JSON (for go vet's flag parser)
//	foo.cfg    analyze the single compilation unit described by the JSON
//	           config file the go command writes (absolute Go file paths,
//	           an import map, and compiler-produced export data for every
//	           dependency — so type-checking here is exact and fast)
//
// Invoked any other way, the driver first runs the whole-program analyzers
// (hotpathflow, dirlint — they need every package and the
// call graph at once, which the per-unit protocol cannot provide) over the
// enclosing module, then re-executes itself through the go command
// (`go vet -vettool=<self> <packages>`) for the per-package analyzers,
// which gets package loading, build caching, and parallelism for free;
// `ascoma-vet ./...` therefore works standalone from a clean checkout and
// is the invocation make vet uses.
//
// Diagnostics are always emitted sorted by file, line, then column, so CI
// logs and golden vet output are stable across runs.
package unit

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"ascoma/internal/analysis"
	"ascoma/internal/analysis/program"
)

// config mirrors the fields of the JSON compilation-unit description the
// go command hands to a vet tool (cmd/go/internal/work.vetConfig). Unknown
// fields are ignored.
type config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main runs the driver and exits. unitAnalyzers run per compilation unit
// under the go vet protocol; programAnalyzers run once over the whole
// module in standalone mode (the .cfg protocol has no whole-program view,
// so their selection flags are accepted but inert there).
func Main(unitAnalyzers []*analysis.Analyzer, programAnalyzers []*program.Analyzer) {
	progname := filepath.Base(os.Args[0])

	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	version := fs.String("V", "", "print version and exit (-V=full, used by the go command)")
	printFlags := fs.Bool("flags", false, "print analyzer flags in JSON (used by the go command)")
	selected := make(map[string]*bool, len(unitAnalyzers)+len(programAnalyzers))
	for _, a := range unitAnalyzers {
		selected[a.Name] = fs.Bool(a.Name, false, "enable only the "+a.Name+" analyzer (default: all)")
	}
	for _, a := range programAnalyzers {
		selected[a.Name] = fs.Bool(a.Name, false, "enable only the "+a.Name+" analyzer (default: all)")
	}
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-<analyzer>...] [package pattern...]   # standalone, via go vet\n", progname)
		fmt.Fprintf(os.Stderr, "       %s help                                   # list analyzers\n", progname)
		fmt.Fprintf(os.Stderr, "       %s unit.cfg                               # go vet -vettool protocol\n", progname)
		os.Exit(2)
	}
	fs.Parse(os.Args[1:])

	if *version != "" {
		if *version != "full" {
			fmt.Fprintf(os.Stderr, "%s: unsupported flag value: -V=%s\n", progname, *version)
			os.Exit(1)
		}
		printVersion(progname)
		os.Exit(0)
	}
	if *printFlags {
		printFlagsJSON(fs)
		os.Exit(0)
	}

	// Honor explicit analyzer selection: if any analyzer flag is set, run
	// exactly the set ones.
	any := false
	for _, on := range selected {
		any = any || *on
	}
	if any {
		var keepUnit []*analysis.Analyzer
		for _, a := range unitAnalyzers {
			if *selected[a.Name] {
				keepUnit = append(keepUnit, a)
			}
		}
		unitAnalyzers = keepUnit
		var keepProg []*program.Analyzer
		for _, a := range programAnalyzers {
			if *selected[a.Name] {
				keepProg = append(keepProg, a)
			}
		}
		programAnalyzers = keepProg
	}

	args := fs.Args()
	switch {
	case len(args) == 1 && args[0] == "help":
		fmt.Printf("%s is the AS-COMA repository's analyzer suite. Analyzers:\n\n", progname)
		for _, a := range unitAnalyzers {
			fmt.Printf("  %-16s %s\n", a.Name, a.Doc)
		}
		for _, a := range programAnalyzers {
			fmt.Printf("  %-16s %s (whole-program)\n", a.Name, a.Doc)
		}
		fmt.Printf("\nRun it standalone (%s ./...) or as go vet -vettool=$(which %s) ./...\n", progname, progname)
		os.Exit(0)
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(runUnit(progname, args[0], unitAnalyzers))
	default:
		os.Exit(standalone(progname, fs, args, unitAnalyzers, programAnalyzers))
	}
}

// printVersion emits the fingerprint line the go command parses to include
// the tool's identity in its action cache key (see cmd/go .. buildid.go):
// field 2 must be "version" and a "devel" version must end in buildID=...
func printVersion(progname string) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Printf("%s version devel buildID=unknown\n", progname)
		return
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Printf("%s version devel buildID=unknown\n", progname)
		return
	}
	defer f.Close()
	h := sha256.New()
	_, _ = io.Copy(h, f) // a short read only degrades the fingerprint
	fmt.Printf("%s version devel buildID=%x\n", progname, h.Sum(nil)[:16])
}

// printFlagsJSON describes the tool's flags so go vet can parse and forward
// them (cmd/go/internal/vet expects [{Name,Bool,Usage}...]).
func printFlagsJSON(fs *flag.FlagSet) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	fs.VisitAll(func(f *flag.Flag) {
		if f.Name == "V" || f.Name == "flags" {
			return
		}
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		out = append(out, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, _ := json.MarshalIndent(out, "", "\t")
	_, _ = os.Stdout.Write(data)
	fmt.Println()
}

// sortDiagnostics orders findings by file, line, column, then message, so
// output is byte-stable run to run.
func sortDiagnostics(fset *token.FileSet, diags []analysis.Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Category != diags[j].Category {
			return diags[i].Category < diags[j].Category
		}
		return diags[i].Message < diags[j].Message
	})
}

func printDiagnostics(fset *token.FileSet, diags []analysis.Diagnostic) {
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", posn, d.Message, d.Category)
	}
}

// standalone runs the whole-program analyzers over the enclosing module,
// then re-executes through go vet so the go command drives the per-unit
// analyzers with package loading and caching.
func standalone(progname string, fs *flag.FlagSet, patterns []string, unitAnalyzers []*analysis.Analyzer, programAnalyzers []*program.Analyzer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	exit := 0
	if len(programAnalyzers) > 0 {
		code, err := runProgramAnalyzers(patterns, programAnalyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			return 1
		}
		if code != 0 {
			exit = code
		}
	}
	if len(unitAnalyzers) == 0 {
		return exit
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 1
	}
	goArgs := []string{"vet", "-vettool=" + exe}
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "V" && f.Name != "flags" {
			goArgs = append(goArgs, fmt.Sprintf("-%s=%s", f.Name, f.Value))
		}
	})
	goArgs = append(goArgs, patterns...)
	cmd := exec.Command("go", goArgs...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			if code := ee.ExitCode(); code != 0 {
				return code
			}
			return 1
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 1
	}
	return exit
}

// runProgramAnalyzers loads the module enclosing the working directory and
// applies the whole-program analyzers, keeping diagnostics whose file falls
// inside a package matched by the patterns.
func runProgramAnalyzers(patterns []string, analyzers []*program.Analyzer) (int, error) {
	root, err := moduleRoot()
	if err != nil {
		// Outside a module there is no program to load; the per-unit
		// analyzers still run through go vet.
		fmt.Fprintf(os.Stderr, "warning: %v; skipping whole-program analyzers\n", err)
		return 0, nil
	}
	prog, err := program.Load(root)
	if err != nil {
		return 0, err
	}
	diags, err := program.RunAnalyzers(prog, analyzers)
	if err != nil {
		return 0, err
	}

	match := patternMatcher(prog.ModulePath, patterns)
	keepDirs := make(map[string]bool)
	for _, pkg := range prog.Pkgs {
		if match(pkg.Path) {
			keepDirs[pkg.Dir] = true
		}
	}
	var kept []analysis.Diagnostic
	for _, d := range diags {
		if keepDirs[filepath.Dir(prog.Fset.Position(d.Pos).Filename)] {
			kept = append(kept, d)
		}
	}
	sortDiagnostics(prog.Fset, kept)
	printDiagnostics(prog.Fset, kept)
	if len(kept) > 0 {
		return 1, nil
	}
	return 0, nil
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// patternMatcher interprets go-style package patterns ("./...",
// "./internal/machine", "ascoma/internal/...") against import paths.
func patternMatcher(modpath string, patterns []string) func(string) bool {
	type rule struct {
		path    string
		subtree bool
	}
	var rules []rule
	for _, p := range patterns {
		subtree := false
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			subtree = true
			p = rest
		} else if p == "..." {
			subtree = true
			p = "."
		}
		if rest, ok := strings.CutPrefix(p, "./"); ok {
			p = rest
		}
		switch p {
		case ".", "":
			p = modpath
		default:
			if p != modpath && !strings.HasPrefix(p, modpath+"/") {
				p = modpath + "/" + filepath.ToSlash(p)
			}
		}
		rules = append(rules, rule{path: p, subtree: subtree})
	}
	return func(pkgPath string) bool {
		for _, r := range rules {
			if pkgPath == r.path {
				return true
			}
			if r.subtree && strings.HasPrefix(pkgPath, r.path+"/") {
				return true
			}
		}
		return false
	}
}

// runUnit analyzes one compilation unit per the vet.cfg protocol.
func runUnit(progname, cfgFile string, analyzers []*analysis.Analyzer) int {
	cfg, err := readConfig(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 1
	}

	// The tool computes no cross-package facts, so a facts-only run has
	// nothing to do beyond recording an (empty) output for go's cache.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			_ = os.WriteFile(cfg.VetxOutput, []byte{}, 0o666) // best effort: go treats a missing vetx as a cache miss
		}
	}
	if cfg.VetxOnly {
		writeVetx()
		return 0
	}
	var active []*analysis.Analyzer
	for _, a := range analyzers {
		if a.AppliesTo(cfg.ImportPath) {
			active = append(active, a)
		}
	}
	if len(active) == 0 {
		writeVetx()
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				return 0
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			return 1
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	compilerImporter := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			path = importPath
		}
		return compilerImporter.Import(path)
	})

	sizes := types.SizesFor(compiler, envOr("GOARCH", runtime.GOARCH))
	if sizes == nil {
		sizes = types.SizesFor("gc", runtime.GOARCH)
	}
	tconf := &types.Config{
		Importer:  imp,
		Sizes:     sizes,
		GoVersion: cfg.GoVersion,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		fmt.Fprintf(os.Stderr, "%s: typecheck %s: %v\n", progname, cfg.ImportPath, err)
		return 1
	}

	// The analyzers vet production code only: test files take part in
	// type-checking above but are excluded from the pass.
	var analyzed []*ast.File
	for _, f := range files {
		if name := fset.Position(f.Pos()).Filename; !strings.HasSuffix(name, "_test.go") {
			analyzed = append(analyzed, f)
		}
	}

	exit := 0
	var diags []analysis.Diagnostic
	for _, a := range active {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     analyzed,
			Pkg:       pkg,
			TypesInfo: info,
		}
		pass.Report = func(d analysis.Diagnostic) {
			diags = append(diags, d)
			exit = 1
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "%s: analyzer %s: %v\n", progname, a.Name, err)
			exit = 1
		}
	}
	sortDiagnostics(fset, diags)
	printDiagnostics(fset, diags)

	writeVetx()
	return exit
}

func readConfig(filename string) (*config, error) {
	data, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	cfg := new(config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("cannot decode vet config %s: %v", filename, err)
	}
	if len(cfg.GoFiles) == 0 {
		return nil, fmt.Errorf("package has no files: %s", cfg.ImportPath)
	}
	return cfg, nil
}

func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
