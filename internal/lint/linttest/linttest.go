// Package linttest is a small analysistest-style harness: it loads a
// testdata package, runs one analyzer over it, and checks the reported
// diagnostics against `// want "regexp"` comments in the sources.
package linttest

import (
	"go/ast"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/mssn/loopscope/internal/lint/analysis"
	"github.com/mssn/loopscope/internal/lint/driver"
	"github.com/mssn/loopscope/internal/lint/load"
)

// want is one expectation parsed from a `// want "..."` comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`// want (.+)$`)

// Run loads importPath from the GOPATH-style srcRoot and checks a's
// diagnostics against the package's want comments: every diagnostic
// must match a want on its line, and every want must be hit.
func Run(t *testing.T, srcRoot, importPath string, a *analysis.Analyzer) {
	t.Helper()
	loader, pkg, diags := runPackage(t, srcRoot, importPath, a)
	wants := collectWants(t, loader, pkg.Files)
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		ok := false
		for _, w := range wants {
			if w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// RunExpectNone loads importPath and asserts the analyzer reports
// nothing, ignoring any want comments — for fixtures whose findings a
// configuration change (scope, exemption) is expected to silence.
func RunExpectNone(t *testing.T, srcRoot, importPath string, a *analysis.Analyzer) {
	t.Helper()
	RunExpectCount(t, srcRoot, importPath, a, 0)
}

// RunExpectCount loads importPath and asserts the analyzer reports
// exactly n diagnostics, ignoring any want comments.
func RunExpectCount(t *testing.T, srcRoot, importPath string, a *analysis.Analyzer, n int) {
	t.Helper()
	loader, _, diags := runPackage(t, srcRoot, importPath, a)
	if len(diags) != n {
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			t.Logf("diagnostic at %s:%d: %s", pos.Filename, pos.Line, d.Message)
		}
		t.Errorf("%s on %s: got %d diagnostics, want %d", a.Name, importPath, len(diags), n)
	}
}

// runPackage loads importPath from the GOPATH-style srcRoot and runs a
// over it. The pass's call graph covers just the fixture package, so
// interprocedural analyzers see same-package chains; cross-package
// checks need RunModule.
func runPackage(t *testing.T, srcRoot, importPath string, a *analysis.Analyzer) (*load.Loader, *load.Package, []analysis.Diagnostic) {
	t.Helper()
	loader := load.New("loopvet.test/unused", srcRoot+"/unused-module-root")
	loader.ExtraRoots[""] = srcRoot
	pkg, err := loader.Load(importPath)
	if err != nil {
		t.Fatalf("load %s: %v", importPath, err)
	}
	graph := analysis.BuildCallGraph([]analysis.CGSource{{
		Path:  pkg.ImportPath,
		Files: pkg.Files,
		Pkg:   pkg.Types,
		Info:  pkg.Info,
	}})
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      loader.Fset,
		Files:     pkg.Files,
		Path:      pkg.ImportPath,
		Pkg:       pkg.Types,
		Info:      pkg.Info,
		CallGraph: graph,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	return loader, pkg, diags
}

func collectWants(t *testing.T, loader *load.Loader, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := loader.Fset.Position(c.Pos())
				for _, pat := range splitQuoted(m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitQuoted extracts the double-quoted patterns from a want payload,
// e.g. `"a" "b"` → [a b].
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		s = s[i+1:]
		j := strings.IndexByte(s, '"')
		if j < 0 {
			break
		}
		out = append(out, s[:j])
		s = s[j+1:]
	}
	if len(out) == 0 {
		// Unquoted single pattern.
		if t := strings.TrimSpace(s); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// RunModule runs analyzers through the full driver — every package of
// a testdata module, one module-wide call graph, waiver handling — and
// checks the surviving findings against `// want "regexp"` comments
// anywhere in the module's sources. This is the harness for
// cross-package checks (a unit type, launcher, lock contract or
// always-nil summary declared in one package and used in another) that
// the single-package Run cannot exercise.
func RunModule(t *testing.T, modulePath, moduleRoot string, analyzers []*analysis.Analyzer) {
	t.Helper()
	res, err := driver.Run(driver.Options{
		ModulePath: modulePath,
		ModuleRoot: moduleRoot,
		Patterns:   []string{"./..."},
		Analyzers:  analyzers,
	})
	if err != nil {
		t.Fatalf("driver on %s: %v", modulePath, err)
	}
	wants := collectModuleWants(t, moduleRoot)
	for _, f := range res.Findings {
		ok := false
		for _, w := range wants {
			if w.file == f.File && w.line == f.Line && w.re.MatchString(f.Message) {
				w.matched = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// collectModuleWants scans every non-test .go file under root for want
// comments, keyed by module-relative slash path to match the driver's
// Finding positions.
func collectModuleWants(t *testing.T, root string) []*want {
	t.Helper()
	var wants []*want
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, pat := range splitQuoted(m[1]) {
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", rel, i+1, pat, err)
				}
				wants = append(wants, &want{file: rel, line: i + 1, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}
