// Package linttest is a small analysistest-style harness: it runs
// analyzers over the packages of a fixture module through driver.Run,
// the path cmd/loopvet takes (pattern expansion, one module-wide call
// graph, waivers), and checks the findings against `// want "regexp"`
// comments in the requested packages' sources.
//
// A fixture module is any directory tree: its root and module path are
// arguments, so it needs no go.mod of its own.
package linttest

import (
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/mssn/loopscope/internal/lint/analysis"
	"github.com/mssn/loopscope/internal/lint/driver"
)

// want is one expectation parsed from a `// want "..."` comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`// want (.+)$`)

// Run runs analyzers over the packages patterns name in the module at
// moduleRoot and checks the findings against the want comments of
// those packages: every finding must match a want on its line, and
// every want must be hit.
func Run(t *testing.T, modulePath, moduleRoot string, patterns []string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	findings := run(t, modulePath, moduleRoot, patterns, analyzers)
	wants := collectWants(t, modulePath, moduleRoot, patterns)
	for _, f := range findings {
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

// RunExpectCount runs analyzers like Run and asserts exactly n
// findings, ignoring any want comments — for fixtures whose findings a
// configuration change (scope, exemption, approval) is expected to
// silence or add.
func RunExpectCount(t *testing.T, modulePath, moduleRoot string, patterns []string, n int, analyzers ...*analysis.Analyzer) {
	t.Helper()
	findings := run(t, modulePath, moduleRoot, patterns, analyzers)
	if len(findings) != n {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Errorf("%s %v: got %d findings, want %d", modulePath, patterns, len(findings), n)
	}
}

func run(t *testing.T, modulePath, moduleRoot string, patterns []string, analyzers []*analysis.Analyzer) []driver.Finding {
	t.Helper()
	res, err := driver.Run(driver.Options{
		ModulePath: modulePath,
		ModuleRoot: moduleRoot,
		Patterns:   patterns,
		Analyzers:  analyzers,
	})
	if err != nil {
		t.Fatalf("driver on %s: %v", modulePath, err)
	}
	return res.Findings
}

// collectWants scans the non-test .go files of the requested packages
// for want comments, keyed by module-relative slash path to match the
// driver's Finding positions.
func collectWants(t *testing.T, modulePath, root string, patterns []string) []*want {
	t.Helper()
	paths, err := driver.Expand(driver.Options{ModulePath: modulePath, ModuleRoot: root, Patterns: patterns})
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, p := range paths {
		dir := strings.TrimPrefix(strings.TrimPrefix(p, modulePath), "/")
		files, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(dir), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			rel := path.Join(dir, filepath.Base(file))
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
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
