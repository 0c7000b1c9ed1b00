package driver_test

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/mssn/loopscope/internal/lint/checkers"
	"github.com/mssn/loopscope/internal/lint/driver"
)

func abs(t *testing.T, rel string) string {
	t.Helper()
	p, err := filepath.Abs(rel)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSeededRegressions is the negative case behind the CI gate: a
// module seeded with one regression per analyzer must fail loopvet
// with exactly the expected findings.
func TestSeededRegressions(t *testing.T) {
	res, err := driver.Run(driver.Options{
		ModulePath: "badmod.example",
		ModuleRoot: abs(t, filepath.Join("testdata", "badmod")),
		Patterns:   []string{"./..."},
		Analyzers:  checkers.Suite("badmod.example"),
	})
	if err != nil {
		t.Fatal(err)
	}
	findings := res.Findings
	got := map[string]int{}
	for _, f := range findings {
		if filepath.IsAbs(f.File) {
			t.Errorf("finding path %q is absolute, want module-relative", f.File)
		}
		got[f.Analyzer]++
	}
	want := map[string]int{"determinism": 2, "layering": 1, "exhaustive": 1, "floatcmp": 1}
	for a, n := range want {
		if got[a] != n {
			t.Errorf("%s: got %d findings, want %d", a, got[a], n)
		}
	}
	if len(findings) != 5 {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Errorf("got %d findings, want 5", len(findings))
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("findings out of order: %s before %s", a, b)
		}
	}
}

// TestWaivers checks the //lint:ignore contract: a reasoned waiver
// suppresses its finding; a reasonless one is reported and suppresses
// nothing.
func TestWaivers(t *testing.T) {
	res, err := driver.Run(driver.Options{
		ModulePath: "waivermod.example",
		ModuleRoot: abs(t, filepath.Join("testdata", "waivermod")),
		Patterns:   []string{"./..."},
		Analyzers:  checkers.Suite("waivermod.example"),
	})
	if err != nil {
		t.Fatal(err)
	}
	findings := res.Findings
	if len(findings) != 2 {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want 2 (waiver + surviving floatcmp)", len(findings))
	}
	byAnalyzer := map[string]driver.Finding{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer] = f
	}
	w, ok := byAnalyzer["waiver"]
	if !ok {
		t.Fatal("reasonless waiver was not reported")
	}
	if !strings.Contains(w.Message, "needs a reason") {
		t.Errorf("waiver message = %q, want a needs-a-reason explanation", w.Message)
	}
	fc, ok := byAnalyzer["floatcmp"]
	if !ok {
		t.Fatal("float comparison under the reasonless waiver was suppressed")
	}
	// Same()'s reasoned waiver is earlier in the file; the surviving
	// comparison must be the one in Other(), after the bad waiver.
	if fc.Line <= w.Line {
		t.Errorf("surviving floatcmp at line %d, want after the reasonless waiver at line %d", fc.Line, w.Line)
	}
}

// TestRepoIsClean is the green gate: the repo's own tree must produce
// zero findings under the production suite.
func TestRepoIsClean(t *testing.T) {
	root := abs(t, filepath.Join("..", "..", ".."))
	res, err := driver.Run(driver.Options{
		ModulePath: "github.com/mssn/loopscope",
		ModuleRoot: root,
		Patterns:   []string{"./..."},
		Analyzers:  checkers.Suite("github.com/mssn/loopscope"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("unexpected finding: %s", f)
	}
}
