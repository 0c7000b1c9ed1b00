package driver_test

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/mssn/loopscope/internal/lint/analysis"
	"github.com/mssn/loopscope/internal/lint/checkers"
	"github.com/mssn/loopscope/internal/lint/driver"
	"github.com/mssn/loopscope/internal/lint/linttest"
)

// TestUnitCheckSeeded checks the seeded unit mistakes — dB-vs-dBm and
// ms-vs-s conversions, a unit strip, an untyped-constant leak — against
// the fixture module's want comments, with the clean boundaries
// (injections, accessors, literals) staying silent.
func TestUnitCheckSeeded(t *testing.T) {
	linttest.Run(t, "unitmod.example", abs(t, filepath.Join("testdata", "unitmod")),
		[]string{"./..."}, checkers.UnitCheck())
}

// TestRngFlowSeeded checks the seeded nondeterministic sinks — a
// rand-valued map ranged straight into output, a goroutine-ordered
// append — with the sorted-emit and indexed-write patterns staying
// silent.
func TestRngFlowSeeded(t *testing.T) {
	linttest.Run(t, "rngmod.example", abs(t, filepath.Join("testdata", "rngmod")),
		[]string{"./..."}, checkers.RngFlow())
}

// TestUnitCheckCrossPackage requests only the consumer package: the
// unit types live in the internal/units dependency, which no analyzer
// runs over, so every finding proves unitcheck recognises them through
// go/types across the package boundary.
func TestUnitCheckCrossPackage(t *testing.T) {
	res, err := driver.Run(driver.Options{
		ModulePath: "unitmod.example",
		ModuleRoot: abs(t, filepath.Join("testdata", "unitmod")),
		Patterns:   []string{"internal/app"},
		Analyzers:  []*analysis.Analyzer{checkers.UnitCheck()},
	})
	if err != nil {
		t.Fatal(err)
	}
	findings := res.Findings
	if len(findings) != 4 {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want 4 (two cross-unit, one strip, one const leak)", len(findings))
	}
	for _, f := range findings {
		if f.Analyzer != "unitcheck" {
			t.Errorf("finding from %s, want unitcheck: %s", f.Analyzer, f)
		}
		if f.File != "internal/app/app.go" {
			t.Errorf("finding outside the requested package: %s", f)
		}
	}
}

// TestLockCheckCrossPackage requests only internal/client: the
// guarded-by, requires and locks annotations it breaks are declared in
// the internal/store dependency, so the three findings exist only if
// the contracts are indexed from every package of the call graph.
func TestLockCheckCrossPackage(t *testing.T) {
	res, err := driver.Run(driver.Options{
		ModulePath: "lockmod.example",
		ModuleRoot: abs(t, filepath.Join("testdata", "lockmod")),
		Patterns:   []string{"internal/client"},
		Analyzers:  []*analysis.Analyzer{checkers.LockCheck()},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"l.Total is guarded by Mu, which is not held here on any path",
		"AddLocked requires l.Mu held, and it is not held here on any path",
		"Add locks l.Mu, which is already held here on every path",
	}
	if len(res.Findings) != len(want) {
		for _, f := range res.Findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want %d (one per broken contract)", len(res.Findings), len(want))
	}
	for i, f := range res.Findings {
		if f.Analyzer != "lockcheck" || f.File != "internal/client/client.go" || !strings.Contains(f.Message, want[i]) {
			t.Errorf("finding %d = %s, want a lockcheck finding in internal/client/client.go matching %q", i, f, want[i])
		}
	}
}

// TestStaleWaivers checks both sides of the waiver-hygiene contract on
// the stalemod fixture: a waiver that suppresses a real finding is
// marked used, and one covering nothing becomes a loopvet/waiver
// finding so dead suppressions rot out of the tree.
func TestStaleWaivers(t *testing.T) {
	res, err := driver.Run(driver.Options{
		ModulePath: "stalemod.example",
		ModuleRoot: abs(t, filepath.Join("testdata", "stalemod")),
		Patterns:   []string{"./..."},
		Analyzers:  []*analysis.Analyzer{checkers.Floatcmp(nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 {
		for _, f := range res.Findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want 1 (the stale waiver)", len(res.Findings))
	}
	f := res.Findings[0]
	if f.Analyzer != "waiver" || !strings.Contains(f.Message, "stale waiver: loopvet/floatcmp") {
		t.Errorf("finding = %s, want a stale-waiver report for loopvet/floatcmp", f)
	}
	if len(res.Waivers) != 2 {
		t.Fatalf("waiver inventory has %d entries, want 2", len(res.Waivers))
	}
	if !res.Waivers[0].Used {
		t.Error("the waiver covering a real floatcmp finding is not marked used")
	}
	if res.Waivers[1].Used {
		t.Error("the waiver with nothing to suppress is marked used")
	}
	for _, w := range res.Waivers {
		if w.Reason == "" {
			t.Errorf("waiver at %s:%d has an empty reason in the inventory", w.File, w.Line)
		}
	}
}
