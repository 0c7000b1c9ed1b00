package checkers_test

import (
	"path/filepath"
	"testing"

	"github.com/mssn/loopscope/internal/lint/checkers"
	"github.com/mssn/loopscope/internal/lint/linttest"
)

// fixture returns the root of the fixture module testdata/src/<name>,
// whose module path is name.
func fixture(t *testing.T, name string) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func TestDeterminismFlagging(t *testing.T) {
	scope := []string{"detbad", "detclean"}
	linttest.Run(t, "detbad", fixture(t, "detbad"), []string{"."}, checkers.Determinism(scope))
}

func TestDeterminismClean(t *testing.T) {
	scope := []string{"detbad", "detclean"}
	linttest.Run(t, "detclean", fixture(t, "detclean"), []string{"."}, checkers.Determinism(scope))
}

func TestDeterminismScope(t *testing.T) {
	// detscopeless reads the wall clock, but its package is not in the
	// configured scope, so the analyzer must stay silent.
	scope := []string{"detbad", "detclean"}
	linttest.Run(t, "detscopeless", fixture(t, "detscopeless"), []string{"."}, checkers.Determinism(scope))
}
