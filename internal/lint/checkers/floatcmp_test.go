package checkers_test

import (
	"testing"

	"github.com/mssn/loopscope/internal/lint/checkers"
	"github.com/mssn/loopscope/internal/lint/linttest"
)

func TestFloatcmpFlagging(t *testing.T) {
	a := checkers.Floatcmp([]string{"floatclean.ApproxEqual"})
	linttest.Run(t, "floatbad", fixture(t, "floatbad"), []string{"."}, a)
}

func TestFloatcmpClean(t *testing.T) {
	a := checkers.Floatcmp([]string{"floatclean.ApproxEqual"})
	linttest.Run(t, "floatclean", fixture(t, "floatclean"), []string{"."}, a)
}

func TestFloatcmpUnapprovedHelper(t *testing.T) {
	// Without the approval entry, even the epsilon helper's own body
	// is flagged — approval is explicit, not name-based.
	// The clean fixture's ApproxEqual contains one == on float64.
	linttest.RunExpectCount(t, "floatclean", fixture(t, "floatclean"), []string{"."}, 1, checkers.Floatcmp(nil))
}
