package checkers_test

import (
	"testing"

	"github.com/mssn/loopscope/internal/lint/checkers"
	"github.com/mssn/loopscope/internal/lint/linttest"
)

func TestExhaustiveFlagging(t *testing.T) {
	a := checkers.Exhaustive([]checkers.Enum{{Pkg: "exhaustbad", Type: "Kind"}})
	linttest.Run(t, "exhaustbad", fixture(t, "exhaustbad"), []string{"."}, a)
}

func TestExhaustiveClean(t *testing.T) {
	a := checkers.Exhaustive([]checkers.Enum{{Pkg: "exhaustclean", Type: "Kind"}})
	linttest.Run(t, "exhaustclean", fixture(t, "exhaustclean"), []string{"."}, a)
}

func TestExhaustiveUnlistedEnum(t *testing.T) {
	// The flagging fixture is silent when its type is not in the
	// closed-enum list — only listed enums are constrained.
	a := checkers.Exhaustive([]checkers.Enum{{Pkg: "exhaustclean", Type: "Kind"}})
	linttest.RunExpectCount(t, "exhaustbad", fixture(t, "exhaustbad"), []string{"."}, 0, a)
}
