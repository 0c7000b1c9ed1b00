package checkers_test

import (
	"testing"

	"github.com/mssn/loopscope/internal/lint/checkers"
	"github.com/mssn/loopscope/internal/lint/linttest"
)

func TestErrFlowFlagging(t *testing.T) {
	linttest.Run(t, "errbad", fixture(t, "errbad"), []string{"."}, checkers.ErrFlow())
}

func TestErrFlowClean(t *testing.T) {
	linttest.Run(t, "errclean", fixture(t, "errclean"), []string{"."}, checkers.ErrFlow())
}
