package driver_test

import (
	"path/filepath"
	"testing"

	"github.com/mssn/loopscope/internal/lint/checkers"
	"github.com/mssn/loopscope/internal/lint/linttest"
)

// TestErrMod runs errflow through the full driver over a two-package
// module: the error sources live in store, every discard shape lives
// in app, so each finding proves the always-nil summaries and the
// bare/blank/never-read rules work across a package boundary. The
// fixture also carries one reasoned waiver the driver must honour.
func TestErrMod(t *testing.T) {
	linttest.Run(t, "errmod.example", abs(t, filepath.Join("testdata", "errmod")),
		[]string{"./..."}, checkers.ErrFlow())
}

// TestDetDeepMod runs the deep determinism check over a three-package
// module with the scope narrowed to internal/sim. sim imports only
// util — the wall-clock sink sits two calls away in clock — so every
// finding exists only because the taint summary travelled the module
// call graph: static calls, a reference-only dodge, function-value
// calls, interface dispatch onto a timer-arming implementation, and
// the reasoned/reasonless //loopvet:detsafe split.
func TestDetDeepMod(t *testing.T) {
	linttest.Run(t, "detdeep.example", abs(t, filepath.Join("testdata", "detdeepmod")),
		[]string{"./..."}, checkers.Determinism([]string{"internal/sim"}))
}
