package driver_test

import (
	"path/filepath"
	"testing"

	"github.com/mssn/loopscope/internal/lint/checkers"
	"github.com/mssn/loopscope/internal/lint/linttest"
)

// TestCtxMod runs ctxflow over a module seeding every flagging path:
// context struct fields, Background/TODO re-roots, fresh roots handed
// to cross-package launchers (found by the call-graph launcher
// summary), and blocking loops that never observe ctx.Done. The
// cmd/ctxapp package proves the main exemption.
func TestCtxMod(t *testing.T) {
	linttest.Run(t, "ctxmod.example", abs(t, filepath.Join("testdata", "ctxmod")),
		[]string{"./..."}, checkers.CtxFlow())
}

// TestLockMod runs lockcheck over a module seeding unguarded reads (the
// failLocked shape), requires-contract violations, a provable
// self-deadlock, and malformed annotations — next to disciplined
// methods that must stay silent.
func TestLockMod(t *testing.T) {
	linttest.Run(t, "lockmod.example", abs(t, filepath.Join("testdata", "lockmod")),
		[]string{"./..."}, checkers.LockCheck())
}

// TestHotMod runs hotalloc over a module mixing function-level and
// package-clause //loopvet:hot scope with exempt twins (sized makes,
// hoisted closures, unmarked functions).
func TestHotMod(t *testing.T) {
	linttest.Run(t, "hotmod.example", abs(t, filepath.Join("testdata", "hotmod")),
		[]string{"./..."}, checkers.HotAlloc())
}
