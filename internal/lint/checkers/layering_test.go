package checkers_test

import (
	"testing"

	"github.com/mssn/loopscope/internal/lint/checkers"
	"github.com/mssn/loopscope/internal/lint/linttest"
)

// layeringRules is the fixture module's allowed-import-edge table.
func layeringRules() map[string]checkers.Rule {
	return map[string]checkers.Rule{
		"rrc":   {Reason: "the message model is shared by both sides and must stay simulator-free"},
		"uesim": {Allow: []string{"rrc"}, Reason: "the simulator sits above the message model"},
		"core":  {Allow: []string{"rrc"}, Reason: "analysis consumes parsed logs, never simulator internals"},
	}
}

func TestLayeringViolation(t *testing.T) {
	a := checkers.Layering("app", layeringRules(), nil)
	linttest.Run(t, "app", fixture(t, "app"), []string{"internal/core"}, a)
}

func TestLayeringClean(t *testing.T) {
	a := checkers.Layering("app", layeringRules(), nil)
	linttest.Run(t, "app", fixture(t, "app"), []string{"internal/rrc"}, a)
}

func TestLayeringMissingRule(t *testing.T) {
	a := checkers.Layering("app", layeringRules(), nil)
	linttest.Run(t, "app", fixture(t, "app"), []string{"internal/rogue"}, a)
}

func TestLayeringExempt(t *testing.T) {
	// With rogue exempted, its missing table row is no longer a
	// finding — that would break the want expectation, so exemption is
	// asserted as a zero finding count on the ruleless package.
	a := checkers.Layering("app", layeringRules(), []string{"rogue"})
	linttest.RunExpectCount(t, "app", fixture(t, "app"), []string{"internal/rogue"}, 0, a)
}
