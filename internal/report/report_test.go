package report

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/campaign"
)

func TestWriteReport(t *testing.T) {
	st, err := campaign.RunContext(context.Background(),
		campaign.Options{Seed: 3, Duration: 120 * time.Second, RunScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Write(&b, st, []string{"table4", "fig13"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# 5G ON-OFF loop study — generated report\n",
		"stationary runs",
		"## table4",
		"## fig13",
		"OnePlus 12R",
		"Key metrics:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "## fig22") {
		t.Error("filtered report should not include fig22")
	}
}

func TestWriteReportDefaultTitle(t *testing.T) {
	st, err := campaign.RunContext(context.Background(),
		campaign.Options{Seed: 3, Duration: 90 * time.Second, RunScale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Write(&b, st, []string{"table4"}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "# 5G ON-OFF loop study") {
		t.Error("default title missing")
	}
}
