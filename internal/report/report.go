// Package report renders a complete measurement-study report as
// markdown: every regenerated table and figure with its output lines,
// plus a summary header with the study's scale and headline metrics.
// cmd/campaign -report writes it to disk; it is the machine-generated
// counterpart of the repository's hand-written EXPERIMENTS.md.
package report

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/experiments"
)

// Write renders the report of the study st to w: the experiments ids
// names, in that order (unknown IDs are skipped), or every experiment
// for nil.
func Write(w io.Writer, st *campaign.Study, ids []string) error {
	ctx := experiments.NewContextWithStudy(st)
	if _, err := fmt.Fprint(w, "# 5G ON-OFF loop study — generated report\n\n"); err != nil {
		return err
	}
	if err := writeSummary(w, st); err != nil {
		return err
	}

	gens := experiments.All()
	if ids != nil {
		var filtered []experiments.Generator
		for _, id := range ids {
			if g, ok := experiments.ByID(id); ok {
				filtered = append(filtered, g)
			}
		}
		gens = filtered
	}
	for _, g := range gens {
		res := g.Run(ctx)
		if _, err := fmt.Fprintf(w, "## %s — %s\n\n```\n", res.ID, res.Title); err != nil {
			return err
		}
		for _, line := range res.Lines {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprint(w, "```\n\n"); err != nil {
			return err
		}
		if len(res.Values) > 0 {
			if _, err := fmt.Fprint(w, "Key metrics:\n\n"); err != nil {
				return err
			}
			keys := make([]string, 0, len(res.Values))
			for k := range res.Values {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if _, err := fmt.Fprintf(w, "- `%s` = %.4g\n", k, res.Values[k]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSummary prints the study-scale header.
func writeSummary(w io.Writer, st *campaign.Study) error {
	var runs, loops int
	forms := map[core.Form]int{}
	for _, rec := range st.Records("") {
		runs++
		if rec.HasLoop() {
			loops++
		}
		forms[rec.Form()]++
	}
	minutes := time.Duration(runs) * st.Opts.Duration / time.Minute
	_, err := fmt.Fprintf(w, `Seed %d · %d stationary runs of %s across %d areas (%d simulated minutes).
Loops detected in %d runs (%.1f%%): %d persistent, %d semi-persistent.

`,
		st.Opts.Seed, runs, st.Opts.Duration, len(st.Areas), minutes,
		loops, 100*float64(loops)/float64(runs),
		forms[core.FormPersistent], forms[core.FormSemiPersistent])
	return err
}
