package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/checkpoint"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/uesim"
)

// poisonEntry is what poisonSink writes over every lent entry: a cell
// no cluster has, measured at the floor of both scales, so a consumer
// that kept the borrowed slice would report it as an unmeasured, poor
// and weakest SCell.
var poisonEntry = rrc.MeasEntry{Cell: cell.Ref{PCI: 1007, Channel: 1}, Role: "poison",
	Meas: meas.Measurement{RSRPDBm: -156, RSRQDB: -43}}

// poisonSink hands each event to next and, once Append has returned,
// overwrites the entries of a measurement report: the worst a producer
// may do to the buffer it lent (see sig.Sink).
type poisonSink struct{ next sig.Sink }

func (p poisonSink) Append(at time.Duration, m rrc.Message) {
	p.next.Append(at, m)
	if mr, ok := m.(rrc.MeasReport); ok {
		for i := range mr.Entries {
			mr.Entries[i] = poisonEntry
		}
	}
}

// pipelineResult is what one run's pipeline produces.
type pipelineResult struct {
	tl   *trace.Timeline
	an   core.Analysis
	meas int
}

// runPipeline feeds a producer into the campaign's run pipeline (a
// runSink over a trace.Builder teed into a core.StreamDetector),
// poisoning every report's entries after the pipeline's Append when
// poison is set.
func runPipeline(t *testing.T, poison bool, produce func(sig.Sink) error) pipelineResult {
	t.Helper()
	tb := trace.NewBuilder()
	sd := core.NewStreamDetector(core.StreamConfig{})
	tb.TeeSteps(sd.Push)
	rs := &runSink{tb: tb}
	var sink sig.Sink = rs
	if poison {
		sink = poisonSink{next: rs}
	}
	if err := produce(sink); err != nil {
		t.Fatal(err)
	}
	tl := tb.Finish()
	return pipelineResult{tl: tl, an: sd.FinishAnalysis(tl), meas: rs.meas}
}

// samePipeline runs a producer through the pipeline with and without
// poisoning and requires the same timeline, analysis and entry count.
// It reports whether the timeline carries measurement evidence, the
// part of it a kept borrowed slice would corrupt.
func samePipeline(t *testing.T, name string, produce func(sig.Sink) error) bool {
	t.Helper()
	clean, poisoned := runPipeline(t, false, produce), runPipeline(t, true, produce)
	if !reflect.DeepEqual(clean.tl, poisoned.tl) {
		t.Errorf("%s: poisoning lent entries after Append changed the timeline", name)
	}
	if !reflect.DeepEqual(clean.an, poisoned.an) {
		t.Errorf("%s: poisoning lent entries after Append changed the analysis", name)
	}
	if clean.meas != poisoned.meas {
		t.Errorf("%s: entry count %d poisoned, %d clean", name, poisoned.meas, clean.meas)
	}
	for _, s := range clean.tl.Steps {
		if s.Evidence.HasSCellReport() || len(s.Evidence.UnmeasuredSCells) > 0 {
			return true
		}
	}
	return false
}

// TestPipelineOnlyBorrowsEntries: the run pipeline reads a report's
// entries only during Append. A sink that overwrites them as soon as
// Append returns leaves every timeline and analysis unchanged, for
// simulated runs of every area's clusters and for parsed captures.
func TestPipelineOnlyBorrowsEntries(t *testing.T) {
	simulated, parsed := 0, 0
	for _, spec := range deploy.Areas() {
		dep := deploy.Build(policy.ByName(spec.Operator), spec, 43)
		for i, cl := range dep.Clusters {
			cfg := uesim.Config{Op: dep.Op, Field: dep.Field, Cluster: cl,
				Duration: 5 * time.Minute, Seed: int64(i)}
			if samePipeline(t, spec.ID+"/"+cl.Arch.String(), func(s sig.Sink) error {
				return uesim.RunToContext(context.Background(), cfg, s)
			}) {
				simulated++
			}
		}
	}
	captures, err := filepath.Glob(filepath.Join("..", "sig", "testdata", "*.log"))
	if err != nil || len(captures) == 0 {
		t.Fatalf("no captures in internal/sig/testdata (%v)", err)
	}
	for _, path := range captures {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if samePipeline(t, filepath.Base(path), func(s sig.Sink) error {
			_, err := sig.ParseTo(bytes.NewReader(data), true, nil, s)
			return err
		}) {
			parsed++
		}
	}
	if simulated == 0 || parsed == 0 {
		t.Fatalf("%d simulated runs and %d captures carry measurement evidence; the test needs both to exercise lent entries",
			simulated, parsed)
	}
}

// TestResumeOnlyBorrowsPayloads: a resume reads each journal entry's
// payload only while the journal lends it. Overwriting every lent
// payload as soon as the resume has taken it leaves the study
// deep-equal to an untouched resume of the same journal, with a record
// read through the encoding/json fallback from a line longer than the
// journal's read window among them.
func TestResumeOnlyBorrowsPayloads(t *testing.T) {
	opts := tinyOpts()
	want := runOPT(t, opts)
	path, _ := journalWithLongLine(t, opts, want, 3)
	copyPath := filepath.Join(t.TempDir(), "copy.ckpt")
	data, err := os.ReadFile(path)
	if err == nil {
		err = os.WriteFile(copyPath, data, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	clean, _, err := resumeOPT(t, opts, path)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := 0
	testHookLent = func(e checkpoint.Entry) {
		for i := range e.Payload {
			e.Payload[i] = '#'
		}
		poisoned++
	}
	defer func() { testHookLent = nil }()
	st, _, err := resumeOPT(t, opts, copyPath)
	if err != nil {
		t.Fatal(err)
	}
	if poisoned != 5 {
		t.Fatalf("%d payloads poisoned, want the header and 4 records", poisoned)
	}
	if !reflect.DeepEqual(clean.Areas, st.Areas) || !reflect.DeepEqual(want.Areas, st.Areas) {
		t.Fatal("poisoning lent payloads after they were replayed changed the resumed study")
	}
}
