package campaign

import (
	"io"

	"github.com/mssn/loopscope/internal/deploy"
)

// Sink consumes study records as they complete, so a campaign can
// stream its results out instead of materializing them. The engine
// guarantees deterministic delivery: areas arrive in study order, and
// within an area records arrive in slot order (locations in order,
// run index in order) regardless of the worker count — a completed
// out-of-order record is held back until its predecessors are
// delivered. Cancelled runs are never delivered; after a cancellation
// or injected crash, delivery stops entirely and the partial output is
// superseded by the resumed study's.
//
// Sink methods are always called from one goroutine at a time; an
// error aborts the study.
type Sink interface {
	// BeginArea announces the next area before any of its records.
	BeginArea(spec deploy.AreaSpec, dep *deploy.Deployment) error
	// Record delivers one completed run record. The engine does not
	// retain the record afterwards (streaming callers own it).
	Record(rec *Record) error
}

// JSONLSink streams each record as one line of codec JSON (see
// EncodeRecord and docs/FORMAT.md, "Checkpoint artifacts"). Lines are
// written with a single Write call per record and no userspace
// buffering, so a killed campaign leaves a clean line boundary. The
// sink does not close w; the caller owns the file's lifecycle.
type JSONLSink struct {
	w io.Writer
}

// NewJSONLSink returns a sink writing records to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// BeginArea implements Sink; area boundaries are implicit in the
// records' own Op/Area fields, so nothing is written.
func (s *JSONLSink) BeginArea(spec deploy.AreaSpec, dep *deploy.Deployment) error { return nil }

// Record implements Sink.
func (s *JSONLSink) Record(rec *Record) error {
	b, err := EncodeRecord(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = s.w.Write(b)
	return err
}
