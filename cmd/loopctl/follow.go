package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/mssn/loopscope"
)

// tailReader turns a capture file into a growing stream: at EOF it
// polls for appended bytes instead of ending, the `tail -f` posture.
// With idleExit > 0 the stream ends once the file has not grown for
// that long — the clean-shutdown knob tests and batch users need; with
// idleExit 0 it follows until the process is interrupted.
type tailReader struct {
	f        *os.File
	poll     time.Duration
	idleExit time.Duration
	idle     time.Duration
}

// Read implements io.Reader with tail-follow semantics.
func (t *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := t.f.Read(p)
		if n > 0 {
			t.idle = 0
			return n, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		if t.idleExit > 0 && t.idle >= t.idleExit {
			return 0, io.EOF
		}
		time.Sleep(t.poll)
		t.idle += t.poll
	}
}

// jsonFollowEvent is one incremental loop record on the -follow stream
// (JSON Lines, one object per event).
type jsonFollowEvent struct {
	Event       string   `json:"event"` // confirmed | rep | closed | eof
	AtS         float64  `json:"at_s"`
	Start       int      `json:"start,omitempty"`
	CycleLen    int      `json:"cycle_len,omitempty"`
	Reps        int      `json:"reps,omitempty"`
	Form        string   `json:"form,omitempty"` // closed only
	Subtype     string   `json:"subtype,omitempty"`
	Fingerprint string   `json:"fingerprint,omitempty"`
	CycleKeys   []string `json:"cycle_keys,omitempty"` // confirmed only
	AvgOnS      float64  `json:"avg_on_s,omitempty"`   // closed only
	AvgOffS     float64  `json:"avg_off_s,omitempty"`  // closed only
	Loops       int      `json:"loops,omitempty"`      // eof only
	Steps       int      `json:"steps,omitempty"`      // eof only
}

// followEnd closes a -follow stream once the capture has ended: an
// "eof" record with -json, a summary line otherwise.
func (a *app) followEnd(enc *json.Encoder, tl *loopscope.Timeline, loops int, sal *loopscope.Salvage) {
	if a.jsonOut {
		enc.Encode(jsonFollowEvent{
			Event: "eof",
			AtS:   tl.Duration.Seconds(),
			Loops: loops,
			Steps: len(tl.Steps),
		})
		return
	}
	fmt.Fprintf(a.stdout, "capture ended after %s: %d step(s), %d loop(s)\n",
		tl.Duration.Round(time.Millisecond), len(tl.Steps), loops)
	if !sal.Clean() {
		fmt.Fprintln(a.stdout, sal.Summary())
	}
}

// emitFollowEvent renders one detector event as the stream decides it:
// a "confirmed" record the moment a loop completes its second
// repetition, "rep" per further repetition, and "closed" when the form
// is final (II-SP at the breaking step, II-P at end of capture). Each
// is a JSON line with -json, a human-readable line otherwise.
func (a *app) emitFollowEvent(enc *json.Encoder, e loopscope.StreamLoopEvent) {
	l := e.Loop
	if a.jsonOut {
		je := jsonFollowEvent{
			Event:       e.Kind.String(),
			AtS:         e.At.Seconds(),
			Start:       l.Start,
			CycleLen:    l.CycleLen,
			Reps:        l.Reps,
			Subtype:     e.Subtype.String(),
			Fingerprint: l.Fingerprint(),
		}
		switch e.Kind {
		case loopscope.StreamLoopConfirmed:
			je.CycleKeys = l.CycleKeys()
		case loopscope.StreamLoopClosed:
			je.Form = l.Form.String()
			on, off := meanOnOff(l.Cycles())
			je.AvgOnS, je.AvgOffS = on.Seconds(), off.Seconds()
		case loopscope.StreamLoopRep:
			// reps and timing carry everything a repetition adds.
		}
		enc.Encode(je)
		return
	}
	switch e.Kind {
	case loopscope.StreamLoopConfirmed:
		fmt.Fprintf(a.stdout, "t=%-10s loop confirmed: %s, cycle of %d sets ×%d [%s]\n",
			e.At.Round(time.Millisecond), e.Subtype, l.CycleLen, l.Reps, l.Fingerprint())
		for _, k := range l.CycleKeys() {
			fmt.Fprintf(a.stdout, "             %s\n", k)
		}
	case loopscope.StreamLoopRep:
		fmt.Fprintf(a.stdout, "t=%-10s loop repeat: ×%d [%s]\n",
			e.At.Round(time.Millisecond), l.Reps, l.Fingerprint())
	case loopscope.StreamLoopClosed:
		fmt.Fprintf(a.stdout, "t=%-10s loop closed: %s (%s) ×%d [%s]\n",
			e.At.Round(time.Millisecond), e.Subtype, l.Form, l.Reps, l.Fingerprint())
	}
}
