package main

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"github.com/mssn/loopscope"
	"github.com/mssn/loopscope/internal/checkpoint"
)

// fig6Args returns the golden-pinned study flags plus extras.
func fig6Args(extra ...string) []string {
	return append(append(append([]string{}, goldenArgs...), "-exp", "fig6"), extra...)
}

// readGolden loads an experiment golden.
func readGolden(t *testing.T, exp string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", exp+".golden"))
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	return want
}

// TestCheckpointedRunMatchesGolden: journaling every run does not
// change a single output byte, and the journal is created.
func TestCheckpointedRunMatchesGolden(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "study.ckpt")
	var stdout, stderr bytes.Buffer
	if code := run(fig6Args("-checkpoint", ckpt), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), readGolden(t, "fig6")) {
		t.Error("-checkpoint changed the experiment output")
	}
	if fi, err := os.Stat(ckpt); err != nil || fi.Size() == 0 {
		t.Fatalf("journal not written: %v", err)
	}

	// A complete journal resumes to the same bytes without re-running.
	var resumed, rerr bytes.Buffer
	if code := run(fig6Args("-checkpoint", ckpt, "-resume", "-workers", "4"), &resumed, &rerr); code != 0 {
		t.Fatalf("resume exit %d, stderr: %s", code, rerr.String())
	}
	if !bytes.Equal(resumed.Bytes(), readGolden(t, "fig6")) {
		t.Error("resumed output diverged from the golden")
	}

	// Without -resume the populated journal is refused.
	var out, serr bytes.Buffer
	if code := run(fig6Args("-checkpoint", ckpt), &out, &serr); code != 1 {
		t.Fatalf("reusing the journal without -resume: exit %d, want 1", code)
	}
	if !strings.Contains(serr.String(), "-resume") {
		t.Errorf("refusal does not mention -resume: %s", serr.String())
	}
}

// TestResumeWithoutCheckpointIsUsageError: -resume alone is a usage
// error, not a silent fresh run.
func TestResumeWithoutCheckpointIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(fig6Args("-resume"), &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestResumeRejectsLoopOutsideTimeline: a journal whose lines all carry
// valid checksums, but one of whose records places a loop far outside
// its timeline, is refused on -resume with an error naming the entry.
// It used to be replayed, and fig10's cycle statistics then indexed
// past the timeline and panicked.
func TestResumeRejectsLoopOutsideTimeline(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "study.ckpt")
	args := append(append([]string{}, goldenArgs...), "-exp", "fig10", "-checkpoint", ckpt)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	// Rewrite the journal through the checkpoint writer, so every line
	// keeps a valid checksum, with the first loop's start moved to step
	// 100000.
	jr, entries, _, err := checkpoint.Open(ckpt)
	if err == nil {
		err = errors.Join(jr.Close(), os.Remove(ckpt))
	}
	if err == nil {
		jr, _, _, err = checkpoint.Open(ckpt)
	}
	if err != nil {
		t.Fatal(err)
	}
	firstLoop := regexp.MustCompile(`"loops":\[\{"start":\d+`)
	edited := ""
	for _, e := range entries {
		p := e.Payload
		if edited == "" && firstLoop.Match(p) {
			edited = e.Key
			p = firstLoop.ReplaceAll(p, []byte(`"loops":[{"start":100000`))
		}
		if err := jr.Append(e.Key, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if edited == "" {
		t.Fatal("no journaled record has a loop; the fixture no longer exercises the check")
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(append(args, "-resume"), &stdout, &stderr); code != 1 {
		t.Fatalf("resume exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, strconv.Quote(edited)) || !strings.Contains(msg, "start 100000") {
		t.Errorf("refusal does not name entry %q and the bad loop: %s", edited, msg)
	}
}

// TestSinkStreamsDecodableRecords: -sink writes one decodable JSON
// line per run, identical at any worker count.
func TestSinkStreamsDecodableRecords(t *testing.T) {
	render := func(workers string) []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), "records.jsonl")
		var stdout, stderr bytes.Buffer
		if code := run(fig6Args("-sink", path, "-workers", workers), &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), readGolden(t, "fig6")) {
			t.Error("-sink changed the experiment output")
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	seq := render("1")
	sc := bufio.NewScanner(bytes.NewReader(seq))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lines := 0
	for sc.Scan() {
		if _, err := loopscope.DecodeStudyRecord(sc.Bytes()); err != nil {
			t.Fatalf("line %d does not decode: %v", lines+1, err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("sink is empty")
	}
	if par := render("4"); !bytes.Equal(seq, par) {
		t.Error("sink stream differs between 1 and 4 workers")
	}
}

// TestHelperProcess re-executes the test binary as the campaign CLI;
// only the SIGTERM e2e below spawns it. Once run holds its signal
// context, the child closes its first extra file (fd 3), the pipe its
// parent waits on before signalling.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("CAMPAIGN_E2E_CHILD") != "1" {
		t.Skip("helper process, not a test")
	}
	ready := os.NewFile(3, "ready")
	signalsHeld = func() { ready.Close() }
	os.Exit(run(strings.Split(os.Getenv("CAMPAIGN_E2E_ARGS"), "\x1f"), os.Stdout, os.Stderr))
}

// TestSIGTERMKillAndResume is the subprocess half of the crash-recovery
// e2e: a real campaign process is sent SIGTERM once it holds its signal
// context, must exit with the interrupted code, and a -resume run over
// the surviving journal must reproduce the golden bytes exactly. The
// test is robust to scheduling: if the child finishes before the signal
// lands, its output is checked against the golden and the resume still
// runs (a complete journal resumes to identical bytes too).
func TestSIGTERMKillAndResume(t *testing.T) {
	for _, workers := range []string{"1", "4"} {
		t.Run("workers="+workers, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "study.ckpt")
			args := fig6Args("-checkpoint", ckpt, "-workers", workers)
			child := exec.Command(os.Args[0], "-test.run=TestHelperProcess")
			child.Env = append(os.Environ(),
				"CAMPAIGN_E2E_CHILD=1",
				"CAMPAIGN_E2E_ARGS="+strings.Join(args, "\x1f"))
			var childOut, childErr bytes.Buffer
			child.Stdout, child.Stderr = &childOut, &childErr
			ready, readyW, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			defer ready.Close()
			child.ExtraFiles = []*os.File{readyW}
			err = child.Start()
			readyW.Close() // the child holds the only write end now
			if err != nil {
				t.Fatal(err)
			}
			// The read returns io.EOF once the child closes its end,
			// when its signal context is in place, or when it exits.
			_, _ = ready.Read(make([]byte, 1))
			_ = child.Process.Signal(syscall.SIGTERM)
			err = child.Wait()
			switch code := child.ProcessState.ExitCode(); code {
			case 0:
				// Finished before the signal: output must already be golden.
				if !bytes.Equal(childOut.Bytes(), readGolden(t, "fig6")) {
					t.Fatalf("uninterrupted child output diverged from golden (err=%v)", err)
				}
			case exitInterrupted:
				if !strings.Contains(childErr.String(), "-resume") {
					t.Fatalf("interrupted child did not point at -resume:\n%s", childErr.String())
				}
			default:
				t.Fatalf("child exit %d, want 0 or %d; stderr:\n%s", code, exitInterrupted, childErr.String())
			}

			var resumed, rerr bytes.Buffer
			if code := run(fig6Args("-checkpoint", ckpt, "-resume", "-workers", workers), &resumed, &rerr); code != 0 {
				t.Fatalf("resume exit %d, stderr: %s", code, rerr.String())
			}
			if !bytes.Equal(resumed.Bytes(), readGolden(t, "fig6")) {
				t.Error("resumed output diverged from the golden after SIGTERM")
			}
		})
	}
}
