// Command loopvet runs the repo's custom static-analysis suite — the
// determinism, errflow, layering, exhaustive, floatcmp, unitcheck,
// rngflow, ctxflow, lockcheck and hotalloc analyzers — over the
// module. It is the machine check behind the invariants the compiler
// cannot see: bit-reproducible replay from a seed, no silently dropped
// errors, the §4 log-only methodology boundary, exhaustive handling of
// the §5 cause taxonomy, the typed-unit discipline of internal/units,
// rand-derived data never escaping through unordered containers,
// context propagation, annotated mutex discipline, and allocation-free
// hot paths.
//
// Usage:
//
//	go run ./cmd/loopvet ./...                 lint the whole module
//	go run ./cmd/loopvet ./internal/sig/...    lint one subtree
//	go run ./cmd/loopvet -json ./...           machine-readable output for CI
//	go run ./cmd/loopvet -waivers ./...        list the //lint:ignore inventory
//	go run ./cmd/loopvet -budget 30s ./...     per-analyzer cost table and time gate
//
// Every run runs the whole suite. A pattern ending in "/..." names
// every package below its directory, as with go vet. With -json the
// findings mode emits an object {"analyzers": [...], "findings":
// [...]} naming the suite that gated the run.
//
// -budget appends a per-analyzer cost table — wall time summed over
// every package pass plus surviving finding counts, with a "callgraph"
// pseudo-entry for the shared module-wide call-graph build — after the
// findings (under -json the object gains a "stats" key), and turns it
// into a gate: if any single entry exceeds the duration, the run exits
// 1 even when the tree is clean, so an analyzer that quietly grows
// quadratic cost fails CI instead of taxing every developer. A
// negative -budget is a usage error.
//
// Exit status: 0 clean, 1 findings, 2 usage or load error. Findings
// can be waived in source with
//
//	//lint:ignore loopvet/<name> reason
//
// on (or directly above) the offending line. A waiver whose analyzer
// reports nothing on the covered lines is stale and is itself a
// finding; -waivers lists every waiver with its used/unused status
// (always exit 0 — it is an inventory, the gate stays with the normal
// mode). -waivers has no JSON form, so -waivers -json is a usage
// error. See docs/ANALYSIS.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"github.com/mssn/loopscope/internal/lint/checkers"
	"github.com/mssn/loopscope/internal/lint/driver"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so the negative-case tests can
// drive the real CLI path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loopvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON output")
	waiversOut := fs.Bool("waivers", false, "list the //lint:ignore waiver inventory instead of findings")
	budget := fs.Duration("budget", 0, "print per-analyzer wall time and findings; fail if any entry exceeds this duration")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: loopvet [-json | -waivers] [-budget dur] [packages]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nAnalyzers:\n")
		for _, a := range checkers.Suite("") {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *budget < 0 {
		fmt.Fprintf(stderr, "loopvet: -budget %s is negative\n", *budget)
		return 2
	}
	if *waiversOut && *jsonOut {
		fmt.Fprintln(stderr, "loopvet: -waivers has no JSON form; drop -json")
		return 2
	}
	root, modPath, err := findModule()
	if err != nil {
		fmt.Fprintln(stderr, "loopvet:", err)
		return 2
	}
	analyzers := checkers.Suite(modPath)
	res, err := driver.Run(driver.Options{
		ModulePath: modPath,
		ModuleRoot: root,
		Patterns:   fs.Args(),
		Analyzers:  analyzers,
	})
	if err != nil {
		fmt.Fprintln(stderr, "loopvet:", err)
		return 2
	}
	findings := res.Findings
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	if *waiversOut {
		for _, wv := range res.Waivers {
			status := "used"
			if !wv.Used {
				status = "unused"
			}
			fmt.Fprintf(w, "%s:%d: loopvet/%s (%s): %s\n",
				wv.File, wv.Line, strings.Join(wv.Analyzers, ",loopvet/"), status, wv.Reason)
		}
		return 0
	}
	if *jsonOut {
		if findings == nil {
			findings = []driver.Finding{}
		}
		names := make([]string, len(analyzers))
		for i, a := range analyzers {
			names[i] = a.Name
		}
		report := struct {
			Analyzers []string         `json:"analyzers"`
			Findings  []driver.Finding `json:"findings"`
			Stats     []driver.Stat    `json:"stats,omitempty"`
		}{names, findings, nil}
		if *budget > 0 {
			report.Stats = res.Stats
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "loopvet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(w, f)
		}
		if *budget > 0 {
			fmt.Fprintf(w, "%-12s %10s %9s\n", "analyzer", "wall_ms", "findings")
			for _, s := range res.Stats {
				fmt.Fprintf(w, "%-12s %10.1f %9d\n", s.Analyzer, s.WallMS, s.Findings)
			}
		}
	}
	over := false
	if *budget > 0 {
		limit := float64(*budget) / float64(time.Millisecond)
		for _, s := range res.Stats {
			if s.WallMS > limit {
				fmt.Fprintf(stderr, "loopvet: %s took %.1fms, over the %s budget\n",
					s.Analyzer, s.WallMS, *budget)
				over = true
			}
		}
	}
	if len(findings) > 0 || over {
		return 1
	}
	return 0
}

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// findModule walks up from the working directory to go.mod and returns
// the module root and path.
func findModule() (string, string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			m := moduleRE.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("no module directive in %s/go.mod", dir)
			}
			return dir, string(m[1]), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}
