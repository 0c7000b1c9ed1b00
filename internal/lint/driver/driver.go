// Package driver runs a loopvet analyzer suite over a module tree: it
// enumerates packages, loads the requested packages plus their
// module-local dependency closure through internal/lint/load, builds
// one module-wide call graph over all of them (the analyzers' only
// view of other packages), runs each analyzer over the requested
// packages, applies //lint:ignore waivers, and returns findings in a
// stable order. It is the one way to run an analyzer: cmd/loopvet and
// every analyzer test (through internal/lint/linttest) share it.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/mssn/loopscope/internal/lint/analysis"
	"github.com/mssn/loopscope/internal/lint/load"
)

// Finding is one reported diagnostic, with positions relative to the
// module root so CI annotations are portable.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: loopvet/%s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Waiver is one well-formed //lint:ignore loopvet/... comment seen in
// a requested package, with whether it actually suppressed anything.
// cmd/loopvet -waivers renders this inventory; a waiver that is not
// Used for an enabled analyzer is also reported as a stale-waiver
// Finding, so dead suppressions rot out of the tree.
type Waiver struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Analyzers are the waived analyzer names (the loopvet/ prefix
	// stripped).
	Analyzers []string `json:"analyzers"`
	Reason    string   `json:"reason"`
	// Used reports whether the waiver suppressed at least one
	// diagnostic of at least one enabled analyzer in this run.
	Used bool `json:"used"`
}

// Options configures one run.
type Options struct {
	ModulePath string
	ModuleRoot string
	// Patterns are package dirs relative to ModuleRoot; one ending in
	// "/..." also names every package below its directory, so "./..."
	// is the whole module.
	Patterns  []string
	Analyzers []*analysis.Analyzer
}

// Stat is one analyzer's cost/yield line for a run: total wall time
// across every package pass and the number of findings that survived
// waivers. The pseudo-entry "callgraph" accounts for the module-wide
// call graph build every analyzer shares.
type Stat struct {
	Analyzer string  `json:"analyzer"`
	WallMS   float64 `json:"wall_ms"`
	Findings int     `json:"findings"`
}

// Result is the full outcome of a run: findings plus the waiver
// inventory of the requested packages and per-analyzer stats.
type Result struct {
	Findings []Finding
	Waivers  []Waiver
	Stats    []Stat
}

// Run executes the suite over the requested packages and returns the
// surviving findings, the waiver inventory and per-analyzer stats. The
// module-local dependencies of the requested packages are loaded into
// the call graph, so cross-package checks see them even when a single
// package is requested, but no analyzer runs over them.
func Run(opts Options) (*Result, error) {
	enabled := map[string]bool{}
	for _, a := range opts.Analyzers {
		enabled[a.Name] = true
	}
	requested, err := Expand(opts)
	if err != nil {
		return nil, err
	}
	reqSet := map[string]bool{}
	for _, p := range requested {
		reqSet[p] = true
	}
	loader := load.New(opts.ModulePath, opts.ModuleRoot)
	order, err := loader.TopoOrder(requested)
	if err != nil {
		return nil, err
	}
	// Preload every package of the run, then build the module-wide
	// call graph once — TopoOrder has already pulled the full
	// dependency closure into the loader cache, so object identities
	// line up across packages.
	pkgs := make([]*load.Package, 0, len(order))
	sources := make([]analysis.CGSource, 0, len(order))
	for _, path := range order {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
		sources = append(sources, analysis.CGSource{
			Path:  pkg.ImportPath,
			Files: pkg.Files,
			Pkg:   pkg.Types,
			Info:  pkg.Info,
		})
	}
	graphStart := time.Now()
	graph := analysis.BuildCallGraph(sources)
	wall := map[string]time.Duration{"callgraph": time.Since(graphStart)}
	res := &Result{}
	for _, pkg := range pkgs {
		if !reqSet[pkg.ImportPath] {
			continue
		}
		var diags []analysis.Diagnostic
		for _, a := range opts.Analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      loader.Fset,
				Files:     pkg.Files,
				Path:      pkg.ImportPath,
				Pkg:       pkg.Types,
				Info:      pkg.Info,
				CallGraph: graph,
				Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			}
			start := time.Now()
			err := a.Run(pass)
			wall[a.Name] += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		waivers := collectWaivers(loader.Fset, pkg.Files)
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			if waivers.covers(d.Analyzer, pos) {
				continue
			}
			res.Findings = append(res.Findings, Finding{
				Analyzer: d.Analyzer,
				File:     relTo(opts.ModuleRoot, pos.Filename),
				Line:     pos.Line,
				Col:      pos.Column,
				Message:  d.Message,
			})
		}
		for _, m := range waivers.malformed {
			m.File = relTo(opts.ModuleRoot, m.File)
			res.Findings = append(res.Findings, m)
		}
		for _, rec := range waivers.recs {
			w := Waiver{
				File:      relTo(opts.ModuleRoot, rec.file),
				Line:      rec.line,
				Col:       rec.col,
				Analyzers: rec.names,
				Reason:    rec.reason,
			}
			for _, name := range rec.names {
				if rec.used[name] {
					w.Used = true
					continue
				}
				if !enabled[name] {
					// Can't judge a waiver for an analyzer that did
					// not run; leave it alone.
					continue
				}
				res.Findings = append(res.Findings, Finding{
					Analyzer: "waiver",
					File:     w.File,
					Line:     rec.line,
					Col:      rec.col,
					Message: fmt.Sprintf(
						"stale waiver: loopvet/%s reports no diagnostic on this or the next line; delete the //lint:ignore", name),
				})
			}
			res.Waivers = append(res.Waivers, w)
		}
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	sort.Slice(res.Waivers, func(i, j int) bool {
		a, b := res.Waivers[i], res.Waivers[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	counts := map[string]int{}
	for _, f := range res.Findings {
		counts[f.Analyzer]++
	}
	res.Stats = append(res.Stats, Stat{
		Analyzer: "callgraph",
		WallMS:   float64(wall["callgraph"]) / float64(time.Millisecond),
	})
	for _, a := range opts.Analyzers {
		res.Stats = append(res.Stats, Stat{
			Analyzer: a.Name,
			WallMS:   float64(wall[a.Name]) / float64(time.Millisecond),
			Findings: counts[a.Name],
		})
	}
	return res, nil
}

// relTo rewrites an absolute position filename relative to the module
// root, with forward slashes, falling back to the input.
func relTo(root, filename string) string {
	rel, err := filepath.Rel(root, filename)
	if err != nil {
		return filename
	}
	return filepath.ToSlash(rel)
}

// Expand turns opts.Patterns into the sorted import paths Run
// analyzes. A pattern ending in "/..." (or "..." alone) names every
// package in or below its directory, skipping testdata, dot and
// underscore directories; any other pattern names one package
// directory. No pattern means "./...".
func Expand(opts Options) ([]string, error) {
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	for _, p := range patterns {
		if p != "..." && !strings.HasSuffix(p, "/...") {
			dirs = append(dirs, filepath.Clean(p))
			continue
		}
		base := filepath.Join(opts.ModuleRoot, strings.TrimSuffix(p, "..."))
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base &&
				(name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return fs.SkipDir
			}
			if hasGoFiles(path) {
				rel, err := filepath.Rel(opts.ModuleRoot, path)
				if err != nil {
					return err
				}
				dirs = append(dirs, rel)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var paths []string
	for _, dir := range dirs {
		if dir == "." {
			paths = append(paths, opts.ModulePath)
			continue
		}
		paths = append(paths, opts.ModulePath+"/"+filepath.ToSlash(dir))
	}
	sort.Strings(paths)
	return paths, nil
}

func hasGoFiles(dir string) bool {
	entries, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !strings.HasSuffix(e, "_test.go") {
			return true
		}
	}
	return false
}

// waiverRec is one well-formed //lint:ignore comment, tracking which
// of its analyzer names actually suppressed a diagnostic.
type waiverRec struct {
	file      string
	line, col int
	names     []string
	reason    string
	used      map[string]bool
}

// waiverSet indexes //lint:ignore comments by file and line.
type waiverSet struct {
	recs []*waiverRec
	// byLine maps file → covered line → records. A waiver on line L
	// suppresses findings on L (trailing comment) and L+1 (comment
	// above the flagged statement).
	byLine    map[string]map[int][]*waiverRec
	malformed []Finding
}

// collectWaivers scans comments for the waiver syntax:
//
//	//lint:ignore loopvet/<name>[,loopvet/<name>...] reason
//
// A waiver without a reason is itself a finding — waivers must say why.
func collectWaivers(fset *token.FileSet, files []*ast.File) *waiverSet {
	ws := &waiverSet{byLine: map[string]map[int][]*waiverRec{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				names := []string{}
				if len(fields) > 0 {
					for _, n := range strings.Split(fields[0], ",") {
						if name, ok := strings.CutPrefix(n, "loopvet/"); ok {
							names = append(names, name)
						}
					}
				}
				if len(names) == 0 {
					continue // not a loopvet waiver (e.g. staticcheck's)
				}
				if len(fields) < 2 {
					ws.malformed = append(ws.malformed, Finding{
						Analyzer: "waiver",
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  "//lint:ignore waiver needs a reason after the check name",
					})
					continue
				}
				rec := &waiverRec{
					file:   pos.Filename,
					line:   pos.Line,
					col:    pos.Column,
					names:  names,
					reason: strings.Join(fields[1:], " "),
					used:   map[string]bool{},
				}
				ws.recs = append(ws.recs, rec)
				m := ws.byLine[pos.Filename]
				if m == nil {
					m = map[int][]*waiverRec{}
					ws.byLine[pos.Filename] = m
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					m[line] = append(m[line], rec)
				}
			}
		}
	}
	return ws
}

// covers reports whether a waiver suppresses a diagnostic of the given
// analyzer at pos, marking the waiver used.
func (ws *waiverSet) covers(analyzer string, pos token.Position) bool {
	hit := false
	for _, rec := range ws.byLine[pos.Filename][pos.Line] {
		for _, n := range rec.names {
			if n == analyzer {
				rec.used[analyzer] = true
				hit = true
			}
		}
	}
	return hit
}
