// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis API shape: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics.
//
// The x/tools module is deliberately not vendored — the repo builds
// with the standard library alone — so loopvet's analyzers are written
// against this package instead. The surface is kept close enough to
// the upstream API that porting to x/tools later is mechanical. One
// deliberate difference: there are no facts. Everything an analyzer
// knows about other packages comes from go/types or from the
// module-wide CallGraph every Pass carries.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check. Name is the identifier used in
// diagnostics and in //lint:ignore loopvet/<name> waivers.
type Analyzer struct {
	Name string
	// Doc is the one-paragraph description shown by `loopvet -help`.
	Doc string
	// Run inspects the package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one type-checked package through an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test source files.
	Files []*ast.File
	// Path is the package import path (e.g.
	// "github.com/mssn/loopscope/internal/core").
	Path string
	Pkg  *types.Package
	Info *types.Info

	Report func(Diagnostic)

	// CallGraph is the module-wide call graph over every package of
	// this run — the requested packages and their module-local
	// dependencies — shared by all passes. It is the framework's one
	// cross-package channel: analyzers read per-function summaries off
	// it (see BottomUp) or index declarations across its Sources.
	// Never nil.
	CallGraph *CallGraph
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}
