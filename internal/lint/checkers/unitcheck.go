package checkers

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/mssn/loopscope/internal/lint/analysis"
)

// UnitCheck returns the dataflow analyzer enforcing the typed-unit
// regime established by internal/units. Go's nominal typing already
// rejects direct dBm+dB arithmetic, so the remaining escape hatches
// are what unitcheck guards:
//
//   - cross-unit conversions: units.DB(x) where x is a DBm (the
//     classic dB-vs-dBm mix-up, and ms-vs-s via Millis→Seconds) —
//     converting between units needs a physical operation (Sub, Add,
//     Scale, MillisOf), not a cast;
//   - unit-stripping conversions: float64(x) (or any non-unit numeric
//     type) applied to a unit-typed value outside a units package —
//     the sanctioned exit is the unit's Float/Duration accessor, which
//     keeps strips greppable and reviewable;
//   - named untyped constants leaking into unit-typed positions:
//     `const floor = -125.0` compared against a DBm value compiles via
//     implicit conversion, silently asserting a unit the declaration
//     never stated. Declare the constant with its unit type. Literal
//     constants in place (thresholds written at the call site) are
//     exempt — their unit is the context's, by construction.
//
// A unit type is a defined numeric type declared at package level in
// a package named "units" (the real internal/units and the fixture
// packages in testdata); the type's name doubles as the unit's. The
// rule reads go/types alone, so it holds across package boundaries.
func UnitCheck() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "unitcheck",
		Doc: "flag conversions that mix or strip physical-unit types (DBm, DB, Millis, ...) " +
			"and named untyped constants leaking into unit-typed positions; units change only " +
			"through the explicit operations internal/units defines",
	}
	a.Run = func(pass *analysis.Pass) error {
		if pass.Pkg.Name() == "units" {
			// The units package itself implements the conversions.
			return nil
		}
		reported := map[token.Pos]bool{}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkConversion(pass, n)
				case *ast.Ident:
					checkConstLeak(pass, n, n, reported)
				case *ast.SelectorExpr:
					checkConstLeak(pass, n, n.Sel, reported)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// unitOf returns the unit name of a unit type, or "" for any other
// type.
func unitOf(typ types.Type) string {
	named, ok := typ.(*types.Named)
	if !ok {
		return ""
	}
	tn := named.Obj()
	if tn.Pkg() == nil || tn.Pkg().Name() != "units" || tn.Parent() != tn.Pkg().Scope() {
		return ""
	}
	if basic, ok := named.Underlying().(*types.Basic); !ok || basic.Info()&types.IsNumeric == 0 {
		return ""
	}
	return tn.Name()
}

// checkConversion flags T(x) when it crosses or strips a unit.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dst := tv.Type
	argTV, ok := pass.Info.Types[call.Args[0]]
	if !ok || argTV.Type == nil {
		return
	}
	srcUnit := unitOf(argTV.Type)
	if srcUnit == "" {
		return // injections (float64 → unit) are the sanctioned entry
	}
	dstUnit := unitOf(dst)
	if dstUnit == srcUnit {
		return // no-op conversion, e.g. re-asserting the same unit
	}
	if dstUnit != "" {
		pass.Reportf(call.Pos(),
			"cross-unit conversion %s → %s has no physical meaning; use the explicit operation the units package defines (Sub, Add, Scale, MillisOf, ...)",
			srcUnit, dstUnit)
		return
	}
	if basic, ok := dst.Underlying().(*types.Basic); ok && basic.Info()&types.IsNumeric != 0 {
		pass.Reportf(call.Pos(),
			"conversion to %s strips the %s unit; call the unit's accessor (Float, Duration, MHz) at the boundary instead",
			types.TypeString(dst, types.RelativeTo(pass.Pkg)), srcUnit)
	}
}

// checkConstLeak flags a use of a named untyped constant in a
// unit-typed position: the implicit conversion asserts a unit the
// constant's declaration never stated.
func checkConstLeak(pass *analysis.Pass, expr ast.Expr, ident *ast.Ident, reported map[token.Pos]bool) {
	obj, ok := pass.Info.Uses[ident].(*types.Const)
	if !ok {
		return
	}
	basic, ok := obj.Type().(*types.Basic)
	if !ok || basic.Info()&types.IsUntyped == 0 {
		return
	}
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	unit := unitOf(tv.Type)
	if unit == "" {
		return
	}
	if reported[ident.Pos()] {
		return // the qualified and unqualified walks can both land here
	}
	reported[ident.Pos()] = true
	pass.Reportf(expr.Pos(),
		"untyped constant %s leaks into a %s-typed position; declare it with an explicit unit type so its unit is stated once",
		obj.Name(), unit)
}
