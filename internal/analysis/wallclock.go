package analysis

import (
	"go/ast"
)

// WallclockAnalyzer flags every reference to time.Now, time.Since and
// time.Sleep. The simulator runs on a virtual clock (accel.Clock and the
// fleet event loop's virtual horizon); a wall-clock read anywhere in a
// simulation package makes decisions depend on host speed and breaks
// bit-identity across machines and runs.
//
// Wall-clock is legal only at explicitly annotated sites — CLI progress
// reporting and artifact date stamps in cmd/*, and retry pacing against
// live worker processes — each carrying
// //detlint:allow wallclock <reason>, which -inventory lists and the
// inventory golden pins.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc: "flag time.Now/time.Since/time.Sleep: simulation code must use the " +
		"virtual clock; annotate deliberate wall-clock measurement sites",
	Run: runWallclock,
}

func runWallclock(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pn := packageName(pass.Info, sel)
			if pn == nil || pn.Imported().Path() != "time" {
				return true
			}
			switch sel.Sel.Name {
			case "Now", "Since", "Sleep":
				pass.Reportf(sel.Pos(),
					"wall-clock time.%s in simulation code; use the virtual clock, or annotate a deliberate measurement site with //detlint:allow wallclock <reason>",
					sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
