package analysis

import (
	"go/ast"
	"path/filepath"
)

// Goroutines confines goroutine creation to the concurrency layer listed
// in cocolint.json (internal/parallel in this module). The campaigns'
// byte-identity guarantee rests on every fan-out flowing through the pool
// abstractions — bounded workers, deterministic in-order result placement,
// the sequential fallback at one worker — so an ad-hoc `go` statement
// elsewhere is unaccounted concurrency the campaigns cannot replay. Code
// that needs parallelism takes a *parallel.Pool and calls Map or ForEach
// instead.
var Goroutines = &Analyzer{
	Name: "goroutines",
	Doc:  "confine goroutine spawns to the declared concurrency layer",
	Run:  runGoroutines,
}

func runGoroutines(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		filename := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if allowed(pass.Config.Goroutines.Allow, pass.Pkg.Path, filename) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"go statement outside the concurrency layer; fan out through a parallel.Pool (Map/ForEach) instead (allowlist: cocolint.json)")
			}
			return true
		})
	}
}
