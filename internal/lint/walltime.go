package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// WallTime bans wall-clock reads in data-path packages: time.Now,
// time.Since and time.Until. The reproduction's contract is that
// identical inputs yield identical bytes — PR 5 fixed exactly this bug
// in pcap2nprint, where a time.Now() default epoch made the same
// nprint matrix produce a different pcap on every run. Timestamps in
// the data path must derive from fixed epochs, config, or seeded
// draws; arithmetic on time.Time values already in hand (Add, Sub) is
// fine because it introduces no ambient input.
//
// Observation-only timing (a progress hook measuring steps/s that
// provably does not feed back into outputs) is annotated in place:
//
//	//tracelint:allow walltime — observation-only progress timing
//
// Serving, eval and benchmark layers measure real latency by design
// and are exempt by configuration (walltimeSuffixes).
var WallTime = &Analyzer{
	Name: "walltime",
	Doc:  "forbid time.Now/Since/Until in data-path packages",
	Run:  runWallTime,
}

// walltimeSuffixes are the package-path suffixes of the data-path
// packages where wall-clock reads are banned. serve, eval and bench are
// deliberately absent: they measure latency as a product feature. The
// testdata suffix routes the fixture package through the analyzer.
var walltimeSuffixes = []string{
	"internal/diffusion",
	"internal/core",
	"internal/nn",
	"internal/tensor",
	"internal/stats",
	"internal/imagerep",
	"internal/packet",
	"internal/pcap",
	"internal/nprint",
	"lint/testdata/src/walltime",
}

// wallClockFuncs are the ambient-input functions of package time.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runWallTime(pass *Pass) {
	onPath := false
	for _, suffix := range walltimeSuffixes {
		if strings.HasSuffix(pass.Pkg.Path, suffix) {
			onPath = true
			break
		}
	}
	if !onPath {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Pkg, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pkg, ok := info.Uses[id].(*types.PkgName); !ok || pkg.Imported().Path() != "time" {
				return true
			}
			pass.Reportf(call.Pos(),
				"derive timestamps from a fixed epoch, config, or a seeded draw; annotate observation-only timing",
				"time.%s reads the wall clock in data-path package %s: identical inputs would stop producing identical bytes", sel.Sel.Name, pass.Pkg.Types.Name())
			return true
		})
	}
}
