package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AtomicMix enforces all-or-nothing atomicity per field: once any code
// in a package accesses a field through sync/atomic (atomic.AddUint64,
// atomic.LoadUint64, ...), every other access to that field must be
// atomic too. A mixed plain load can observe a torn or stale value and
// a mixed plain store can lose an atomic increment — and unlike a
// straight data race, the mix often "works" under the race detector's
// schedules while corrupting counters in production.
//
// The shape this catches in this repo: core.Synthesizer.genCalls is
// atomically incremented by nextRoot, which concurrent Generate,
// Deblur and Translate calls share; a plain `s.genCalls++` added
// elsewhere (as the Deblur/Translate path once did) silently races
// with it. Fields of dedicated atomic types (atomic.Bool,
// atomic.Uint64) are immune by construction and outside this
// analyzer's scope.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "a field accessed via sync/atomic must be accessed atomically everywhere",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) {
	info := pass.Pkg.Info
	// atomicFields maps each field object accessed via sync/atomic to
	// one representative call position (for the diagnostic).
	atomicFields := map[types.Object]token.Pos{}
	// atomicArgSites are the exact &x.f selector nodes appearing inside
	// sync/atomic call arguments — exempt from the plain-access pass.
	atomicArgSites := map[*ast.SelectorExpr]bool{}

	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Pkg, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(info, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				obj := info.Uses[sel.Sel]
				if obj == nil || !isStructField(obj) {
					continue
				}
				if _, seen := atomicFields[obj]; !seen {
					atomicFields[obj] = call.Pos()
				}
				atomicArgSites[sel] = true
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return
	}

	type plainAccess struct {
		sel *ast.SelectorExpr
		obj types.Object
	}
	var plains []plainAccess
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Pkg, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicArgSites[sel] {
				return true
			}
			obj := info.Uses[sel.Sel]
			if _, isAtomic := atomicFields[obj]; !isAtomic {
				return true
			}
			plains = append(plains, plainAccess{sel, obj})
			return true
		})
	}
	sort.Slice(plains, func(i, j int) bool { return plains[i].sel.Pos() < plains[j].sel.Pos() })
	for _, p := range plains {
		atomicPos := pass.Pkg.Fset.Position(atomicFields[p.obj])
		pass.Reportf(p.sel.Sel.Pos(),
			"use the matching sync/atomic load/store/add, or drop atomics for this field entirely",
			"field %q is accessed atomically (e.g. %s:%d) but plainly here: mixed access races",
			p.sel.Sel.Name, relFile(pass, atomicPos.Filename), atomicPos.Line)
	}
}

// isAtomicCall reports whether the call targets package sync/atomic.
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic"
}

// isStructField reports whether obj is a struct field variable.
func isStructField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.IsField()
}

// relFile renders a filename relative to the module root for
// diagnostics.
func relFile(pass *Pass, file string) string {
	if rel, ok := cutPathPrefix(file, pass.moduleRoot); ok {
		return rel
	}
	return file
}

func cutPathPrefix(file, root string) (string, bool) {
	if len(file) > len(root) && file[:len(root)] == root && (file[len(root)] == '/' || file[len(root)] == '\\') {
		return file[len(root)+1:], true
	}
	return "", false
}
