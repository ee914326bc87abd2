package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"optcc/internal/lint/analysis"
	"optcc/internal/lint/loader"
)

// Atomiconly enforces the all-or-nothing rule for sync/atomic: a field that
// any code accesses through a function-style atomic call (atomic.LoadInt64,
// atomic.AddUint32, atomic.CompareAndSwapPointer, ...) must be accessed
// that way everywhere. A single plain read racing an atomic write is
// undefined behavior the race detector only catches when the schedule
// cooperates; the analyzer catches it on every schedule.
//
// The engine's own counters use the typed atomic.Int64/Uint64 wrappers,
// which make mixed access unrepresentable — this analyzer exists to keep
// function-style atomics from creeping back in half-converted form.
//
// Detection is whole-program: the driver prepass (collectAtomicFields)
// records every field and package-level variable whose address is taken in
// an atomic call argument, across every loaded package; the per-package run
// then flags any plain (non-atomic) read or write of those variables.
// Initialization at the declaration and composite-literal keys are allowed
// (construction happens-before sharing).
//
// It also rejects any use of the value returned by sync/atomic's Or/And
// (atomic.OrUint32, atomic.Uint32.And, ...): go1.24.0 miscompiles those
// calls when the old value is used (a clobbered register, which PR 16 hit
// as a nil dereference), so the result must be discarded — use
// atomic.Bool or a CAS loop when the old value matters.
var Atomiconly = &analysis.Analyzer{
	Name: "atomiconly",
	Doc:  "flag plain accesses to fields that are elsewhere accessed via sync/atomic, and uses of atomic Or/And results",
	Run:  runAtomiconly,
}

// isAtomicOrAnd reports whether c calls sync/atomic's Or or And, in either
// the function form (OrInt32, AndUint64, ...) or the method form on the
// typed wrappers.
func isAtomicOrAnd(info *types.Info, c *ast.CallExpr) bool {
	fn, ok := calleeObject(info, c).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	return strings.HasPrefix(fn.Name(), "Or") || strings.HasPrefix(fn.Name(), "And")
}

// checkOrAndResults flags every atomic Or/And call whose result is not
// discarded — anything but a bare expression, `_ =`, go or defer statement.
func checkOrAndResults(pass *analysis.Pass, f *ast.File) {
	discarded := map[*ast.CallExpr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if c, ok := unparen(n.X).(*ast.CallExpr); ok {
				discarded[c] = true
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				id, ok := n.Lhs[0].(*ast.Ident)
				c, isCall := unparen(n.Rhs[0]).(*ast.CallExpr)
				if ok && isCall && id.Name == "_" {
					discarded[c] = true
				}
			}
		case *ast.GoStmt:
			discarded[n.Call] = true
		case *ast.DeferStmt:
			discarded[n.Call] = true
		case *ast.CallExpr:
			if !discarded[n] && isAtomicOrAnd(pass.TypesInfo, n) {
				pass.Reportf(n.Pos(), "result of atomic Or/And is used; go1.24.0 miscompiles this — discard it and use atomic.Bool or a CAS loop for the old value")
			}
		}
		return true
	})
}

// atomicCallTarget returns the *types.Var whose address is the pointer
// argument of a function-style sync/atomic call, if c is one.
func atomicCallTarget(info *types.Info, c *ast.CallExpr) *types.Var {
	sel, ok := unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	name := fn.Name()
	isFuncStyle := strings.HasPrefix(name, "Load") || strings.HasPrefix(name, "Store") ||
		strings.HasPrefix(name, "Add") || strings.HasPrefix(name, "Swap") ||
		strings.HasPrefix(name, "CompareAndSwap") || strings.HasPrefix(name, "Or") ||
		strings.HasPrefix(name, "And")
	if !isFuncStyle || len(c.Args) == 0 {
		return nil
	}
	// First argument is the address: &x.f or &v.
	u, ok := unparen(c.Args[0]).(*ast.UnaryExpr)
	if !ok {
		return nil
	}
	switch target := unparen(u.X).(type) {
	case *ast.SelectorExpr:
		if s, ok := info.Selections[target]; ok {
			if v, ok := s.Obj().(*types.Var); ok {
				return v
			}
		}
	case *ast.Ident:
		if v, ok := info.Uses[target].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// collectAtomicFields is the driver prepass: record every variable accessed
// through a function-style atomic call in this package into the shared
// index.
func collectAtomicFields(p *loader.Package, sh *analysis.Shared) {
	for _, f := range p.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if v := atomicCallTarget(p.TypesInfo, c); v != nil {
					sh.AtomicFields[v] = true
				}
			}
			return true
		})
	}
}

func runAtomiconly(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		checkOrAndResults(pass, f)
	}
	if len(pass.Shared.AtomicFields) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		// sanctioned marks identifiers that appear inside an atomic call's
		// address argument — those are the allowed accesses.
		sanctioned := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok || atomicCallTarget(pass.TypesInfo, c) == nil {
				return true
			}
			ast.Inspect(c.Args[0], func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					sanctioned[id] = true
				}
				return true
			})
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			var id *ast.Ident
			var v *types.Var
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if s, ok := pass.TypesInfo.Selections[n]; ok {
					if sv, ok := s.Obj().(*types.Var); ok {
						id, v = n.Sel, sv
					}
				}
			case *ast.Ident:
				if sv, ok := pass.TypesInfo.Uses[n].(*types.Var); ok && !sv.IsField() {
					id, v = n, sv
				}
			case *ast.KeyValueExpr:
				// Composite-literal initialization is construction, not a
				// shared access.
				return false
			}
			if v == nil || !pass.Shared.AtomicFields[v] || sanctioned[id] {
				return true
			}
			pass.Reportf(id.Pos(), "plain access to "+v.Name()+", which is accessed with sync/atomic elsewhere; use atomic operations for every access")
			return true
		})
	}
	return nil
}
