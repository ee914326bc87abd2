package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"optcc/internal/lint/analysis"
)

// Hotpath proves the steady-state request→grant→execute→commit chain stays
// allocation-free. Functions annotated //optcc:hotpath may not contain any
// allocating construct — make/new, growing append, composite literals,
// function literals (closure capture), go statements, string concatenation,
// string↔[]byte conversions, or interface boxing (explicit conversions and
// the implicit ones at call arguments, assignments, returns and channel
// sends) — and may only call callees that are themselves annotated or on
// the allowlist of known non-allocating standard-library primitives
// (sync/atomic, math/bits, mutex operations, time reads, ...).
//
// This is the static complement to the alloc-regression benchmarks from
// PR 5: the benchmark catches a regression after it happens on a measured
// path; the analyzer rejects the construct at review time on every
// annotated path, measured or not.
var Hotpath = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocating constructs and unvetted calls in //optcc:hotpath functions",
	Run:  runHotpath,
}

// hotpathAllowedBuiltins never allocate.
var hotpathAllowedBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "delete": true, "clear": true,
	"min": true, "max": true, "panic": true, "print": true, "println": true,
}

// hotpathAllowedPkgs: every function in these packages is allocation-free.
var hotpathAllowedPkgs = map[string]bool{
	"sync/atomic": true,
	"math/bits":   true,
	"math":        true,
}

// hotpathAllowedFuncs: individually vetted standard-library callees, keyed
// "pkgpath.Name" for functions and "pkgpath.Recv.Name" for methods.
var hotpathAllowedFuncs = map[string]bool{
	"sync.Mutex.Lock": true, "sync.Mutex.Unlock": true, "sync.Mutex.TryLock": true,
	"sync.RWMutex.Lock": true, "sync.RWMutex.Unlock": true,
	"sync.RWMutex.RLock": true, "sync.RWMutex.RUnlock": true, "sync.RWMutex.TryLock": true,
	"sync.WaitGroup.Add": true, "sync.WaitGroup.Done": true,
	"sync.Pool.Get": true, "sync.Pool.Put": true,
	"time.Now": true, "time.Since": true, "time.Sleep": true,
	"time.Time.Sub": true, "time.Time.UnixNano": true, "time.Time.Before": true, "time.Time.After": true,
	"time.Duration.Nanoseconds": true, "time.Duration.Seconds": true, "time.Duration.Milliseconds": true,
	"runtime.Gosched": true,
	"sort.Ints":       true, "sort.SearchInts": true, "sort.Search": true,
	"slices.Contains": true, "slices.Index": true, "slices.Sort": true,
	"encoding/binary.littleEndian.Uint64": true,
}

func runHotpath(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj != nil && pass.Shared.HotpathFuncs[obj] {
				checkHotpathBody(pass, fd.Name.Name, fd.Body, fd.Type)
			}
			// Annotated function literals bound to locals inside any function.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					return true
				}
				lit, ok := as.Rhs[0].(*ast.FuncLit)
				if !ok {
					return true
				}
				id, ok := as.Lhs[0].(*ast.Ident)
				if !ok {
					return true
				}
				vobj := pass.TypesInfo.Defs[id]
				if vobj == nil {
					vobj = pass.TypesInfo.Uses[id]
				}
				if vobj != nil && pass.Shared.HotpathFuncs[vobj] {
					checkHotpathBody(pass, id.Name, lit.Body, lit.Type)
				}
				return true
			})
		}
	}
	return nil
}

// checkHotpathBody walks one annotated function body. Nested unannotated
// function literals are themselves a finding (closure allocation), so the
// walk never needs to recurse into a different annotation scope.
func checkHotpathBody(pass *analysis.Pass, name string, body *ast.BlockStmt, ftype *ast.FuncType) {
	report := func(pos token.Pos, format string, args ...any) {
		pass.Reportf(pos, fmt.Sprintf("hot path %s: %s", name, fmt.Sprintf(format, args...)))
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "function literal allocates a closure")
			return false
		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a goroutine")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n.Pos(), "address-taken composite literal allocates")
				}
			}
			return true
		case *ast.CompositeLit:
			// A plain struct/array value literal lives on the stack; only
			// slice and map literals (and address-taken ones, above)
			// inherently allocate.
			if t := pass.TypesInfo.Types[n].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(n.Pos(), "slice literal allocates")
				case *types.Map:
					report(n.Pos(), "map literal allocates")
				}
			}
			return true
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(pass.TypesInfo.Types[n.X].Type) {
				report(n.Pos(), "string concatenation allocates")
			}
			return true
		case *ast.SendStmt:
			checkImplicitBoxing(pass, report, n.Value, pass.TypesInfo.Types[n.Chan].Type)
			return true
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if len(n.Lhs) == len(n.Rhs) {
					checkImplicitBoxing(pass, report, rhs, pass.TypesInfo.Types[n.Lhs[i]].Type)
				}
			}
			return true
		case *ast.ReturnStmt:
			if ftype.Results != nil && len(n.Results) == countFields(ftype.Results) {
				i := 0
				for _, field := range ftype.Results.List {
					names := len(field.Names)
					if names == 0 {
						names = 1
					}
					for k := 0; k < names; k++ {
						checkImplicitBoxing(pass, report, n.Results[i], pass.TypesInfo.Types[field.Type].Type)
						i++
					}
				}
			}
			return true
		case *ast.CallExpr:
			checkHotpathCall(pass, report, n)
			return true
		}
		return true
	})
}

func countFields(fl *ast.FieldList) int {
	n := 0
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	return n
}

// checkHotpathCall classifies one call inside an annotated body: allocating
// builtin, allocating conversion, or a callee that must be annotated or
// allowlisted. Implicit boxing at arguments is also checked here.
func checkHotpathCall(pass *analysis.Pass, report func(token.Pos, string, ...any), c *ast.CallExpr) {
	// Type conversion? T(x) where T is a type, not a function.
	if tv, ok := pass.TypesInfo.Types[c.Fun]; ok && tv.IsType() {
		dst := tv.Type
		src := pass.TypesInfo.Types[c.Args[0]].Type
		switch {
		case types.IsInterface(dst.Underlying()) && src != nil && !types.IsInterface(src.Underlying()):
			report(c.Pos(), "conversion to interface boxes the value")
		case isStringType(dst) && isByteSlice(src), isByteSlice(dst) && isStringType(src):
			report(c.Pos(), "string ↔ []byte conversion copies and allocates")
		}
		return
	}

	// Builtin?
	if id, ok := unparen(c.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(c.Pos(), "make allocates")
			case "new":
				report(c.Pos(), "new allocates")
			case "append":
				report(c.Pos(), "append may grow and allocate")
			default:
				if !hotpathAllowedBuiltins[b.Name()] {
					report(c.Pos(), "builtin %s is not vetted for the hot path", b.Name())
				}
			}
			return
		}
	}

	callee := calleeObject(pass.TypesInfo, c)
	if callee == nil {
		report(c.Pos(), "dynamic call (function value or unresolved callee) is not vetted for the hot path")
		return
	}
	checkCallArgs(pass, report, c, callee)

	// A call to a generic function or method resolves to an instance; the
	// annotation sits on its origin, the declaration in the source.
	annotated := callee
	if fn, ok := callee.(*types.Func); ok {
		annotated = fn.Origin()
	}
	if pass.Shared.HotpathFuncs[annotated] {
		return
	}
	if fn, ok := callee.(*types.Func); ok {
		if fn.Pkg() == nil {
			return // universe scope (error.Error etc.) — no alloc
		}
		key := calleeKey(fn)
		if hotpathAllowedPkgs[fn.Pkg().Path()] || hotpathAllowedFuncs[key] {
			return
		}
		report(c.Pos(), "call to %s: callee is neither //optcc:hotpath-annotated nor allowlisted", key)
		return
	}
	// A *types.Var callee: local function value not annotated.
	report(c.Pos(), "call through %s: function value is not //optcc:hotpath-annotated", callee.Name())
}

// checkCallArgs flags implicit interface boxing at call arguments and
// non-empty variadic calls (the ...T slice allocates).
func checkCallArgs(pass *analysis.Pass, report func(token.Pos, string, ...any), c *ast.CallExpr, callee types.Object) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range c.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if c.Ellipsis == token.NoPos {
				if i == params.Len()-1 {
					report(arg.Pos(), "variadic call allocates the argument slice")
				}
				if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
					pt = s.Elem()
				}
			} else {
				pt = params.At(params.Len() - 1).Type()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			checkImplicitBoxing(pass, report, arg, pt)
		}
	}
}

// checkImplicitBoxing reports when a concrete-typed expression is assigned
// to an interface-typed destination (heap-boxing the value unless it is
// already a pointer into the heap; the analyzer is conservative and flags
// all of them — //cclint:ignore documents the vetted cases).
func checkImplicitBoxing(pass *analysis.Pass, report func(token.Pos, string, ...any), expr ast.Expr, dst types.Type) {
	if dst == nil || !types.IsInterface(dst.Underlying()) {
		return
	}
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	src := tv.Type
	if types.IsInterface(src.Underlying()) {
		return
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	report(expr.Pos(), "implicit conversion of %s to interface %s boxes the value", src, dst)
}

// calleeObject resolves a call's target to its object: a declared function
// or method, or the variable holding a function value.
func calleeObject(info *types.Info, c *ast.CallExpr) types.Object {
	switch fun := unparen(c.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel] // package-qualified
	}
	return nil
}

// calleeKey renders a function as pkgpath.Name or pkgpath.Recv.Name.
func calleeKey(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := namedTypeName(sig.Recv().Type())
		return fn.Pkg().Path() + "." + recv + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
