package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"optcc/internal/lint/analysis"
)

// Recycle enforces the pooled-buffer aliasing rule from DESIGN.md "Memory
// discipline": once a payload buffer is returned to a freelist or
// sync.Pool, no alias of it may be used again — the pool will hand the same
// backing array to another version, and a stale alias becomes silent
// cross-version corruption (the exact failure mode the storage checksums
// exist to catch at read time; this analyzer catches it at review time).
//
// A release point is a call to (*sync.Pool).Put or to any function
// annotated //optcc:release (the storage freelist's freeLocked, which takes a
// whole version header: its fields are as dead as a payload's bytes).
// After a release, the analyzer flags, within the same function in source
// order: any further read or write through the released expression (or a
// longer selector path rooted at it), and any second release of the same
// expression. Reassigning the variable wholesale clears its tracking —
// rebinding to a fresh buffer is the idiomatic reset.
var Recycle = &analysis.Analyzer{
	Name: "recycle",
	Doc:  "flag uses of pooled buffers after they are returned to a pool or freelist",
	Run:  runRecycle,
}

func runRecycle(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scanRecycle(pass, fd.Body)
		}
	}
	return nil
}

// releaseCallArg returns the expression being released by call c, if c is a
// release point: the argument of Pool.Put, or every pointer/slice argument
// of an //optcc:release function (in practice these take one buffer).
func releaseCallArgs(pass *analysis.Pass, c *ast.CallExpr) []ast.Expr {
	callee := calleeObject(pass.TypesInfo, c)
	if callee == nil {
		return nil
	}
	if fn, ok := callee.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
		fn.Name() == "Put" && namedTypeName(recvType(fn)) == "Pool" {
		if len(c.Args) == 1 {
			return c.Args[:1]
		}
		return nil
	}
	if !pass.Shared.ReleaseFuncs[callee] {
		return nil
	}
	var args []ast.Expr
	for _, a := range c.Args {
		t := pass.TypesInfo.Types[a].Type
		if t == nil {
			continue
		}
		switch t.Underlying().(type) {
		case *types.Slice, *types.Pointer:
			args = append(args, a)
		}
	}
	return args
}

func recvType(fn *types.Func) types.Type {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// exprKey canonicalizes an expression for release tracking: an identifier
// maps to its object's position (unique per object), a selector chain to
// rootKey + ".field" segments. Expressions rooted elsewhere (calls, index
// expressions) are not tracked.
func exprKey(info *types.Info, e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return ""
		}
		return fmt.Sprintf("obj@%d", obj.Pos())
	case *ast.SelectorExpr:
		root := exprKey(info, e.X)
		if root == "" {
			return ""
		}
		return root + "." + e.Sel.Name
	case *ast.UnaryExpr:
		return exprKey(info, e.X) // &x aliases x
	case *ast.StarExpr:
		return exprKey(info, e.X) // *p aliases p's target
	}
	return ""
}

// scanRecycle walks one function body (including nested literals — a
// closure sees the enclosing frame's released set) in source order.
func scanRecycle(pass *analysis.Pass, body *ast.BlockStmt) {
	// released maps expr key → position description of the release.
	released := map[string]bool{}

	// isReleased reports whether key or any prefix of it has been released:
	// after putBuf(v.payload), v.payload.x is dead too.
	isReleased := func(key string) bool {
		if key == "" {
			return false
		}
		for k := range released {
			if key == k || strings.HasPrefix(key, k+".") {
				return true
			}
		}
		return false
	}

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				walk(rhs)
			}
			// A wholesale reassignment of a released expression rebinds it
			// to a fresh value: clear the key and everything under it.
			for _, lhs := range n.Lhs {
				key := exprKey(pass.TypesInfo, lhs)
				if key == "" {
					walk(lhs)
					continue
				}
				if isReleased(key) {
					for k := range released {
						if k == key || strings.HasPrefix(k, key+".") {
							delete(released, k)
						}
					}
				}
				// Index/selector writes under a released root are uses, but
				// the exact-key rebind above already removed them; anything
				// still released below the LHS root is a use-after-release.
				if isReleased(key) {
					pass.Reportf(lhs.Pos(), "write through released buffer: returned to its pool earlier in this function")
				}
			}
			return
		case *ast.CallExpr:
			args := releaseCallArgs(pass, n)
			if args == nil {
				for _, a := range n.Args {
					walk(a)
				}
				walk(n.Fun)
				return
			}
			for _, a := range args {
				key := exprKey(pass.TypesInfo, a)
				if key == "" {
					continue
				}
				if isReleased(key) {
					pass.Reportf(a.Pos(), "double release: buffer was already returned to its pool in this function")
					continue
				}
				released[key] = true
			}
			return
		case *ast.Ident, *ast.SelectorExpr:
			key := exprKey(pass.TypesInfo, n.(ast.Expr))
			if isReleased(key) {
				pass.Reportf(n.Pos(), "use of released buffer: returned to its pool earlier in this function")
			}
			return
		}
		var children []ast.Node
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			if c != nil {
				children = append(children, c)
			}
			return false
		})
		for _, c := range children {
			walk(c)
		}
	}
	walk(body)
}
