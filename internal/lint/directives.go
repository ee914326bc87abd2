package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"optcc/internal/lint/analysis"
	"optcc/internal/lint/loader"
)

// Directive comments understood by the suite. They follow the standard Go
// directive shape (no space after //, machine audience):
//
//	//optcc:hotpath        — this function is on the zero-allocation hot
//	                         path; the hotpath analyzer proves it contains
//	                         no allocating construct and calls only
//	                         annotated or allowlisted callees.
//	//optcc:release        — calling this function returns its buffer
//	                         arguments to a pool/freelist; the recycle
//	                         analyzer flags aliases retained afterwards.
//	//cclint:ignore n why  — suppress analyzer n's diagnostics on this or
//	                         the next line, with a mandatory justification.
//	                         //lint:ignore is accepted as a synonym for
//	                         interop, but repository code uses the cclint
//	                         spelling so the staticcheck directive
//	                         namespace stays disjoint.
const (
	hotpathDirective = "optcc:hotpath"
	releaseDirective = "optcc:release"
)

// hasDirective reports whether any line of the comment group is exactly the
// given directive.
func hasDirective(g *ast.CommentGroup, directive string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == directive {
			return true
		}
	}
	return false
}

// collectAnnotations indexes one package's //optcc:hotpath and
// //optcc:release declarations into the shared index. Annotations are
// recognized on function declarations, on methods inside interface type
// definitions, and on statements binding a function literal to a variable
// (closure helpers inside a driver function).
func collectAnnotations(p *loader.Package, sh *analysis.Shared) {
	record := func(g *ast.CommentGroup, obj types.Object) {
		if obj == nil {
			return
		}
		if hasDirective(g, hotpathDirective) {
			sh.HotpathFuncs[obj] = true
		}
		if hasDirective(g, releaseDirective) {
			sh.ReleaseFuncs[obj] = true
		}
	}
	for _, f := range p.Syntax {
		cm := ast.NewCommentMap(p.Fset, f, f.Comments)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				record(fd.Doc, p.TypesInfo.Defs[fd.Name])
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						record(m.Doc, p.TypesInfo.Defs[name])
						record(m.Comment, p.TypesInfo.Defs[name])
					}
				}
			case *ast.AssignStmt:
				// name := func(...) {...} with the directive on the
				// statement's lead comment annotates the bound literal.
				if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
					if _, isLit := n.Rhs[0].(*ast.FuncLit); isLit {
						if id, ok := n.Lhs[0].(*ast.Ident); ok {
							for _, g := range cm[n] {
								obj := p.TypesInfo.Defs[id]
								if obj == nil {
									obj = p.TypesInfo.Uses[id]
								}
								record(g, obj)
							}
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == 1 && len(n.Values) == 1 {
					if _, isLit := n.Values[0].(*ast.FuncLit); isLit {
						record(n.Doc, p.TypesInfo.Defs[n.Names[0]])
						for _, g := range cm[n] {
							record(g, p.TypesInfo.Defs[n.Names[0]])
						}
					}
				}
			}
			return true
		})
	}
}

// ignoreIndex records, per file line, which analyzers are suppressed there.
type ignoreIndex struct {
	// byLine maps file name → line → analyzer name → true. An ignore
	// suppresses its own line (end-of-line comment) and the following line
	// (comment on its own line above the finding).
	byLine map[string]map[int]map[string]bool
	// malformed collects ignore directives missing a justification.
	malformed []Finding
}

// collectIgnores scans a package's comments for ignore directives.
func collectIgnores(p *loader.Package, idx *ignoreIndex) {
	for _, f := range p.Syntax {
		for _, g := range f.Comments {
			for _, c := range g.List {
				text := strings.TrimPrefix(c.Text, "//")
				var rest string
				switch {
				case strings.HasPrefix(text, "cclint:ignore"):
					rest = strings.TrimPrefix(text, "cclint:ignore")
				case strings.HasPrefix(text, "lint:ignore"):
					rest = strings.TrimPrefix(text, "lint:ignore")
				default:
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					idx.malformed = append(idx.malformed, Finding{
						Pos:      pos,
						Analyzer: "ignore",
						Message:  "malformed ignore directive: need an analyzer name and a justification",
					})
					continue
				}
				names := strings.Split(fields[0], ",")
				if idx.byLine[pos.Filename] == nil {
					idx.byLine[pos.Filename] = map[int]map[string]bool{}
				}
				lineIdx := idx.byLine[pos.Filename]
				for _, name := range names {
					if lineIdx[pos.Line] == nil {
						lineIdx[pos.Line] = map[string]bool{}
					}
					lineIdx[pos.Line][name] = true
				}
			}
		}
	}
}

// suppressed reports whether a diagnostic of the named analyzer at pos is
// covered by an ignore directive on its line or the line above.
func (idx *ignoreIndex) suppressed(name string, pos token.Position) bool {
	lines := idx.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][name] || lines[pos.Line-1][name]
}
