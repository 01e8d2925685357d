package lint

import (
	"go/ast"
	"go/types"

	"cods/internal/lint/analysis"
)

// PubImmutable enforces the publication contract of the types marked
// `// cods:immutable` (cods.Snapshot, colstore.Segment, colstore.Column,
// wah.Bitmap): once a value escapes its defining package — in this
// codebase, once it is reachable from the atomic.Pointer catalog swap —
// nothing may write to it. Go already hides unexported fields, so the
// analyzer's weight is on the leaks the type system does not catch:
//
//   - writes to any field (exported or promoted) of a marked type from
//     outside its package, including element and map writes through a
//     field (`t.rows[i] = v`), and
//
//   - element writes through slices obtained from methods marked
//     `// cods:shared-view` (Snapshot.HistoryTail and friends), which
//     return internal storage by reference for O(1) reads; the taint is
//     tracked through local variables within a function.
//
// Inside the defining package anything goes: builders necessarily
// mutate the value before it is published. The boundary is the package,
// matching the documented contract "immutable after construction and
// freely shared".
var PubImmutable = &analysis.Analyzer{
	Name: "pubimmutable",
	Doc:  "reject post-construction writes to cods:immutable types outside their defining package",
	Run:  runPubImmutable,
}

func runPubImmutable(pass *analysis.Pass) (interface{}, error) {
	pi := &pubImmutable{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			pi.checkFunc(fn)
		}
	}
	return nil, nil
}

type pubImmutable struct {
	pass *analysis.Pass
}

// immutableOwner returns the marked named type a field selection reads
// from, when that type is defined outside the current package.
func (pi *pubImmutable) immutableOwner(sel *ast.SelectorExpr) (*types.Named, *types.Var) {
	s, ok := pi.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, nil
	}
	named := namedOf(s.Recv())
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg() == pi.pass.Pkg {
		return nil, nil
	}
	if !pi.pass.HasMarker(named.Obj().Pkg().Path(), named.Obj().Name(), "immutable") {
		return nil, nil
	}
	field, _ := s.Obj().(*types.Var)
	return named, field
}

// sharedViewCall reports whether a call invokes a method marked
// cods:shared-view in another package, returning its description.
func (pi *pubImmutable) sharedViewCall(call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pi.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == pi.pass.Pkg {
		return "", false
	}
	key := funcMarkerKey(fn)
	if !pi.pass.HasMarker(fn.Pkg().Path(), key, "shared-view") {
		return "", false
	}
	return key, true
}

// typeName renders a named type as pkg.Name for diagnostics.
func typeName(n *types.Named) string {
	if n.Obj().Pkg() == nil {
		return n.Obj().Name()
	}
	return n.Obj().Pkg().Name() + "." + n.Obj().Name()
}

// checkFunc checks one function: first it collects locals tainted by
// shared views or immutable-type fields, then it reports writes through
// those locals and writes to immutable fields.
func (pi *pubImmutable) checkFunc(fn *ast.FuncDecl) {
	info := pi.pass.TypesInfo

	// tainted maps a local variable to a description of the immutable
	// storage it aliases.
	tainted := make(map[*types.Var]string)
	taintSource := func(e ast.Expr) (string, bool) {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if named, field := pi.immutableOwner(x); named != nil {
				return "field " + field.Name() + " of immutable " + typeName(named), true
			}
		case *ast.CallExpr:
			if desc, ok := pi.sharedViewCall(x); ok {
				return "shared view from " + desc, true
			}
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok {
				if desc, ok := tainted[v]; ok {
					return desc, true
				}
			}
		}
		return "", false
	}

	// Taint pass: any local ever assigned from a tainted source is
	// tainted for the whole function (order-insensitive, so aliases
	// introduced after a write still flag it — stricter, never looser).
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := info.Defs[id].(*types.Var)
				if !ok {
					v, ok = info.Uses[id].(*types.Var)
					if !ok {
						continue
					}
				}
				if _, done := tainted[v]; done {
					continue
				}
				if desc, ok := taintSource(as.Rhs[i]); ok {
					tainted[v] = desc
					changed = true
				}
			}
			return true
		})
	}

	// Write pass.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				pi.checkWrite(lhs, taintSource)
			}
		case *ast.IncDecStmt:
			pi.checkWrite(s.X, taintSource)
		}
		return true
	})
}

// checkWrite reports when an assignment target writes into immutable
// storage: a field of a marked type, or an element reached through a
// tainted slice or map. It descends the target chain, so a write like
// view[i].Field = v is caught at the indexing step.
func (pi *pubImmutable) checkWrite(lhs ast.Expr, taintSource func(ast.Expr) (string, bool)) {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if named, field := pi.immutableOwner(e); named != nil {
				pi.pass.Reportf(e.Pos(), "write to field %s of immutable type %s outside its package (marked cods:immutable)", field.Name(), typeName(named))
				return
			}
			lhs = e.X
		case *ast.IndexExpr:
			if desc, ok := taintSource(e.X); ok {
				pi.pass.Reportf(e.Pos(), "element write through %s; published values are immutable (marked cods:immutable)", desc)
				return
			}
			lhs = e.X
		case *ast.StarExpr:
			if desc, ok := taintSource(e.X); ok {
				pi.pass.Reportf(e.Pos(), "write through pointer to %s; published values are immutable (marked cods:immutable)", desc)
				return
			}
			lhs = e.X
		default:
			return
		}
	}
}
