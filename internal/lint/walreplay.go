package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"cods/internal/lint/analysis"
)

// WalReplay enforces exhaustiveness of statement dispatch: every concrete
// implementation of an interface marked `// cods:statement` (smo.Op — the
// schema-modification operators that flow through the WAL) must be
// handled wherever the engine dispatches on statement kind. PR 7's replay
// gap — a new operator that parsed from the WAL but fell through replay's
// type switch to "unsupported operator" — is exactly the bug class this
// rules out mechanically.
//
// Two obligations, each anchored by a marker:
//
//   - Functions marked `// cods:stmt-dispatch` (DB.applyLocked and
//     DB.execute) must, between them, name every implementer in a
//     type switch case or a type assertion. Prune is dispatched by
//     assertion in applyLocked rather than a switch case in execute, so
//     the analyzer unions both forms across all marked functions of the
//     package before reporting what is missing.
//
//   - A package-level var marked `// cods:stmt-registry` (smo.AllOps)
//     must mention every implementer in its composite literal. The
//     registry is what the String/Parse round-trip test iterates, so a
//     complete registry makes round-trip coverage of a new operator
//     impossible to forget.
var WalReplay = &analysis.Analyzer{
	Name: "walreplay",
	Doc:  "require every cods:statement implementer in cods:stmt-dispatch functions and the cods:stmt-registry literal",
	Run:  runWalReplay,
}

func runWalReplay(pass *analysis.Pass) (interface{}, error) {
	wr := &walReplay{pass: pass}
	ifaces := wr.statementInterfaces()
	if len(ifaces) == 0 {
		return nil, nil
	}
	for _, si := range ifaces {
		wr.checkDispatch(si)
		wr.checkRegistry(si)
	}
	return nil, nil
}

type walReplay struct {
	pass *analysis.Pass
}

// stmtIface is one interface marked cods:statement, with its concrete
// implementers enumerated from its defining package's scope.
type stmtIface struct {
	named        *types.Named
	iface        *types.Interface
	implementers []*types.Named
}

// statementInterfaces finds cods:statement interfaces visible to this
// package: declared here or in a direct import.
func (wr *walReplay) statementInterfaces() []*stmtIface {
	var out []*stmtIface
	scan := func(p *types.Package) {
		markers := wr.pass.PkgMarkers(p.Path())
		for key, ms := range markers {
			if strings.Contains(key, ".") {
				continue
			}
			marked := false
			for _, m := range ms {
				if m == "statement" {
					marked = true
				}
			}
			if !marked {
				continue
			}
			tn, ok := p.Scope().Lookup(key).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			iface, ok := named.Underlying().(*types.Interface)
			if !ok {
				continue
			}
			out = append(out, &stmtIface{named: named, iface: iface, implementers: implementersOf(p, iface)})
		}
	}
	scan(wr.pass.Pkg)
	for _, imp := range wr.pass.Pkg.Imports() {
		scan(imp)
	}
	return out
}

// implementersOf enumerates the concrete named types of p that satisfy
// iface (by value or pointer receiver), sorted by name.
func implementersOf(p *types.Package, iface *types.Interface) []*types.Named {
	var out []*types.Named
	for _, name := range p.Scope().Names() {
		tn, ok := p.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			out = append(out, named)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Obj().Name() < out[j].Obj().Name() })
	return out
}

// checkDispatch unions the statement kinds named by the package's
// cods:stmt-dispatch functions and reports the implementers left out.
func (wr *walReplay) checkDispatch(si *stmtIface) {
	handled := make(map[*types.TypeName]bool)
	var dispatchFns []*ast.FuncDecl
	for _, f := range wr.pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !wr.pass.HasMarker(wr.pass.Pkg.Path(), funcDeclKey(fn), "stmt-dispatch") {
				continue
			}
			// A dispatch function is held to si only if it receives si as
			// a parameter or already names one of its implementers — a
			// package may dispatch several statement interfaces.
			if !wr.takesIface(fn, si) {
				before := len(handled)
				wr.collectHandled(fn, si, handled)
				if len(handled) == before {
					continue
				}
			} else {
				wr.collectHandled(fn, si, handled)
			}
			dispatchFns = append(dispatchFns, fn)
		}
	}
	if len(dispatchFns) == 0 {
		return
	}
	sort.Slice(dispatchFns, func(i, j int) bool { return dispatchFns[i].Pos() < dispatchFns[j].Pos() })
	var missing []string
	for _, impl := range si.implementers {
		if !handled[impl.Obj()] {
			missing = append(missing, impl.Obj().Name())
		}
	}
	if len(missing) > 0 {
		wr.pass.Reportf(dispatchFns[0].Name.Pos(), "statement dispatch does not handle %s of %s (marked cods:statement); WAL replay would reject it",
			strings.Join(missing, ", "), typeName(si.named))
	}
}

// takesIface reports whether a function has a parameter of the
// statement interface type.
func (wr *walReplay) takesIface(fn *ast.FuncDecl, si *stmtIface) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, fld := range fn.Type.Params.List {
		tv, ok := wr.pass.TypesInfo.Types[fld.Type]
		if !ok {
			continue
		}
		if named := namedOf(tv.Type); named != nil && named.Obj() == si.named.Obj() {
			return true
		}
	}
	return false
}

// collectHandled records the si implementers a function names in type
// switch cases or type assertions.
func (wr *walReplay) collectHandled(fn *ast.FuncDecl, si *stmtIface, handled map[*types.TypeName]bool) {
	record := func(texpr ast.Expr) {
		if texpr == nil {
			return
		}
		tv, ok := wr.pass.TypesInfo.Types[texpr]
		if !ok {
			return
		}
		named := namedOf(tv.Type)
		if named == nil {
			return
		}
		for _, impl := range si.implementers {
			if impl.Obj() == named.Obj() {
				handled[named.Obj()] = true
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.TypeSwitchStmt:
			for _, c := range e.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					for _, t := range cc.List {
						record(t)
					}
				}
			}
		case *ast.TypeAssertExpr:
			record(e.Type) // nil inside a type switch guard; record skips it
		}
		return true
	})
}

// checkRegistry verifies that every package-level var marked
// cods:stmt-registry lists all implementers of si in its composite
// literal.
func (wr *walReplay) checkRegistry(si *stmtIface) {
	for _, f := range wr.pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if !wr.pass.HasMarker(wr.pass.Pkg.Path(), name.Name, "stmt-registry") {
						continue
					}
					if i >= len(vs.Values) {
						continue
					}
					wr.checkRegistryLiteral(name, vs.Values[i], si)
				}
			}
		}
	}
}

// checkRegistryLiteral reports implementers of si absent from the
// registry var's composite literal.
func (wr *walReplay) checkRegistryLiteral(name *ast.Ident, value ast.Expr, si *stmtIface) {
	lit, ok := ast.Unparen(value).(*ast.CompositeLit)
	if !ok {
		return
	}
	// Ignore a registry that holds some other element type entirely.
	listed := make(map[*types.TypeName]bool)
	relevant := false
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			elt = kv.Value
		}
		tv, ok := wr.pass.TypesInfo.Types[elt]
		if !ok {
			continue
		}
		named := namedOf(tv.Type)
		if named == nil {
			continue
		}
		for _, impl := range si.implementers {
			if impl.Obj() == named.Obj() {
				listed[named.Obj()] = true
				relevant = true
			}
		}
	}
	if !relevant {
		return
	}
	var missing []string
	for _, impl := range si.implementers {
		if !listed[impl.Obj()] {
			missing = append(missing, impl.Obj().Name())
		}
	}
	if len(missing) > 0 {
		wr.pass.Reportf(name.Pos(), "statement registry %s is missing %s of %s (marked cods:statement); round-trip coverage would skip it",
			name.Name, strings.Join(missing, ", "), typeName(si.named))
	}
}
