package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"cods/internal/lint/analysis"
)

// LockScope enforces the engine's central concurrency contract around
// the writer mutex (struct fields marked `// cods:writerlock`, i.e.
// DB.mu):
//
//   - While a writer lock is held, no call may block on IO or peers:
//     calls into os/net/net/http, time.Sleep, functions or methods
//     marked `// cods:blocking` (the storage layer's WAL appends and
//     snapshot writes), and channel operations are all reported. A
//     blocked writer is tolerable only when it is an explicit, explained
//     design decision (durability-before-visibility holds DB.mu across
//     the WAL fsync — that call site carries a //lint:ignore with the
//     rationale).
//
//   - Functions marked `// cods:lockfree` (the facade's read paths:
//     Query, Rows, Describe, Snapshot, ...) must not acquire any writer
//     lock, directly or through same-package calls — readers are
//     lock-free by contract, so a reader that can stall behind an
//     evolution is an invariant violation, not a performance bug.
//
// Lock regions are tracked per statement list: a `x.mu.Lock()` statement
// opens the region for the statements after it, `x.mu.Unlock()` closes
// it, and `defer x.mu.Unlock()` keeps it open to the end of the
// function. Function literals are not analyzed as part of the enclosing
// region (a spawned goroutine does not hold the caller's lock).
var LockScope = &analysis.Analyzer{
	Name: "lockscope",
	Doc:  "reject blocking calls under cods:writerlock mutexes and lock acquisition on cods:lockfree read paths",
	Run:  runLockScope,
}

// blockingPkgs are packages whose calls are assumed to block (IO,
// network, timers) unless allowlisted below.
var blockingPkgs = map[string]bool{
	"os":       true,
	"net":      true,
	"net/http": true,
}

// nonBlocking allowlists cheap helpers from the blocking packages.
var nonBlocking = map[string]bool{
	"os.IsNotExist":   true,
	"os.IsExist":      true,
	"os.IsPermission": true,
	"os.Getenv":       true,
	"os.Getpid":       true,
}

func runLockScope(pass *analysis.Pass) (interface{}, error) {
	ls := &lockScope{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ls.checkBody(fn)
		}
	}
	ls.checkLockFree()
	return nil, nil
}

type lockScope struct {
	pass *analysis.Pass
}

// writerLockField reports whether sel selects a struct field marked
// cods:writerlock, returning its "Type.field" description.
func (ls *lockScope) writerLockField(sel *ast.SelectorExpr) (string, bool) {
	s, ok := ls.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	field, ok := s.Obj().(*types.Var)
	if !ok || field.Pkg() == nil {
		return "", false
	}
	named := namedOf(s.Recv())
	if named == nil {
		return "", false
	}
	key := named.Obj().Name() + "." + field.Name()
	if !ls.pass.HasMarker(field.Pkg().Path(), key, "writerlock") {
		return "", false
	}
	return key, true
}

// lockCall classifies a statement as Lock/RLock ("acquire"), or
// Unlock/RUnlock ("release"), of a writer-lock field, returning the
// field description.
func (ls *lockScope) lockCall(call *ast.CallExpr) (field string, acquire, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	inner, okSel := sel.X.(*ast.SelectorExpr)
	if !okSel {
		return "", false, false
	}
	field, okField := ls.writerLockField(inner)
	return field, acquire, okField
}

// checkBody walks one function body tracking the held writer lock.
func (ls *lockScope) checkBody(fn *ast.FuncDecl) {
	ls.checkStmts(fn.Body.List, "")
}

// checkStmts scans a statement list. held names the writer lock held on
// entry ("" for none); Lock/Unlock statements in the list update it for
// the statements that follow.
func (ls *lockScope) checkStmts(stmts []ast.Stmt, held string) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if field, acquire, ok := ls.lockCall(call); ok {
					if acquire {
						held = field
					} else {
						held = ""
					}
					continue
				}
			}
		case *ast.DeferStmt:
			// defer x.mu.Unlock() keeps the region open to function end;
			// any other deferred call is checked like a plain call (it
			// runs while the lock is still held in that pattern).
			if _, acquire, ok := ls.lockCall(s.Call); ok && !acquire {
				continue
			}
		}
		if held != "" {
			ls.checkLocked(stmt, held)
		} else {
			// Descend looking for Lock() inside nested blocks.
			ls.descend(stmt, held)
		}
	}
}

// descend recurses into a statement's nested statement lists with the
// current lock state.
func (ls *lockScope) descend(stmt ast.Stmt, held string) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		ls.checkStmts(s.List, held)
	case *ast.IfStmt:
		ls.checkStmts(s.Body.List, held)
		if s.Else != nil {
			ls.descend(s.Else, held)
		}
	case *ast.ForStmt:
		ls.checkStmts(s.Body.List, held)
	case *ast.RangeStmt:
		ls.checkStmts(s.Body.List, held)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ls.checkStmts(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ls.checkStmts(cc.Body, held)
			}
		}
	case *ast.LabeledStmt:
		ls.descend(s.Stmt, held)
	}
}

// checkLocked reports blocking operations inside a statement executed
// with a writer lock held. Function literals are skipped: a goroutine or
// stored closure does not run under the caller's lock.
func (ls *lockScope) checkLocked(stmt ast.Stmt, held string) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if _, _, ok := ls.lockCall(e); ok {
				return true // Lock/Unlock bookkeeping, not a blocking call
			}
			if desc, ok := ls.blockingCallee(e); ok {
				ls.pass.Reportf(e.Pos(), "call to %s may block while %s is held (marked cods:writerlock)", desc, held)
			}
		case *ast.SendStmt:
			ls.pass.Reportf(e.Pos(), "channel send while %s is held (marked cods:writerlock)", held)
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				ls.pass.Reportf(e.Pos(), "channel receive while %s is held (marked cods:writerlock)", held)
			}
		case *ast.SelectStmt:
			ls.pass.Reportf(e.Pos(), "select while %s is held (marked cods:writerlock)", held)
		}
		return true
	})
}

// blockingCallee reports whether a call's target is assumed to block:
// anything from os/net/net/http (minus the allowlist), time.Sleep, or a
// function or method marked cods:blocking.
func (ls *lockScope) blockingCallee(call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(ls.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	full := fn.FullName()
	if nonBlocking[full] {
		return "", false
	}
	pkgPath := fn.Pkg().Path()
	if blockingPkgs[pkgPath] {
		return full, true
	}
	if pkgPath == "time" && fn.Name() == "Sleep" {
		return full, true
	}
	if ls.pass.HasMarker(pkgPath, funcMarkerKey(fn), "blocking") {
		return full + " (marked cods:blocking)", true
	}
	return "", false
}

// checkLockFree verifies that every function marked cods:lockfree stays
// lock-free through same-package calls.
func (ls *lockScope) checkLockFree() {
	info := ls.pass.TypesInfo

	type node struct {
		decl      *ast.FuncDecl
		locks     string // writer-lock field acquired directly, or ""
		callees   []types.Object
		calleePos map[types.Object]token.Pos
	}
	nodes := make(map[types.Object]*node)

	for _, f := range ls.pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := info.Defs[fn.Name]
			if obj == nil {
				continue
			}
			n := &node{decl: fn, calleePos: make(map[types.Object]token.Pos)}
			ast.Inspect(fn.Body, func(nd ast.Node) bool {
				call, ok := nd.(*ast.CallExpr)
				if !ok {
					return true
				}
				if field, acquire, ok := ls.lockCall(call); ok && acquire {
					if n.locks == "" {
						n.locks = field
					}
					return true
				}
				callee := calleeFunc(info, call)
				if callee != nil && callee.Pkg() == ls.pass.Pkg {
					co := types.Object(callee)
					if _, seen := n.calleePos[co]; !seen {
						n.callees = append(n.callees, co)
						n.calleePos[co] = call.Pos()
					}
				}
				return true
			})
			nodes[obj] = n
		}
	}

	// reaches reports whether fn can acquire a writer lock, returning a
	// human-readable witness chain.
	var reaches func(obj types.Object, seen map[types.Object]bool) (string, bool)
	reaches = func(obj types.Object, seen map[types.Object]bool) (string, bool) {
		n := nodes[obj]
		if n == nil || seen[obj] {
			return "", false
		}
		seen[obj] = true
		if n.locks != "" {
			return "acquires " + n.locks, true
		}
		for _, callee := range n.callees {
			if why, ok := reaches(callee, seen); ok {
				return "calls " + callee.Name() + ", which " + why, true
			}
		}
		return "", false
	}

	for obj, n := range nodes {
		key := funcDeclKey(n.decl)
		if !ls.pass.HasMarker(ls.pass.Pkg.Path(), key, "lockfree") {
			continue
		}
		if why, ok := reaches(obj, make(map[types.Object]bool)); ok {
			ls.pass.Reportf(n.decl.Name.Pos(), "%s is marked cods:lockfree but %s; readers must never take a writer lock", key, why)
		}
	}
}
