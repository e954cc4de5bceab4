package testmine

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// purityWalker decides whether a method is safe to call from a watchdog
// checker: no writes that escape the call, no goroutines, no channel sends,
// and nothing mutating reachable through its transitive package-local
// callees. It also records whether the call path is *vulnerable* — passes
// through injector fault points or OS/network I/O — which classifies the
// mined checker as mimic (exercises the same failure domain as production
// operations) versus signal (pure in-memory validation).
//
// Calls that cross the package boundary cannot be inspected (the loader
// satisfies imports with placeholders), so they are judged by name:
//
//   - a small exact allow-list covers benign instrumentation that read paths
//     legitimately perform (mutex Lock/Unlock, metric Inc/Observe, injector
//     Fire);
//   - read-shaped prefixes (get, read, scan, len, verify, ...) pass;
//   - write-shaped prefixes (set, put, write, flush, close, ...) fail;
//   - anything else fails closed.
//
// The same heuristic applies to package-local callees beyond MaxPurityDepth.
type purityWalker struct {
	p          *pkgInfo
	maxDepth   int
	visited    map[*types.Func]bool
	vulnerable bool
}

func newPurityWalker(p *pkgInfo, maxDepth int) *purityWalker {
	return &purityWalker{p: p, maxDepth: maxDepth, visited: make(map[*types.Func]bool)}
}

// checkFunc walks fn's body. It returns (false, reason) on the first
// impurity found.
func (w *purityWalker) checkFunc(fn *types.Func, depth int) (bool, string) {
	if w.visited[fn] {
		return true, ""
	}
	w.visited[fn] = true
	decl := w.p.funcDecls[fn]
	if decl == nil || decl.Body == nil {
		return w.byName(fn.Name())
	}
	if depth > w.maxDepth {
		return w.byName(fn.Name())
	}

	var impure string
	fail := func(format string, args ...any) {
		if impure == "" {
			impure = fmt.Sprintf(format, args...)
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if impure != "" {
			return false
		}
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if ok, why := w.writeTarget(decl, lhs); !ok {
					fail("%s: %s", fn.Name(), why)
				}
			}
		case *ast.IncDecStmt:
			if ok, why := w.writeTarget(decl, v.X); !ok {
				fail("%s: %s", fn.Name(), why)
			}
		case *ast.SendStmt:
			fail("%s sends on a channel", fn.Name())
		case *ast.GoStmt:
			fail("%s spawns a goroutine", fn.Name())
		case *ast.CallExpr:
			if ok, why := w.call(decl, v, depth); !ok {
				fail("%s", why)
			}
		}
		return true
	})
	if impure != "" {
		return false, impure
	}
	return true, ""
}

// writeTarget checks one assignment target. Writes are pure when they stay
// local to the call: new variables, reassigned parameters, and element
// writes into locally created maps/slices. Writes through pointers, into
// receiver or package state, or to captured variables escape.
func (w *purityWalker) writeTarget(decl *ast.FuncDecl, lhs ast.Expr) (bool, string) {
	root, indirect := rootIdent(lhs)
	if root == nil {
		return false, "writes through a non-identifier expression"
	}
	if root.Name == "_" {
		return true, ""
	}
	obj := w.p.Info.Defs[root]
	if obj == nil {
		obj = w.p.Info.Uses[root]
	}
	if obj == nil {
		// Unresolved (a tolerated type error): fail closed.
		return false, fmt.Sprintf("writes through unresolved %s", root.Name)
	}
	if obj.Parent() == w.p.Types.Scope() {
		return false, fmt.Sprintf("assigns package-level %s", root.Name)
	}
	inDecl := obj.Pos() >= decl.Pos() && obj.Pos() <= decl.End()
	if !inDecl {
		return false, fmt.Sprintf("assigns captured %s", root.Name)
	}
	bodyLocal := decl.Body != nil && obj.Pos() >= decl.Body.Pos()
	if !bodyLocal {
		// Receiver or parameter.
		if !indirect {
			return true, "" // plain reassignment of a parameter copy
		}
		return false, fmt.Sprintf("writes through receiver/parameter %s", root.Name)
	}
	if indirect {
		// Element write into a local: fine for locally built maps/slices,
		// but a local *pointer* aliases state the caller can see.
		if v, ok := obj.(*types.Var); ok && isPointer(v.Type()) {
			return false, fmt.Sprintf("writes through local pointer %s", root.Name)
		}
	}
	return true, ""
}

// rootIdent unwraps index/selector/star/paren chains to the base identifier,
// reporting whether the write went through such a chain.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	indirect := false
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v, indirect
		case *ast.IndexExpr:
			e, indirect = v.X, true
		case *ast.SelectorExpr:
			e, indirect = v.X, true
		case *ast.StarExpr:
			e, indirect = v.X, true
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil, indirect
		}
	}
}

// call judges one call expression inside a walked body.
func (w *purityWalker) call(decl *ast.FuncDecl, call *ast.CallExpr, depth int) (bool, string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj := w.p.Info.Uses[fun]
		switch o := obj.(type) {
		case *types.Builtin:
			return w.builtin(decl, fun.Name, call)
		case *types.TypeName:
			return true, "" // conversion
		case *types.Func:
			if w.p.funcDecls[o] != nil {
				return w.checkFunc(o, depth+1)
			}
			return w.byName(o.Name())
		case *types.Var:
			// A function value declared inside this body is a local
			// closure — its literal is covered by the same Inspect walk.
			// Anything held in wider state is opaque.
			if decl.Body != nil && o.Pos() >= decl.Body.Pos() && o.Pos() <= decl.End() {
				return true, ""
			}
			return false, fmt.Sprintf("calls function value %s", fun.Name)
		case nil:
			return w.byName(fun.Name)
		}
		return true, ""
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			if pn, isPkg := w.p.Info.Uses[x].(*types.PkgName); isPkg {
				return w.pkgCall(pn.Imported().Name(), fun.Sel.Name)
			}
		}
		if fn, ok := w.p.Info.Uses[fun.Sel].(*types.Func); ok && w.p.funcDecls[fn] != nil {
			return w.checkFunc(fn, depth+1)
		}
		return w.byName(fun.Sel.Name)
	case *ast.FuncLit:
		return true, "" // body covered by the enclosing Inspect
	case *ast.ArrayType, *ast.MapType, *ast.InterfaceType, *ast.StarExpr, *ast.ParenExpr:
		return true, "" // conversion
	}
	return true, ""
}

// builtin handles builtins whose mutation target is an argument.
func (w *purityWalker) builtin(decl *ast.FuncDecl, name string, call *ast.CallExpr) (bool, string) {
	switch name {
	case "delete", "copy", "clear":
		if len(call.Args) > 0 {
			if ok, why := w.writeTarget(decl, call.Args[0]); !ok {
				return false, "builtin " + name + " " + why
			}
		}
	}
	return true, ""
}

// purePkgs are std qualifiers whose calls never mutate program state.
var purePkgs = map[string]bool{
	"errors": true, "fmt": true, "bytes": true, "strings": true,
	"strconv": true, "sort": true, "math": true, "utf8": true,
	"binary": true, "crc32": true, "hex": true, "filepath": true,
}

// vulnPkgs are std qualifiers whose calls touch the outside world: allowed
// only in read shapes, and always marking the path vulnerable (mimic-class).
var vulnPkgs = map[string]bool{"os": true, "net": true}

func (w *purityWalker) pkgCall(qual, name string) (bool, string) {
	if purePkgs[qual] {
		return true, ""
	}
	if vulnPkgs[qual] {
		w.vulnerable = true
		if ok, _ := w.byName(name); !ok {
			return false, fmt.Sprintf("calls %s.%s (mutating I/O)", qual, name)
		}
		return true, ""
	}
	// Unknown package (module siblings included): judge by name.
	if ok, _ := w.byName(name); !ok {
		return false, fmt.Sprintf("calls %s.%s (not allow-listed)", qual, name)
	}
	return true, ""
}

// exactAllow covers benign instrumentation read paths legitimately perform.
// Add is Inc by another amount: a metric counter, or the atomic reader count
// a read path pins an immutable snapshot with (kvs table versions) — the
// "add" deny prefix below still catches AddChecker, AddWatch and the like.
var exactAllow = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true,
	"TryLock": true, "TryRLock": true,
	"Inc": true, "Add": true, "Observe": true,
	"Error": true, "Err": true, "String": true, "Len": true, "Cap": true,
}

// denyPrefixes are write-shaped method names (lowercase comparison).
var denyPrefixes = []string{
	"set", "put", "del", "add", "append", "write", "flush", "compact",
	"close", "open", "arm", "disarm", "remove", "rename", "apply", "reset",
	"truncate", "sync", "register", "start", "stop", "store", "enqueue",
	"push", "send", "submit", "touch", "expire", "advance", "bump", "clear",
	"mark", "invalidate", "create", "insert", "update", "merge", "rotate",
}

// allowPrefixes are read-shaped method names (lowercase comparison).
var allowPrefixes = []string{
	"get", "read", "scan", "len", "size", "value", "count", "verify", "has",
	"is", "contains", "owns", "key", "path", "name", "version", "snapshot",
	"metric", "counter", "gauge", "histogram", "iterate", "string", "now",
	"since", "equal", "compare", "index", "match", "lookup", "peek", "list",
	"stat", "depth", "sample", "fault", "zxid", "queue", "block", "table",
	"volume", "partition", "tree", "session", "addr", "uint", "int", "float",
	"byte", "checksum", "parse", "format", "quote", "abs", "min", "max",
	"sum", "load", "num", "id", "generation",
}

// byName judges an uninspectable callee by its name. Fire marks the path
// vulnerable: it is the fault-injection point production operations pass
// through, exactly what a mimic checker wants to share fate with.
func (w *purityWalker) byName(name string) (bool, string) {
	if name == "Fire" {
		w.vulnerable = true
		return true, ""
	}
	if exactAllow[name] {
		return true, ""
	}
	lower := strings.ToLower(name)
	for _, p := range denyPrefixes {
		if strings.HasPrefix(lower, p) {
			return false, fmt.Sprintf("calls %s (write-shaped name)", name)
		}
	}
	for _, p := range allowPrefixes {
		if strings.HasPrefix(lower, p) {
			return true, ""
		}
	}
	return false, fmt.Sprintf("calls %s (not allow-listed)", name)
}
