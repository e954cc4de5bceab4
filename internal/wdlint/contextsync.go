package wdlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ContextSyncAnalyzer cross-references the context keys checkers read against
// the keys hooks synchronize (§3.2's one-way context synchronization).
//
//   - A key a checker reads that no hook ever puts is an error: the checker
//     will forever see the zero value and silently verify nothing.
//   - A key hooks put that no checker reads is info: contexts also carry
//     payload for failure reports (§5.2), so this is often intentional.
//   - A hook that synchronizes a context no checker claims is a warning —
//     usually a renamed checker left a stale hook behind.
//
// Sync sites are found three ways: direct Context("name").Put/PutAll chains,
// context variables bound from Context("name") earlier in the same function,
// and calls to hook-like helpers — any function (in any loaded package) that
// forwards a name parameter and a values parameter into
// Context(name).PutAll(vals), such as wdhooks.Capture or a store's
// sampledHook(name, seq, build) with a lazily-built payload.
//
// Checkers whose name is computed at run time are skipped. A checker that
// passes its context to another function (other than watchdog.Op/OpTimed) is
// treated as reading unknown keys and exempted from key matching.
type ContextSyncAnalyzer struct{}

// Name implements Analyzer.
func (*ContextSyncAnalyzer) Name() string { return "contextsync" }

// Doc implements Analyzer.
func (*ContextSyncAnalyzer) Doc() string {
	return "context keys read by checkers must be synchronized by hooks, and vice versa (§3.2)"
}

// hookInfo describes a hook-like function: its name-parameter index and
// values-parameter index.
type hookInfo struct {
	nameIdx int
	valsIdx int
	// builder marks the values parameter as a func-returning-map builder
	// rather than the map itself.
	builder bool
}

// syncRecord aggregates everything hooks do for one context name.
type syncRecord struct {
	name     string
	keys     map[string]token.Position // key -> first sync position
	wildcard bool                      // some site put keys we cannot enumerate
	sites    []token.Position          // every site, for related info
}

// readRecord aggregates everything checkers named `name` read.
type readRecord struct {
	name     string
	keys     map[string]token.Position // key -> first read position
	wildcard bool                      // context escaped to an opaque callee
	checker  *CheckerBody
}

// Run implements Analyzer.
func (a *ContextSyncAnalyzer) Run(u *Unit) []Diag {
	hooks := findHookLike(u)
	syncs := collectSyncSites(u, hooks)
	reads := collectReads(u)

	var diags []Diag
	report := func(pos token.Position, sev Severity, related []Related, format string, args ...any) {
		diags = append(diags, Diag{
			Pos:      pos,
			Analyzer: a.Name(),
			Severity: sev,
			Message:  fmt.Sprintf(format, args...),
			Related:  related,
		})
	}

	// Checker side: every key read must be synchronized somewhere.
	for _, r := range sortedReads(reads) {
		if r.wildcard {
			continue
		}
		s := syncs[r.name]
		for _, key := range sortedKeys(r.keys) {
			pos := r.keys[key]
			switch {
			case s == nil:
				if len(r.keys) > 0 {
					report(pos, SevError, nil,
						"checker %q reads context key %q but no hook synchronizes context %q (§3.2 one-way sync)",
						r.name, key, r.name)
				}
			case !s.wildcard && !hasKey(s.keys, key):
				related := []Related{}
				if len(s.sites) > 0 {
					related = append(related, Related{Pos: s.sites[0], Message: "context synchronized here"})
				}
				report(pos, SevError, related,
					"checker %q reads context key %q, which no hook for %q ever puts",
					r.name, key, r.name)
			}
		}
	}

	// Hook side: every synchronized key should have a reader, and every
	// synchronized context should have a checker.
	for _, s := range sortedSyncs(syncs) {
		r := reads[s.name]
		if r == nil {
			if len(s.sites) > 0 {
				report(s.sites[0], SevWarn, nil,
					"hook synchronizes context %q but no checker with that name was found", s.name)
			}
			continue
		}
		if r.wildcard {
			continue
		}
		for _, key := range sortedKeys(s.keys) {
			if !hasKey(r.keys, key) {
				report(s.keys[key], SevInfo, nil,
					"context key %q is synchronized for checker %q but never read by it; report payload (§5.2)?",
					key, s.name)
			}
		}
	}
	return diags
}

// findHookLike scans every loaded package for hook-like functions.
func findHookLike(u *Unit) map[types.Object]hookInfo {
	hooks := make(map[types.Object]hookInfo)
	for _, p := range u.Loader.Loaded() {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if info, ok := hookShape(p, fd); ok {
					if obj := p.Info.Defs[fd.Name]; obj != nil {
						hooks[obj] = info
					}
				}
			}
		}
	}
	return hooks
}

// hookShape reports whether fd forwards a (name, vals) parameter pair into
// Context(name).PutAll(vals) — possibly via a builder call vals().
func hookShape(p *Package, fd *ast.FuncDecl) (hookInfo, bool) {
	params := paramObjects(p, fd.Type)
	if len(params) < 2 {
		return hookInfo{}, false
	}
	index := func(obj types.Object) int {
		for i, po := range params {
			if po != nil && po == obj {
				return i
			}
		}
		return -1
	}
	var found hookInfo
	ok := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, okc := n.(*ast.CallExpr)
		if !okc || ok {
			return !ok
		}
		sel, okc := call.Fun.(*ast.SelectorExpr)
		if !okc || sel.Sel.Name != "PutAll" || len(call.Args) != 1 {
			return true
		}
		// Receiver must be Context(nameParam).
		inner, okc := sel.X.(*ast.CallExpr)
		if !okc || len(inner.Args) != 1 {
			return true
		}
		innerSel, okc := inner.Fun.(*ast.SelectorExpr)
		if !okc || innerSel.Sel.Name != "Context" {
			return true
		}
		nameID, okc := inner.Args[0].(*ast.Ident)
		if !okc {
			return true
		}
		ni := index(useOf(p, nameID))
		if ni < 0 {
			return true
		}
		switch arg := call.Args[0].(type) {
		case *ast.Ident:
			if vi := index(useOf(p, arg)); vi >= 0 {
				found = hookInfo{nameIdx: ni, valsIdx: vi}
				ok = true
			}
		case *ast.CallExpr:
			if id, okc := arg.Fun.(*ast.Ident); okc && len(arg.Args) == 0 {
				if vi := index(useOf(p, id)); vi >= 0 {
					found = hookInfo{nameIdx: ni, valsIdx: vi, builder: true}
					ok = true
				}
			}
		}
		return !ok
	})
	return found, ok
}

// paramObjects flattens the parameter objects of a function type in
// declaration order.
func paramObjects(p *Package, ft *ast.FuncType) []types.Object {
	var out []types.Object
	if ft.Params == nil {
		return out
	}
	for _, field := range ft.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			out = append(out, p.Info.Defs[name])
		}
	}
	return out
}

// collectSyncSites gathers hook-side synchronization in the requested
// packages, skipping checker bodies (a checker writing its own context is
// isolation's finding, not a sync site).
func collectSyncSites(u *Unit, hooks map[types.Object]hookInfo) map[string]*syncRecord {
	syncs := make(map[string]*syncRecord)
	checkerSpans := make(map[*Package][][2]token.Pos)
	for _, c := range u.Checkers() {
		from, to := c.Span()
		checkerSpans[c.Pkg] = append(checkerSpans[c.Pkg], [2]token.Pos{from, to})
	}
	inChecker := func(p *Package, pos token.Pos) bool {
		for _, span := range checkerSpans[p] {
			if span[0] <= pos && pos < span[1] {
				return true
			}
		}
		return false
	}
	record := func(p *Package, name string, pos token.Pos, keys []string, wildcard bool) {
		s := syncs[name]
		if s == nil {
			s = &syncRecord{name: name, keys: make(map[string]token.Position)}
			syncs[name] = s
		}
		position := p.Pos(pos)
		s.sites = append(s.sites, position)
		if wildcard {
			s.wildcard = true
		}
		for _, k := range keys {
			if !hasKey(s.keys, k) {
				s.keys[k] = position
			}
		}
	}

	for _, p := range u.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				// bindings tracks context variables bound from
				// X.Context("name") within this function.
				bindings := make(map[types.Object]string)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for i, rhs := range n.Rhs {
							if i >= len(n.Lhs) {
								break
							}
							name, ok := contextCallName(p, rhs)
							if !ok {
								continue
							}
							if id, okl := n.Lhs[i].(*ast.Ident); okl {
								if obj := useOf(p, id); obj != nil {
									bindings[obj] = name
								}
							}
						}
					case *ast.CallExpr:
						if inChecker(p, n.Pos()) {
							return true
						}
						// Hook-like helper call.
						if obj := calleeObject(p, n); obj != nil {
							if h, okh := hooks[obj]; okh {
								if h.nameIdx < len(n.Args) && h.valsIdx < len(n.Args) {
									if name, okn := constString(p, n.Args[h.nameIdx]); okn {
										keys, wildcard := valsKeys(p, n.Args[h.valsIdx], h.builder)
										record(p, name, n.Pos(), keys, wildcard)
									}
								}
								return true
							}
						}
						// Direct Put/PutAll/MarkReady on a context.
						sel, oks := n.Fun.(*ast.SelectorExpr)
						if !oks {
							return true
						}
						method := sel.Sel.Name
						if method != "Put" && method != "PutAll" && method != "MarkReady" {
							return true
						}
						name, okn := contextCallName(p, sel.X)
						if !okn {
							if id, oki := sel.X.(*ast.Ident); oki {
								name, okn = bindings[useOf(p, id)], false
								if name != "" {
									okn = true
								}
							}
						}
						if !okn {
							return true
						}
						switch method {
						case "Put":
							if len(n.Args) >= 1 {
								if key, okk := constString(p, n.Args[0]); okk {
									record(p, name, n.Pos(), []string{key}, false)
								} else {
									record(p, name, n.Pos(), nil, true)
								}
							}
						case "PutAll":
							if len(n.Args) == 1 {
								keys, wildcard := valsKeys(p, n.Args[0], false)
								record(p, name, n.Pos(), keys, wildcard)
							}
						case "MarkReady":
							record(p, name, n.Pos(), nil, false)
						}
					}
					return true
				})
			}
		}
	}
	return syncs
}

// contextCallName matches e against X.Context("name") where Context is the
// watchdog factory method, returning the constant name.
func contextCallName(p *Package, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return "", false
	}
	if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); !ok || !isWatchdogPkg(fn.Pkg()) {
		return "", false
	}
	return constString(p, call.Args[0])
}

// calleeObject resolves the called function/method object of a call.
func calleeObject(p *Package, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		return p.Info.Uses[fun.Sel]
	}
	return nil
}

// valsKeys extracts the constant string keys of a values argument: a map
// composite literal, or (builder form) a func literal returning one.
// wildcard is true when the keys cannot be enumerated.
func valsKeys(p *Package, arg ast.Expr, builder bool) (keys []string, wildcard bool) {
	if builder {
		lit, ok := arg.(*ast.FuncLit)
		if !ok {
			return nil, true
		}
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				return true
			}
			found = true
			ks, wc := valsKeys(p, ret.Results[0], false)
			keys = append(keys, ks...)
			wildcard = wildcard || wc
			return true
		})
		if !found {
			return nil, true
		}
		return keys, wildcard
	}
	cl, ok := arg.(*ast.CompositeLit)
	if !ok {
		return nil, true
	}
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return nil, true
		}
		key, ok := constString(p, kv.Key)
		if !ok {
			wildcard = true
			continue
		}
		keys = append(keys, key)
	}
	return keys, wildcard
}

// collectReads gathers the context keys each named checker reads.
func collectReads(u *Unit) map[string]*readRecord {
	reads := make(map[string]*readRecord)
	for _, c := range u.Checkers() {
		if c.Name == "" || c.CtxObj == nil {
			continue
		}
		r := reads[c.Name]
		if r == nil {
			r = &readRecord{name: c.Name, keys: make(map[string]token.Position), checker: c}
			reads[c.Name] = r
		}
		p := c.Pkg
		ast.Inspect(c.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// ctx.GetX("key") reads.
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && useOf(p, id) == c.CtxObj {
					switch sel.Sel.Name {
					case "Get", "GetString", "GetBytes", "GetInt":
						if len(call.Args) == 1 {
							if key, ok := constString(p, call.Args[0]); ok {
								if !hasKey(r.keys, key) {
									r.keys[key] = p.Pos(call.Args[0].Pos())
								}
								return true
							}
						}
						r.wildcard = true
					case "Snapshot", "Version", "Ready", "CurrentOp", "EnterOp", "ExitOp":
						// Metadata accessors, not key reads.
					default:
						// Unknown use of the context object.
					}
					return true
				}
			}
			// ctx escaping to an opaque callee means unknown reads —
			// except watchdog.Op/OpTimed, which only manage op tracking.
			name := watchdogFunc(p, call.Fun)
			if name == "Op" || name == "OpTimed" {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := arg.(*ast.Ident); ok && useOf(p, id) == c.CtxObj {
					r.wildcard = true
				}
			}
			return true
		})
	}
	return reads
}

func hasKey(m map[string]token.Position, k string) bool {
	_, ok := m[k]
	return ok
}

func sortedKeys(m map[string]token.Position) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedReads(m map[string]*readRecord) []*readRecord {
	out := make([]*readRecord, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func sortedSyncs(m map[string]*syncRecord) []*syncRecord {
	out := make([]*syncRecord, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
