package wdlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// IsolationAnalyzer enforces §3.2's "watchdogs should not incur side effects
// to the main program state". A checker may freely mutate state it creates
// itself — locals, and accumulators rebound across invocations via plain
// assignment to closure variables — but it must not:
//
//   - write package-level variables,
//   - mutate state reachable through the receiver of a Check method,
//   - write *through* a variable captured from an enclosing function
//     (selector, index, or pointer paths reach objects that pre-exist the
//     checker and may be shared with the main program),
//   - send on captured or package-level channels,
//   - write its own context (Put/PutAll/MarkReady): context
//     synchronization is strictly one-way, hook → checker.
//
// Intra-package functions called from a checker (up to a small depth) are
// also scanned, but only for package-level writes: deeper aliasing is out of
// reach for a syntactic checker.
type IsolationAnalyzer struct{}

// Name implements Analyzer.
func (*IsolationAnalyzer) Name() string { return "isolation" }

// Doc implements Analyzer.
func (*IsolationAnalyzer) Doc() string {
	return "checkers must not mutate state shared with the main program (§3.2)"
}

// ctxWriteMethods are Context methods that mutate watchdog state; checkers
// must never call them on their own context.
var ctxWriteMethods = map[string]bool{
	"Put": true, "PutAll": true, "MarkReady": true, "Replicate": true,
}

// calleeDepth bounds the intra-package call-chain walk from checker bodies.
const calleeDepth = 3

// Run implements Analyzer.
func (a *IsolationAnalyzer) Run(u *Unit) []Diag {
	var diags []Diag
	// Callee findings can be reached from several checkers; report each
	// write site once.
	calleeSeen := make(map[string]bool)
	for _, c := range u.Checkers() {
		diags = append(diags, a.checkBody(c)...)
		decls := declIndex(c.Pkg)
		for _, callee := range reachableDecls(c.Pkg, c.Body, decls, calleeDepth) {
			for _, d := range a.checkCallee(c, callee) {
				key := fmt.Sprintf("%s:%d:%d", d.Pos.Filename, d.Pos.Line, d.Pos.Column)
				if !calleeSeen[key] {
					calleeSeen[key] = true
					diags = append(diags, d)
				}
			}
		}
	}
	return diags
}

// checkBody scans one checker function body.
func (a *IsolationAnalyzer) checkBody(c *CheckerBody) []Diag {
	p := c.Pkg
	from, to := c.Span()
	var diags []Diag
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diag{
			Pos:      p.Pos(pos),
			Analyzer: a.Name(),
			Severity: SevError,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	// classify determines whether writing through e violates isolation.
	classify := func(e ast.Expr, verb string) {
		root := rootIdent(e)
		if root == nil {
			return
		}
		obj := useOf(p, root)
		if obj == nil {
			return
		}
		switch {
		case isPackageLevel(obj):
			report(e.Pos(), "checker %s package-level variable %q; checkers must be side-effect free (§3.2)",
				verb, root.Name)
		case c.RecvObj != nil && obj == c.RecvObj:
			report(e.Pos(), "checker %s state through receiver %q; mimic checkers must not mutate the main program's structures (§3.2)",
				verb, root.Name)
		case !isDirect(e) && capturedBy(obj, from, to):
			report(e.Pos(), "checker %s through captured variable %q; the target pre-exists the checker and may be shared with the main program (§3.2)",
				verb, root.Name)
		}
	}
	ast.Inspect(c.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				classify(lhs, "writes")
			}
		case *ast.IncDecStmt:
			classify(n.X, "writes")
		case *ast.SendStmt:
			root := rootIdent(n.Chan)
			if root == nil {
				return true
			}
			obj := useOf(p, root)
			if obj == nil {
				return true
			}
			if isPackageLevel(obj) || capturedBy(obj, from, to) ||
				(c.RecvObj != nil && obj == c.RecvObj) {
				report(n.Pos(), "checker sends on channel %q shared with the main program (§3.2)", root.Name)
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !ctxWriteMethods[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || c.CtxObj == nil || useOf(p, id) != c.CtxObj {
				return true
			}
			report(n.Pos(), "checker calls %s on its own context; synchronization is one-way, hook → checker (§3.2)",
				sel.Sel.Name)
		}
		return true
	})
	return diags
}

// checkCallee scans a same-package function reachable from a checker for
// package-level writes only.
func (a *IsolationAnalyzer) checkCallee(c *CheckerBody, callee *ast.FuncDecl) []Diag {
	p := c.Pkg
	var diags []Diag
	report := func(pos token.Pos, name string) {
		diags = append(diags, Diag{
			Pos:      p.Pos(pos),
			Analyzer: a.Name(),
			Severity: SevError,
			Message: fmt.Sprintf("function %s, called from checker %s, writes package-level variable %q (§3.2)",
				callee.Name.Name, checkerLabel(c), name),
			Related: []Related{{Pos: p.Pos(c.NamePos), Message: "checker defined here"}},
		})
	}
	ast.Inspect(callee.Body, func(n ast.Node) bool {
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			targets = n.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{n.X}
		default:
			return true
		}
		for _, t := range targets {
			root := rootIdent(t)
			if root == nil {
				continue
			}
			if obj := useOf(p, root); obj != nil && isPackageLevel(obj) {
				report(t.Pos(), root.Name)
			}
		}
		return true
	})
	return diags
}

// capturedBy reports whether obj is a variable declared outside the
// [from, to) span (and not at package level — that case is reported
// separately).
func capturedBy(obj types.Object, from, to token.Pos) bool {
	v, ok := obj.(*types.Var)
	if !ok || isPackageLevel(v) || !v.Pos().IsValid() {
		return false
	}
	return v.Pos() < from || v.Pos() >= to
}

// reachableDecls returns same-package function declarations reachable from
// root through direct calls, up to depth levels.
func reachableDecls(p *Package, root ast.Node, decls map[types.Object]*ast.FuncDecl, depth int) []*ast.FuncDecl {
	seen := make(map[*ast.FuncDecl]bool)
	var out []*ast.FuncDecl
	var walk func(n ast.Node, d int)
	walk = func(n ast.Node, d int) {
		if d <= 0 {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var obj types.Object
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				obj = p.Info.Uses[fun]
			case *ast.SelectorExpr:
				obj = p.Info.Uses[fun.Sel]
			}
			if fd := decls[obj]; fd != nil && fd.Body != nil && !seen[fd] {
				seen[fd] = true
				out = append(out, fd)
				walk(fd.Body, d-1)
			}
			return true
		})
	}
	walk(root, depth)
	return out
}

// checkerLabel names a checker for diagnostics.
func checkerLabel(c *CheckerBody) string {
	if c.Name != "" {
		return fmt.Sprintf("%q", c.Name)
	}
	return "(unnamed)"
}
