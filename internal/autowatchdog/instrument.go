package autowatchdog

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
)

// hookTarget maps one retained vulnerable-op line to its checker.
type hookTarget struct {
	checker string
	op      VulnerableOp
}

// Instrument writes instrumented copies of the package's sources into
// cfg.OutDir: before every statement containing a retained vulnerable
// operation, a wdhooks.Capture call is inserted that pushes the operation's
// identifier-valued arguments (and its callee) into the matching checker's
// context — the paper's "insert context API hooks in P to synchronize
// state" (Figure 2's ContextFactory.serializeSnapshot_reduced_args_setter).
//
// It returns the list of written files. Files without any retained
// operation are copied verbatim so OutDir holds a complete buildable
// package.
func (a *Analysis) Instrument(hooksImport string) ([]string, error) {
	if a.cfg.OutDir == "" {
		return nil, fmt.Errorf("autowatchdog: Instrument requires OutDir")
	}
	if hooksImport == "" {
		hooksImport = "gowatchdog/internal/autowatchdog/wdhooks"
	}
	if err := os.MkdirAll(a.cfg.OutDir, 0o755); err != nil {
		return nil, err
	}

	// Index retained op lines per file.
	targets := make(map[string]map[int]hookTarget) // file -> line -> target
	for _, r := range a.Regions {
		checker := a.CheckerName(r.Root)
		for _, op := range r.Ops {
			if targets[op.File] == nil {
				targets[op.File] = make(map[int]hookTarget)
			}
			targets[op.File][op.Line] = hookTarget{checker: checker, op: op}
		}
	}

	var written []string
	for name, file := range a.files {
		if lines := targets[name]; len(lines) > 0 {
			inserted := 0
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				inserted += a.instrumentBlock(fd.Body, lines)
			}
			if inserted > 0 {
				addNamedImport(file, "wdhooks", hooksImport)
			}
		}
		// The rewritten AST keeps the original positions, so the printer
		// misindents inserted hooks; a gofmt pass over its output fixes that.
		var buf bytes.Buffer
		cfg := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}
		if err := cfg.Fprint(&buf, a.fset, file); err != nil {
			return written, err
		}
		src, err := format.Source(buf.Bytes())
		if err != nil {
			return written, fmt.Errorf("autowatchdog: format %s: %w", name, err)
		}
		outPath := filepath.Join(a.cfg.OutDir, name)
		if err := os.WriteFile(outPath, src, 0o644); err != nil {
			return written, err
		}
		written = append(written, outPath)
	}
	return written, nil
}

// instrumentBlock inserts hooks into b for any target line whose innermost
// enclosing statement list is b's, and recurses into nested blocks and
// select/switch clause bodies. It returns the number of hooks inserted.
func (a *Analysis) instrumentBlock(b *ast.BlockStmt, lines map[int]hookTarget) int {
	n, list := a.instrumentList(b.List, lines)
	b.List = list
	return n
}

// instrumentList processes one statement list (a block body or a clause
// body) and returns the rewritten list.
func (a *Analysis) instrumentList(stmts []ast.Stmt, lines map[int]hookTarget) (int, []ast.Stmt) {
	inserted := 0
	out := make([]ast.Stmt, 0, len(stmts))
	for _, stmt := range stmts {
		// Clause bodies are statement lists without a BlockStmt wrapper; a
		// hook for an op inside them must land inside the clause.
		switch cl := stmt.(type) {
		case *ast.CommClause:
			k, nl := a.instrumentList(cl.Body, lines)
			cl.Body = nl
			inserted += k
			out = append(out, stmt)
			continue
		case *ast.CaseClause:
			k, nl := a.instrumentList(cl.Body, lines)
			cl.Body = nl
			inserted += k
			out = append(out, stmt)
			continue
		}
		// Recurse into nested blocks (their ops belong to them).
		ast.Inspect(stmt, func(n ast.Node) bool {
			if nb, ok := n.(*ast.BlockStmt); ok {
				inserted += a.instrumentBlock(nb, lines)
				return false
			}
			return true
		})
		if ht, call, ok := a.directTarget(stmt, lines); ok {
			out = append(out, buildHookStmt(ht.checker, ht.op, call))
			inserted++
		}
		out = append(out, stmt)
	}
	return inserted, out
}

// directTarget finds a target vulnerable call whose position lies in stmt
// but not inside any nested block of stmt.
func (a *Analysis) directTarget(stmt ast.Stmt, lines map[int]hookTarget) (hookTarget, *ast.CallExpr, bool) {
	var nested []*ast.BlockStmt
	ast.Inspect(stmt, func(n ast.Node) bool {
		if nb, ok := n.(*ast.BlockStmt); ok {
			nested = append(nested, nb)
			return false
		}
		return true
	})
	inNested := func(p token.Pos) bool {
		for _, nb := range nested {
			if p >= nb.Pos() && p <= nb.End() {
				return true
			}
		}
		return false
	}
	var found hookTarget
	var foundCall *ast.CallExpr
	ok := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if ok {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		line := a.fset.Position(call.Pos()).Line
		ht, hit := lines[line]
		if !hit || inNested(call.Pos()) {
			return true
		}
		found, foundCall, ok = ht, call, true
		return false
	})
	return found, foundCall, ok
}

// buildHookStmt constructs:
//
//	wdhooks.Capture("<checker>", map[string]any{"op": "<callee>", "argN": ident, ...})
//
// Only plain identifier arguments are captured — they are safe to
// re-evaluate and cheap to replicate.
func buildHookStmt(checker string, op VulnerableOp, call *ast.CallExpr) ast.Stmt {
	elts := []ast.Expr{
		&ast.KeyValueExpr{
			Key:   &ast.BasicLit{Kind: token.STRING, Value: strconv.Quote("op")},
			Value: &ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(op.Callee)},
		},
	}
	if call != nil {
		for i, arg := range call.Args {
			id, okID := arg.(*ast.Ident)
			if !okID || id.Name == "_" || id.Name == "nil" || id.Name == "true" || id.Name == "false" {
				continue
			}
			elts = append(elts, &ast.KeyValueExpr{
				Key:   &ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(fmt.Sprintf("arg%d", i))},
				Value: &ast.Ident{Name: id.Name},
			})
		}
	}
	return &ast.ExprStmt{X: &ast.CallExpr{
		Fun: &ast.SelectorExpr{
			X:   &ast.Ident{Name: "wdhooks"},
			Sel: &ast.Ident{Name: "Capture"},
		},
		Args: []ast.Expr{
			&ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(checker)},
			&ast.CompositeLit{
				Type: &ast.MapType{
					Key:   &ast.Ident{Name: "string"},
					Value: &ast.Ident{Name: "any"},
				},
				Elts: elts,
			},
		},
	}}
}

// addNamedImport prepends `import wdhooks "<path>"` to the file unless
// already present.
func addNamedImport(f *ast.File, name, path string) {
	for _, imp := range f.Imports {
		if imp.Path.Value == strconv.Quote(path) {
			return
		}
	}
	spec := &ast.ImportSpec{
		Name: &ast.Ident{Name: name},
		Path: &ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(path)},
	}
	decl := &ast.GenDecl{Tok: token.IMPORT, Specs: []ast.Spec{spec}}
	f.Decls = append([]ast.Decl{decl}, f.Decls...)
	f.Imports = append(f.Imports, spec)
}
