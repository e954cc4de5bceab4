package wdlint

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// TestOnlyAnalyzer lists the exported identifiers of library packages that
// no non-test code references: API kept alive only by its own tests. Each
// one wants a production caller, a home in an export_test.go, or deletion.
// Use sites are every non-test file of the module tree, nested modules
// included (the benchmark module drives the stores through their exported
// API). A method whose name an interface declares, or that some call through
// an opaque standard-library type may reach, is not reported: its callers
// are dynamic. The findings are info-level; `make lint` prints the count.
type TestOnlyAnalyzer struct{}

// Name implements Analyzer.
func (*TestOnlyAnalyzer) Name() string { return "testonly" }

// Doc implements Analyzer.
func (*TestOnlyAnalyzer) Doc() string {
	return "exported identifiers of library packages that only tests reference"
}

// stdInterfaceMethods satisfy standard-library interfaces. The loader types
// the standard library as opaque placeholders, so they are matched by name.
const stdInterfaceMethods = "String GoString Format Error Unwrap Is As MarshalJSON UnmarshalJSON " +
	"MarshalText UnmarshalText ServeHTTP Read Write Close Seek ReadAt WriteTo ReadFrom " +
	"Len Less Swap Push Pop Lock Unlock"

// Run implements Analyzer.
func (a *TestOnlyAnalyzer) Run(u *Unit) []Diag {
	used := make(map[types.Object]bool)
	dynamic := make(map[string]bool)
	for _, name := range strings.Fields(stdInterfaceMethods) {
		dynamic[name] = true
	}
	for _, p := range append(useSites(u.Loader), u.Pkgs...) {
		for _, obj := range p.Info.Uses {
			used[origin(obj)] = true
		}
		for _, obj := range p.Info.Defs {
			if f, ok := obj.(*types.Func); ok {
				if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					dynamic[f.Name()] = true
				}
			}
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && p.Info.Uses[sel.Sel] == nil {
					dynamic[sel.Sel.Name] = true // unresolved: typed through a placeholder
				}
				return true
			})
		}
	}

	var diags []Diag
	report := func(p *Package, obj types.Object, name string) {
		diags = append(diags, Diag{
			Pos:      p.Pos(obj.Pos()),
			Analyzer: a.Name(),
			Severity: SevInfo,
			Message: fmt.Sprintf("%s.%s is exported but only tests reference it; give it a non-test caller, move it into export_test.go, or delete it",
				p.Name, name),
		})
	}
	for _, p := range u.Pkgs {
		if p.Name == "main" || p.Types == nil {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				report(p, obj, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !used[m] && !dynamic[m.Name()] {
					report(p, m, name+"."+m.Name())
				}
			}
		}
	}
	return diags
}

// origin maps an instantiated generic function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// useSites loads every non-test package of the module tree, entering a nested
// module whose path extends this one's: its imports of this module resolve
// from source like any in-module import.
func useSites(l *Loader) []*Package {
	dirs, _ := packageDirs(l.ModuleRoot, func(dir string) bool {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		rel, _ := filepath.Rel(l.ModuleRoot, dir)
		return err == nil && modulePath(data) == l.ModulePath+"/"+filepath.ToSlash(rel)
	})
	var pkgs []*Package
	for _, d := range dirs {
		if p, err := l.LoadDir(d); err == nil {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}
