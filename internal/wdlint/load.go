package wdlint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package. Type checking is
// tolerant: in-module imports are resolved from source, everything else
// (the standard library included) is satisfied with empty placeholder
// packages, so Info is always populated but individual expressions may lack
// type information. Analyzers must degrade gracefully when they do.
type Package struct {
	// Dir is the package directory on disk.
	Dir string
	// ImportPath is the module-qualified import path.
	ImportPath string
	// Name is the declared package name.
	Name string
	// Fset is the file set shared across every package of one Loader.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// FileName maps each parsed file back to its absolute path.
	FileName map[*ast.File]string
	// Types is the (possibly incomplete) type-checked package.
	Types *types.Package
	// Info holds the use/def/selection maps produced by type checking.
	Info *types.Info
	// TypeErrors are the tolerated type-checking errors, kept for debugging.
	TypeErrors []error
}

// Pos converts a token.Pos into a Position using the shared file set.
func (p *Package) Pos(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// Loader loads packages of a single Go module for analysis. It memoizes by
// import path so shared dependencies (e.g. the watchdog core) are parsed and
// type-checked once per run.
type Loader struct {
	fset *token.FileSet
	// ModuleRoot is the directory holding go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string

	pkgs         map[string]*Package       // by import path
	placeholders map[string]*types.Package // non-module imports
	loading      map[string]bool           // cycle guard
}

// NewLoader locates the module enclosing startDir and returns a loader for
// it.
func NewLoader(startDir string) (*Loader, error) {
	abs, err := filepath.Abs(startDir)
	if err != nil {
		return nil, err
	}
	dir := abs
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			mp := modulePath(data)
			if mp == "" {
				return nil, fmt.Errorf("wdlint: no module path in %s/go.mod", dir)
			}
			return &Loader{
				fset:         token.NewFileSet(),
				ModuleRoot:   dir,
				ModulePath:   mp,
				pkgs:         make(map[string]*Package),
				placeholders: make(map[string]*types.Package),
				loading:      make(map[string]bool),
			}, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("wdlint: no go.mod found above %s", abs)
		}
		dir = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Expand resolves command-line package patterns into directories. A pattern
// ending in "/..." walks the tree below it (skipping testdata, vendor,
// hidden directories, and — as the go tool does — nested modules, which are
// linted by naming them); other patterns name single directories. Only
// directories containing non-test Go files are returned.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if abs, err := filepath.Abs(dir); err == nil && !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Clean(strings.TrimSuffix(rest, "/"))
			if root == "" {
				root = "."
			}
			found, err := packageDirs(root, func(string) bool { return false })
			if err != nil {
				return nil, fmt.Errorf("wdlint: expand %q: %w", pat, err)
			}
			for _, d := range found {
				add(d)
			}
			continue
		}
		if !hasGoFiles(pat) {
			return nil, fmt.Errorf("wdlint: %s contains no Go files", pat)
		}
		add(pat)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// packageDirs walks root for directories holding non-test Go files. It skips
// testdata, vendor and hidden directories, and nested modules unless
// enterModule accepts them.
func packageDirs(root string, enterModule func(dir string) bool) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			fileExists(filepath.Join(path, "go.mod")) && !enterModule(path)) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// hasGoFiles reports whether dir directly contains non-test Go files.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir loads the package in dir.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("wdlint: %s is outside module %s", dir, l.ModuleRoot)
	}
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path)
}

// load loads the package with the given in-module import path.
func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wdlint: %w", err)
	}
	p := &Package{
		Dir:        dir,
		ImportPath: path,
		Fset:       l.fset,
		FileName:   make(map[*ast.File]string),
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("wdlint: parse %s: %w", full, err)
		}
		// Tolerate stray files of a different package (e.g. goldens or
		// generated leftovers) by keeping only the majority package, which
		// is the first one seen: Go packages are one-per-directory.
		if p.Name == "" {
			p.Name = f.Name.Name
		}
		if f.Name.Name != p.Name {
			continue
		}
		p.Files = append(p.Files, f)
		p.FileName[f] = full
	}
	if len(p.Files) == 0 {
		return nil, fmt.Errorf("wdlint: no Go files in %s", dir)
	}

	l.loading[path] = true
	defer delete(l.loading, path)

	imp := &moduleImporter{l: l}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := types.Config{
		Importer: imp,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
		// Keep going on missing imports: placeholders make most of the
		// standard library opaque on purpose.
		FakeImportC:              true,
		DisableUnusedImportCheck: true,
	}
	p.Types, _ = cfg.Check(path, l.fset, p.Files, p.Info)
	l.pkgs[path] = p
	return p, nil
}

// Loaded returns every package loaded so far (requested or as an in-module
// dependency), sorted by import path.
func (l *Loader) Loaded() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out
}

// moduleImporter resolves in-module imports by recursively loading them from
// source and satisfies everything else with a named, empty placeholder. The
// placeholder is marked complete so references through it fail as ordinary
// (tolerated) type errors rather than aborting the check.
type moduleImporter struct {
	l *Loader
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := m.l
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		if !l.loading[path] {
			if p, err := l.load(path); err == nil && p.Types != nil {
				return p.Types, nil
			}
		}
		// Import cycle or unloadable sibling: fall through to a placeholder.
	}
	if pkg, ok := l.placeholders[path]; ok {
		return pkg, nil
	}
	name := path
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	// "go-foo" style elements and version suffixes never occur in std; the
	// base element is the package name for every import this repo uses.
	pkg := types.NewPackage(path, name)
	pkg.MarkComplete()
	l.placeholders[path] = pkg
	return pkg, nil
}
