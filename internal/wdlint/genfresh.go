package wdlint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"gowatchdog/internal/autowatchdog"
)

// GenFreshAnalyzer re-runs the AutoWatchdog generator for every committed
// *_wd_gen.go file in the analyzed packages and flags files that drifted from
// the current generator output. The source package is recovered from the
// file's provenance header:
//
//	// awgen:source <module-relative-dir>
//
// which awgen emits into every generated file. A generated file without a
// source header, whose source directory no longer exists, or whose source
// directory no longer holds a compilable package (the package moved out from
// under the header) gets a warning: its freshness cannot be verified.
//
// The comparison uses the generator's default configuration. Files generated
// with custom -entries or patterns should carry a //wdlint:ignore genfresh
// directive explaining the configuration.
type GenFreshAnalyzer struct{}

// Name implements Analyzer.
func (*GenFreshAnalyzer) Name() string { return "genfresh" }

// Doc implements Analyzer.
func (*GenFreshAnalyzer) Doc() string {
	return "*_wd_gen.go files must match the current AutoWatchdog generator output (§4)"
}

// Run implements Analyzer.
func (a *GenFreshAnalyzer) Run(u *Unit) []Diag {
	var diags []Diag
	report := func(p *Package, pos token.Pos, sev Severity, format string, args ...any) {
		diags = append(diags, Diag{
			Pos:      p.Pos(pos),
			Analyzer: a.Name(),
			Severity: sev,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, p := range u.Pkgs {
		for _, f := range p.Files {
			name := p.FileName[f]
			if !strings.HasSuffix(name, "_wd_gen.go") {
				continue
			}
			src := directiveValue(p, f, autowatchdog.GenSourceDirective)
			if src == "" {
				report(p, f.Pos(), SevWarn,
					"%s has no %q header; its freshness cannot be verified — regenerate it with the current awgen",
					filepath.Base(name), autowatchdog.GenSourceDirective)
				continue
			}
			srcDir := filepath.Join(u.Loader.ModuleRoot, filepath.FromSlash(src))
			if st, err := os.Stat(srcDir); err != nil || !st.IsDir() {
				report(p, f.Pos(), SevWarn,
					"%s claims source %q, which does not exist under the module root", filepath.Base(name), src)
				continue
			}
			if !hasGoFiles(srcDir) {
				report(p, f.Pos(), SevWarn,
					"%s claims source %q, which no longer holds a compilable package — the source moved; regenerate against its new location",
					filepath.Base(name), src)
				continue
			}

			analysis, err := autowatchdog.Analyze(autowatchdog.Config{PackageDir: srcDir})
			if err != nil {
				report(p, f.Pos(), SevWarn,
					"%s: re-analyzing source %q failed: %v", filepath.Base(name), src, err)
				continue
			}
			committed, err := os.ReadFile(name)
			if err != nil {
				report(p, f.Pos(), SevWarn, "%s: %v", filepath.Base(name), err)
				continue
			}
			if !bytes.Equal(analysis.GeneratedSource(), committed) {
				report(p, f.Pos(), SevError,
					"%s drifted from the current generator output for %s; regenerate: go run ./cmd/awgen -pkg %s -out %s -quiet",
					filepath.Base(name), src, src, moduleRel(u, p.Dir))
			}
		}
	}
	return diags
}

// directiveValue extracts the value of a "// <directive> <value>" comment
// from a file, or "" if absent.
func directiveValue(p *Package, f *ast.File, directive string) string {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, directive+" "); ok {
				return strings.TrimSpace(rest)
			}
		}
	}
	return ""
}

// moduleRel renders dir relative to the module root for regen hints.
func moduleRel(u *Unit, dir string) string {
	rel, err := filepath.Rel(u.Loader.ModuleRoot, dir)
	if err != nil {
		return dir
	}
	return filepath.ToSlash(rel)
}
