// Package wdlint statically verifies watchdog hygiene across a Go module.
//
// The watchdog abstraction (§3 of the paper) only delivers its guarantees —
// side-effect isolation, accurate hang pinpointing, synchronized contexts —
// when checker code follows a handful of conventions that the compiler does
// not enforce. wdlint closes that gap with six analyzers:
//
//	isolation   checkers must not mutate state shared with the main program
//	            (§3.2: "watchdogs should not incur side effects")
//	contextsync every context key a checker reads must be synchronized by a
//	            hook somewhere, and vice versa (§3.2 one-way sync)
//	fateshare   vulnerable operations inside checkers must run under
//	            watchdog.Op so hangs are pinpointed and confined (§3.3)
//	drivercfg   checker registrations need sane timeouts/thresholds
//	runtimecfg  deployment packages (commands, the campaign layer) must
//	            compose the stack through wdruntime, not bare watchdog.New
//	            or hand-wired wdmesh.New
//	genfresh    *_wd_gen.go files must match the current AutoWatchdog
//	            generator output (§4)
//
// Findings can be suppressed with a comment directive:
//
//	//wdlint:ignore <analyzer> [reason]
//
// placed on (or immediately above) the offending line, or in the doc comment
// of the enclosing function to suppress the analyzer for the whole function.
package wdlint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Severity ranks a finding.
type Severity int

const (
	// SevInfo marks observations that are often intentional (e.g. context
	// keys synchronized for report payloads but never read by a checker).
	SevInfo Severity = iota
	// SevWarn marks likely mistakes that do not break the abstraction.
	SevWarn
	// SevError marks violations of the watchdog contract.
	SevError
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarn:
		return "warn"
	default:
		return "info"
	}
}

// MarshalJSON renders the severity as its string name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// ParseSeverity converts a name ("info", "warn", "error") to a Severity.
func ParseSeverity(name string) (Severity, error) {
	switch name {
	case "info":
		return SevInfo, nil
	case "warn", "warning":
		return SevWarn, nil
	case "error":
		return SevError, nil
	}
	return SevInfo, fmt.Errorf("wdlint: unknown severity %q", name)
}

// Related points at a secondary location that explains a finding (e.g. the
// hook that synchronizes a key, or the declaration of a mutated variable).
type Related struct {
	Pos     token.Position `json:"pos"`
	Message string         `json:"message"`
}

// Diag is one finding.
type Diag struct {
	Pos      token.Position `json:"pos"`
	Analyzer string         `json:"analyzer"`
	Severity Severity       `json:"severity"`
	Message  string         `json:"message"`
	Related  []Related      `json:"related,omitempty"`
}

// String renders the finding in the conventional file:line:col form.
func (d Diag) String() string {
	return fmt.Sprintf("%s: %s: [%s] %s", d.Pos, d.Severity, d.Analyzer, d.Message)
}

// Analyzer is one wdlint check.
type Analyzer interface {
	// Name is the short identifier used in output and ignore directives.
	Name() string
	// Doc is a one-line description.
	Doc() string
	// Run analyzes the unit and returns findings.
	Run(u *Unit) []Diag
}

// Unit is the shared input handed to every analyzer: the loader (for its
// module metadata and transitively loaded packages) plus the packages the
// user asked to lint. Analyzers report only on Pkgs but may consult
// everything the loader has seen — contextsync, for example, matches checker
// reads in one package against hook sites in another.
type Unit struct {
	Loader *Loader
	// Pkgs are the requested packages, sorted by import path.
	Pkgs []*Package

	checkers []*CheckerBody // lazily discovered, see Checkers()
}

// All returns the builtin analyzers in their canonical order.
func All() []Analyzer {
	return []Analyzer{
		&IsolationAnalyzer{},
		&ContextSyncAnalyzer{},
		&FateShareAnalyzer{},
		&DriverCfgAnalyzer{},
		&RuntimeCfgAnalyzer{},
		&GenFreshAnalyzer{},
	}
}

// Run loads the packages matched by patterns (relative to dir), runs the
// analyzers over them, filters findings through //wdlint:ignore directives,
// and returns the remainder sorted by position.
func Run(dir string, patterns []string, analyzers []Analyzer) ([]Diag, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		return nil, err
	}
	u := &Unit{Loader: loader}
	for _, d := range dirs {
		p, err := loader.LoadDir(d)
		if err != nil {
			return nil, err
		}
		u.Pkgs = append(u.Pkgs, p)
	}
	var diags []Diag
	for _, a := range analyzers {
		diags = append(diags, a.Run(u)...)
	}
	diags = filterIgnored(u, diags)
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// MarshalDiags renders findings as indented JSON (an array, never null).
// Each finding carries a flat "location" field in file:line:col form next to
// the structured position, so line-oriented consumers (CI annotators, editor
// integrations) need no position reassembly.
func MarshalDiags(diags []Diag) ([]byte, error) {
	type diagJSON struct {
		Diag
		Location string `json:"location"`
	}
	out := make([]diagJSON, 0, len(diags))
	for _, d := range diags {
		out = append(out, diagJSON{Diag: d, Location: d.Pos.String()})
	}
	return json.MarshalIndent(out, "", "  ")
}

// ignoreDirective is a parsed //wdlint:ignore comment.
type ignoreDirective struct {
	analyzer string // "" means all analyzers
	line     int    // line the directive comment is on
	funcFrom int    // if >0, suppress the whole [funcFrom, funcTo] line range
	funcTo   int
	file     string
}

// matches reports whether the directive suppresses d.
func (ig ignoreDirective) matches(d Diag) bool {
	if ig.file != d.Pos.Filename {
		return false
	}
	if ig.analyzer != "" && ig.analyzer != d.Analyzer {
		return false
	}
	if ig.funcFrom > 0 {
		return d.Pos.Line >= ig.funcFrom && d.Pos.Line <= ig.funcTo
	}
	return d.Pos.Line == ig.line || d.Pos.Line == ig.line+1
}

// filterIgnored drops findings suppressed by //wdlint:ignore directives in
// the analyzed packages.
func filterIgnored(u *Unit, diags []Diag) []Diag {
	var directives []ignoreDirective
	for _, p := range u.Pkgs {
		for _, f := range p.Files {
			fname := p.FileName[f]
			// Doc-comment directives suppress their whole function body.
			funcRange := make(map[*ast.CommentGroup][2]int)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Doc != nil {
					from := p.Pos(fd.Pos()).Line
					to := p.Pos(fd.End()).Line
					funcRange[fd.Doc] = [2]int{from, to}
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//wdlint:ignore")
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					ig := ignoreDirective{
						file: fname,
						line: p.Pos(c.Pos()).Line,
					}
					if len(fields) > 0 {
						ig.analyzer = fields[0]
					}
					if r, ok := funcRange[cg]; ok {
						ig.funcFrom, ig.funcTo = r[0], r[1]
					}
					directives = append(directives, ig)
				}
			}
		}
	}
	if len(directives) == 0 {
		return diags
	}
	out := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, ig := range directives {
			if ig.matches(d) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}
