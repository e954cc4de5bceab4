package wdlint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// DriverCfgAnalyzer sanity-checks driver and checker configuration at
// Register/New call sites:
//
//   - constant zero or negative durations passed to watchdog.Timeout,
//     watchdog.Every, watchdog.WithTimeout, or watchdog.WithInterval — a
//     zero timeout disables hang detection entirely, which defeats the
//     driver's §3.3 confinement;
//   - constant non-positive thresholds (watchdog.Threshold), which would
//     alarm on the very first soft failure or never;
//   - nil validators (watchdog.ValidateWith(nil));
//   - two Register calls in one function statically registering the same
//     checker name, which panics at run time;
//   - drivers that are started with no report sink: no OnReport/OnAlarm
//     listener, no observer (SetObserver), and no polling of
//     driver state — every detection would be computed and dropped.
type DriverCfgAnalyzer struct{}

// Name implements Analyzer.
func (*DriverCfgAnalyzer) Name() string { return "drivercfg" }

// Doc implements Analyzer.
func (*DriverCfgAnalyzer) Doc() string {
	return "checker registrations need sane timeouts, thresholds, and validators"
}

// durationOpts are watchdog option functions taking a duration that must be
// positive.
var durationOpts = map[string]bool{
	"Timeout": true, "Every": true, "WithTimeout": true, "WithInterval": true,
}

// Run implements Analyzer.
func (a *DriverCfgAnalyzer) Run(u *Unit) []Diag {
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
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				a.checkSinkless(p, fd, report)
				// names tracks checker names statically registered in this
				// function, to catch duplicate registrations.
				names := make(map[string]token.Pos)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if name := watchdogFunc(p, call.Fun); name != "" {
						a.checkOption(p, name, call, report)
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Register" || len(call.Args) == 0 {
						return true
					}
					name, ok := registeredName(p, call.Args[0])
					if !ok {
						return true
					}
					if _, dup := names[name]; dup {
						report(p, call.Pos(), SevError,
							"checker %q is already registered in this function; duplicate names panic at run time", name)
					} else {
						names[name] = call.Pos()
					}
					return true
				})
			}
		}
	}
	return diags
}

// sinkMethods install a report consumer on the driver; calling any of them
// means detections reach someone.
var sinkMethods = map[string]bool{
	"OnReport": true, "OnAlarm": true, "SetObserver": true,
}

// consumeMethods read driver verdicts on demand, which is a legitimate
// alternative to a push sink (tests and experiments poll).
var consumeMethods = map[string]bool{
	"CheckNow": true, "CheckAll": true, "Latest": true, "History": true,
	"CheckerStats": true, "Healthy": true, "State": true,
}

// checkSinkless flags drivers constructed with watchdog.New, started in the
// same function, whose reports and alarms observably go nowhere: no sink
// method, no on-demand consumption, and the driver
// variable never escapes the function (an escaping driver may be wired
// elsewhere, e.g. store.InstallWatchdog(driver, ...)).
func (a *DriverCfgAnalyzer) checkSinkless(p *Package, fd *ast.FuncDecl,
	report func(*Package, token.Pos, Severity, string, ...any)) {
	type driverInfo struct {
		pos      token.Pos
		hasSink  bool
		consumed bool
		started  bool
		escaped  bool
	}
	byObj := make(map[types.Object]*driverInfo)
	accounted := make(map[*ast.Ident]bool)

	// Pass 1: find `x := watchdog.New(...)` constructions.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok || watchdogFunc(p, call.Fun) != "New" {
			return true
		}
		id, ok := assign.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id] // plain `=` rebinding
		}
		if obj == nil {
			return true
		}
		byObj[obj] = &driverInfo{pos: call.Pos()}
		accounted[id] = true
		return true
	})
	if len(byObj) == 0 {
		return
	}

	// Pass 2: classify method calls on the tracked drivers.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		di := byObj[p.Info.Uses[id]]
		if di == nil {
			return true
		}
		accounted[id] = true
		switch {
		case sinkMethods[sel.Sel.Name]:
			di.hasSink = true
		case consumeMethods[sel.Sel.Name]:
			di.consumed = true
		case sel.Sel.Name == "Start":
			di.started = true
		}
		return true
	})

	// Pass 3: any remaining reference is an escape (argument, field store,
	// return, closure capture feeding one of those, ...).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || accounted[id] {
			return true
		}
		if di := byObj[p.Info.Uses[id]]; di != nil {
			di.escaped = true
		}
		return true
	})

	for _, di := range byObj {
		if di.started && !di.hasSink && !di.consumed && !di.escaped {
			report(p, di.pos, SevWarn,
				"driver is started but no report sink is wired: add OnReport/OnAlarm, an observer (SetObserver), or poll its state — detections are computed and dropped otherwise")
		}
	}
}

// checkOption validates a single watchdog.<Option>(...) call.
func (a *DriverCfgAnalyzer) checkOption(p *Package, name string, call *ast.CallExpr,
	report func(*Package, token.Pos, Severity, string, ...any)) {
	switch {
	case durationOpts[name]:
		if len(call.Args) != 1 {
			return
		}
		if v, ok := constInt(p, call.Args[0]); ok && v <= 0 {
			report(p, call.Pos(), SevError,
				"watchdog.%s(%d) disables the deadline; hang detection needs a positive duration (§3.3)", name, v)
		}
	case name == "Threshold":
		if len(call.Args) != 1 {
			return
		}
		if v, ok := constInt(p, call.Args[0]); ok && v <= 0 {
			report(p, call.Pos(), SevError,
				"watchdog.Threshold(%d) is non-positive; the alarm would fire immediately or never", v)
		}
	case name == "ValidateWith":
		if len(call.Args) != 1 {
			return
		}
		if id, ok := call.Args[0].(*ast.Ident); ok && id.Name == "nil" {
			report(p, call.Pos(), SevError,
				"watchdog.ValidateWith(nil) registers a validator that can never run")
		}
	}
}

// constInt evaluates e as a constant integer (covers untyped ints and
// time.Duration expressions folded by the type checker).
func constInt(p *Package, e ast.Expr) (int64, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		// Placeholder imports (time) can leave `0 * time.Second` untyped;
		// catch the plain-literal-zero case directly.
		if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.INT && lit.Value == "0" {
			return 0, true
		}
		return 0, false
	}
	if tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(tv.Value)
	if !exact {
		return 0, false
	}
	return v, true
}

// registeredName statically resolves the checker name of a Register call's
// first argument: watchdog.NewChecker("name", ...), a CheckFunc literal, or
// any call whose first argument is a constant string (the checkers package
// convention: checkers.HeapLimit("name", ...)).
func registeredName(p *Package, arg ast.Expr) (string, bool) {
	switch arg := arg.(type) {
	case *ast.CallExpr:
		if len(arg.Args) == 0 {
			return "", false
		}
		if watchdogFunc(p, arg.Fun) == "NewChecker" {
			return constString(p, arg.Args[0])
		}
		// checkers.HeapLimit("name", ...) and friends: only trust the
		// convention when the first argument is a constant string AND the
		// callee is package-qualified (local constructors usually bake the
		// name in, so a shared first argument would be a false positive).
		if sel, ok := arg.Fun.(*ast.SelectorExpr); ok {
			if base := selBase(sel); base != nil {
				if _, isPkg := p.Info.Uses[base].(*types.PkgName); isPkg {
					return constString(p, arg.Args[0])
				}
			}
		}
	case *ast.CompositeLit:
		if !isCheckFuncType(p, arg.Type) {
			return "", false
		}
		for _, el := range arg.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "CheckerName" {
					return constString(p, kv.Value)
				}
			}
		}
	}
	return "", false
}

// selBase returns the base identifier of a selector expression.
func selBase(sel *ast.SelectorExpr) *ast.Ident {
	if id, ok := sel.X.(*ast.Ident); ok {
		return id
	}
	return nil
}
