// Package faulthook keeps the chaos harness honest: every outbound dial
// site in the data plane must be reachable by the deterministic fault
// injector (internal/faults), or chaos coverage silently rots as new
// I/O paths appear. A function that dials must consult an
// *faults.Injector — Fail before the dial, or Conn to wrap the result —
// somewhere in its body.
//
// The one sanctioned exception is a function literal passed as a
// conntrack Dialer: the pool injects faults at its own boundary
// (pool.dial/pool.conn hooks around every dial it makes), so the raw
// dialer closure stays fault-free by design.
//
// Since distlint v2 the reachability is interprocedural: a body that
// calls a helper — in any module package, any number of frames deep —
// whose call-graph summary says a net.Dial is reachable with no
// injector consult anywhere along the chain is flagged at the call
// site, unless the body itself consults the injector (the Fail-before-
// dial pattern guards the whole subtree). The old engine only saw
// dials spelled `net.Dial*` in the body being analyzed.
package faulthook

import (
	"go/ast"
	"go/token"
	"go/types"

	"webcluster/internal/lint/analysis"
	"webcluster/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "faulthook",
	Doc: "check that data-plane dial sites consult the internal/faults " +
		"injector so chaos tests can reach them",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			check(pass, fd.Body)
		}
	}
	return nil
}

// check analyzes one declared function: each dial site must share a
// body with an injector call, where "body" means the innermost
// enclosing function (literal or declaration). Dials hidden behind
// helper calls count as dial sites of this body when the helper's
// summary says no injector consult guards them anywhere down the chain.
func check(pass *analysis.Pass, body *ast.BlockStmt) {
	dialerLits := collectDialerLits(pass, body)
	dials := dialSites(pass, body, body, dialerLits)
	dials = append(dials, helperDialSites(pass, body, body, dialerLits)...)
	if len(dials) == 0 {
		return
	}
	for _, d := range dials {
		if lintutil.CallsInjector(pass.TypesInfo, d.scope) {
			continue
		}
		if d.via != "" {
			pass.Reportf(d.call.Pos(), "call reaches an unhooked dial (%s) with no injector consult on the path; consult internal/faults here or inside the helper so chaos tests can exercise it", d.via)
			continue
		}
		pass.Reportf(d.call.Pos(), "dial site bypasses internal/faults; consult the injector (Fail before the dial or Conn on the result) so chaos tests can exercise this path")
	}
}

// helperDialSites finds calls to helpers whose summary carries an
// unhooked reachable dial. A helper declared in the caller's own file is
// skipped: this pass checks its body directly, so the dial is already
// reported where it lives. One in another file — of another package, or
// of this one, where the file may lie outside the analyzer's scope (in
// internal/mgmt only replication.go is in it) — is flagged at the call.
func helperDialSites(pass *analysis.Pass, n ast.Node, scope *ast.BlockStmt, dialerLits map[*ast.FuncLit]bool) []dialSite {
	var out []dialSite
	ast.Inspect(n, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			if v != n {
				if !dialerLits[v] {
					out = append(out, helperDialSites(pass, v.Body, v.Body, dialerLits)...)
				}
				return false
			}
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(pass.TypesInfo, v)
			if fn == nil || fn.Pkg() == pass.Pkg && fileOf(pass, fn.Pos()) == fileOf(pass, v.Pos()) {
				return true
			}
			if s := pass.Module.Summary(fn); s != nil && s.DialsUnhooked {
				out = append(out, dialSite{call: v, scope: scope, via: s.UnhookedVia})
			}
		}
		return true
	})
	return out
}

// fileOf returns the file of the package being checked that holds pos.
func fileOf(pass *analysis.Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// collectDialerLits finds function literals used where a named Dialer
// type is expected: passed to a parameter of that type, converted to
// it, or assigned to a variable of it.
func collectDialerLits(pass *analysis.Pass, body *ast.BlockStmt) map[*ast.FuncLit]bool {
	out := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.CallExpr:
			// Conversion: conntrack.Dialer(func(...) ...).
			if tv, ok := pass.TypesInfo.Types[v.Fun]; ok && tv.IsType() && isDialerType(tv.Type) {
				for _, arg := range v.Args {
					if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						out[fl] = true
					}
				}
				return true
			}
			// Call: NewPool(func(...) ..., ...) where the parameter is a
			// named Dialer.
			sig, ok := lintutil.TypeOf(pass.TypesInfo, v.Fun).(*types.Signature)
			if !ok {
				return true
			}
			for i, arg := range v.Args {
				fl, ok := ast.Unparen(arg).(*ast.FuncLit)
				if !ok {
					continue
				}
				pi := i
				if sig.Variadic() && pi >= sig.Params().Len() {
					pi = sig.Params().Len() - 1
				}
				if pi < sig.Params().Len() && isDialerType(sig.Params().At(pi).Type()) {
					out[fl] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				fl, ok := ast.Unparen(rhs).(*ast.FuncLit)
				if !ok || i >= len(v.Lhs) {
					continue
				}
				if t := lintutil.TypeOf(pass.TypesInfo, v.Lhs[i]); t != nil && isDialerType(t) {
					out[fl] = true
				}
			}
		}
		return true
	})
	return out
}

type dialSite struct {
	call *ast.CallExpr
	// scope is the innermost function body containing the dial; the
	// injector consult must happen within it.
	scope *ast.BlockStmt
	// via, when non-empty, names the helper chain the dial hides behind
	// (pkg.f → pkg.g); empty for direct net.Dial* sites.
	via string
}

// dialSites finds net dial calls under n, tracking the innermost
// function scope and skipping literals that serve as conntrack dialers.
func dialSites(pass *analysis.Pass, n ast.Node, scope *ast.BlockStmt, dialerLits map[*ast.FuncLit]bool) []dialSite {
	var out []dialSite
	ast.Inspect(n, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			if v != n {
				if !dialerLits[v] {
					out = append(out, dialSites(pass, v.Body, v.Body, dialerLits)...)
				}
				return false
			}
		case *ast.CallExpr:
			if lintutil.IsNetDial(pass.TypesInfo, v) {
				out = append(out, dialSite{call: v, scope: scope})
			}
		}
		return true
	})
	return out
}

func isDialerType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Dialer"
}
