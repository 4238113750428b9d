// Package lintutil holds the small AST/type helpers the distlint
// analyzers share: callee naming, receiver typing, selector roots, and
// recognizers for the calls and std types the invariants are phrased in
// terms of (net dials, fault-injector consults, sync.Pool, sync.Mutex,
// sync.Cond, net.Conn, atomic.Pointer).
package lintutil

import (
	"go/ast"
	"go/types"
)

// CalleeName returns the bare name of a call's callee: "f" for f(x),
// "m" for recv.m(x), "" when the callee is not a named function or
// method (e.g. a call of a call).
func CalleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// Receiver returns the receiver expression of a method call (recv for
// recv.m(x)), nil for plain function calls.
func Receiver(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// RootIdent walks a selector/index/star/paren chain to its base
// identifier: s.a.b[i] → s. Returns nil when the base is not an ident.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// Deref strips pointers from t.
func Deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isNamed reports whether t (after stripping pointers) is the named
// type pkgPath.name. The path match accepts both exact equality and a
// suffix match so module-local packages compare the same whether the
// loader saw them under their full or relative import path.
func isNamed(t types.Type, pkgPath, name string) bool {
	n, ok := Deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == pkgPath || (len(p) > len(pkgPath) && p[len(p)-len(pkgPath)-1] == '/' && p[len(p)-len(pkgPath):] == pkgPath)
}

// IsSyncPool reports whether t is sync.Pool (or *sync.Pool).
func IsSyncPool(t types.Type) bool { return isNamed(t, "sync", "Pool") }

// IsSyncCond reports whether t is sync.Cond (or *sync.Cond).
func IsSyncCond(t types.Type) bool { return isNamed(t, "sync", "Cond") }

// IsMutex reports whether t is sync.Mutex or sync.RWMutex.
func IsMutex(t types.Type) bool {
	return isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex")
}

// IsAtomicPointer reports whether t is sync/atomic.Pointer[T] (or a
// pointer to one).
func IsAtomicPointer(t types.Type) bool {
	n, ok := Deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Pointer" && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// NetConnIface returns the net.Conn interface type if pkg (or one of
// its imports, transitively one level) imports net; nil otherwise.
func NetConnIface(pkg *types.Package) *types.Interface {
	var netPkg *types.Package
	var find func(p *types.Package, depth int)
	seen := map[*types.Package]bool{}
	find = func(p *types.Package, depth int) {
		if netPkg != nil || seen[p] || depth > 3 {
			return
		}
		seen[p] = true
		if p.Path() == "net" {
			netPkg = p
			return
		}
		for _, imp := range p.Imports() {
			find(imp, depth+1)
		}
	}
	find(pkg, 0)
	if netPkg == nil {
		return nil
	}
	obj := netPkg.Scope().Lookup("Conn")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// IsNetConn reports whether t satisfies the net.Conn interface (conn is
// nil-safe: returns false when the package graph has no net).
func IsNetConn(t types.Type, conn *types.Interface) bool {
	if conn == nil || t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.Invalid {
		return false
	}
	if types.Implements(t, conn) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), conn)
	}
	return false
}

// TypeOf is a nil-safe info.Types lookup.
func TypeOf(info *types.Info, e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	return info.TypeOf(e)
}

// ObjectOf resolves an identifier to its object via Uses then Defs.
func ObjectOf(info *types.Info, id *ast.Ident) types.Object {
	if id == nil {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// IsNetDial reports a direct call of one of package net's dial functions.
func IsNetDial(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Dial", "DialTimeout", "DialContext", "DialTCP", "DialUDP", "DialIP":
	default:
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := ObjectOf(info, id).(*types.PkgName)
	return ok && pn.Imported().Path() == "net"
}

// CallsInjector reports whether body calls a method on an
// *faults.Injector (Fail, Conn, Listener, ...), not counting nested
// function literals: a consult inside a callback guards nothing here.
func CallsInjector(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		if found {
			return false
		}
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			if t := TypeOf(info, Receiver(call)); t != nil && isNamed(t, "webcluster/internal/faults", "Injector") {
				found = true
			}
		}
		return !found
	})
	return found
}
