package analysis

import (
	"go/ast"
	"go/types"

	"webcluster/internal/lint/load"
)

// Module is the interprocedural state shared by every pass of a run: the
// declared functions of every package seen so far and their summaries.
// A call resolves statically (CalleeFunc) to a declaration here; calls
// through interface values, function-typed variables and reflection
// resolve to nothing (DESIGN.md §15, soundness limits).
type Module struct {
	byPath map[string]*load.Package
	decls  map[*types.Func]decl

	summaries map[*types.Func]*Summary
	inFlight  map[*types.Func]bool

	// source resolves a module import path to an already-loaded package
	// so summaries can chase helpers into packages that were only pulled
	// in as imports (the loader's cache).
	source func(path string) *load.Package
}

// decl is one declared function or method and the package it lives in.
type decl struct {
	fd  *ast.FuncDecl
	pkg *load.Package
}

// NewModule returns an empty module whose lazy package lookups go to
// source (the loader's cache).
func NewModule(source func(path string) *load.Package) *Module {
	return &Module{
		source:    source,
		byPath:    make(map[string]*load.Package),
		decls:     make(map[*types.Func]decl),
		summaries: make(map[*types.Func]*Summary),
		inFlight:  make(map[*types.Func]bool),
	}
}

// Package returns the loaded module package at path — added to this
// module or only in the loader's cache — or nil.
func (m *Module) Package(path string) *load.Package {
	if p := m.byPath[path]; p != nil {
		return p
	}
	return m.source(path)
}

// add indexes pkg's function declarations. Idempotent per path.
func (m *Module) add(pkg *load.Package) {
	if m.byPath[pkg.Path] != nil {
		return
	}
	m.byPath[pkg.Path] = pkg
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				m.decls[fn] = decl{fd: fd, pkg: pkg}
			}
		}
	}
}

// declOf returns fn's declaration, adding its package lazily when the
// loader has it; ok is false for stdlib and unresolved functions.
func (m *Module) declOf(fn *types.Func) (decl, bool) {
	d, ok := m.decls[fn]
	if !ok && fn.Pkg() != nil {
		if lp := m.Package(fn.Pkg().Path()); lp != nil && m.byPath[lp.Path] == nil {
			m.add(lp)
			d, ok = m.decls[fn]
		}
	}
	return d, ok
}

// CalleeFunc statically resolves a call's target to a *types.Func:
// direct function calls, method calls on concrete receivers, and
// method values. Interface dispatch and function-typed values return
// nil.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		// Interface method calls resolve to the interface's *types.Func;
		// those have no declaration anywhere, and declOf reports !ok,
		// which is the unresolved behavior we want.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
