// Package cowdiscipline enforces the copy-on-write read path that the
// urltable trie and the respcache shard entries depend on: a value
// reached through atomic.Pointer.Load is a shared snapshot that
// concurrent readers are traversing lock-free, so nothing may ever be
// assigned through it. Mutators must clone the spine first (the
// insertAt/removeAt pattern) and publish the new root with Store.
//
// Two taint sources exist:
//
//   - the result of a Load() call on any sync/atomic.Pointer[T], and
//     every value read out of it through selector/index chains;
//   - any parameter whose type declaration carries a `distlint:cow`
//     marker in its doc comment, unless the function is a method of the
//     marked type itself or a clone helper (name contains "clone" or
//     "Clone") — those are the sanctioned mutation sites.
//
// Assignments whose left-hand side is rooted at a tainted value are
// reported. Calling methods (atomic counters like entry.hits.Add) and
// reading fields are fine — only writes break the discipline.
package cowdiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"webcluster/internal/lint/analysis"
	"webcluster/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "cowdiscipline",
	Doc: "check that no value reached from atomic.Pointer.Load (or marked " +
		"distlint:cow) is written through — copy-on-write structures are " +
		"mutated via clones and republished with Store",
	Run: run,
}

func run(pass *analysis.Pass) error {
	marked := markedTypes(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, marked)
		}
	}
	return nil
}

// markedTypes collects the named types whose declaration doc carries a
// `distlint:cow` marker, in this package and in every module package it
// imports. A doc comment lives only in the declaring package's syntax, so
// each import's is read from the analysis module: a snapshot type defined
// in urltable is protected when a caller in the distributor writes
// through it.
func markedTypes(pass *analysis.Pass) map[string]bool {
	marked := make(map[string]bool)
	collect := func(pkgPath string, files []*ast.File) {
		for _, file := range files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = gd.Doc
					}
					if doc != nil && strings.Contains(doc.Text(), "distlint:cow") {
						marked[pkgPath+"."+ts.Name.Name] = true
					}
				}
			}
		}
	}
	collect(pass.Pkg.Path(), pass.Files)
	for _, imp := range pass.Pkg.Imports() {
		if lp := pass.Module.Package(imp.Path()); lp != nil {
			collect(imp.Path(), lp.Files)
		}
	}
	return marked
}

// cowMarked reports whether t (or *t) is a type carrying the
// distlint:cow marker.
func cowMarked(t types.Type, marked map[string]bool) bool {
	n, ok := lintutil.Deref(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return marked[n.Obj().Pkg().Path()+"."+n.Obj().Name()]
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, marked map[string]bool) {
	tainted := make(map[*ast.Object]bool)

	// Parameters of marked types arrive as shared snapshots — except in
	// the sanctioned mutation sites: the marked type's own methods and
	// clone helpers, which by contract operate on fresh copies.
	if fd.Type.Params != nil && !mutationSite(pass, fd, marked) {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if name.Obj == nil {
					continue
				}
				t := lintutil.TypeOf(pass.TypesInfo, field.Type)
				if t != nil && cowMarked(t, marked) {
					tainted[name.Obj] = true
				}
			}
		}
	}

	// Propagate taint to a fixpoint: `v := snapshot.Load()` seeds it,
	// `child := v.children[i]` spreads it. Call results are clean —
	// that is exactly what makes cloneNode(v) the sanctioned escape.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Obj == nil || tainted[id.Obj] {
					continue
				}
				if taintedExpr(pass, as.Rhs[i], tainted) {
					tainted[id.Obj] = true
					changed = true
				}
			}
			return true
		})
	}

	// Flag every write through a tainted root.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				checkWrite(pass, lhs, tainted)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, st.X, tainted)
		case *ast.UnaryExpr:
			// &tainted.field hands out a writable pointer into the
			// snapshot; treat taking the address of a tainted location
			// as a write.
			if st.Op.String() == "&" {
				if root := lintutil.RootIdent(st.X); root != nil && root.Obj != nil && tainted[root.Obj] {
					if _, isSel := ast.Unparen(st.X).(*ast.SelectorExpr); isSel {
						pass.Reportf(st.Pos(), "address of copy-on-write value %q taken; clone before mutating", root.Name)
					}
				}
			}
		}
		return true
	})
}

// mutationSite reports whether fd is allowed to write through marked
// parameters: a clone helper by name, or a method whose receiver type
// is itself marked (the owning type manages its own lifecycle).
func mutationSite(pass *analysis.Pass, fd *ast.FuncDecl, marked map[string]bool) bool {
	if strings.Contains(fd.Name.Name, "clone") || strings.Contains(fd.Name.Name, "Clone") {
		return true
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if t := lintutil.TypeOf(pass.TypesInfo, fd.Recv.List[0].Type); t != nil && cowMarked(t, marked) {
			return true
		}
	}
	return false
}

// taintedExpr reports whether e yields a tainted value: a Load() on an
// atomic.Pointer, or a selector/index/star chain rooted at a tainted
// variable.
func taintedExpr(pass *analysis.Pass, e ast.Expr, tainted map[*ast.Object]bool) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if lintutil.CalleeName(call) == "Load" {
			if recv := lintutil.Receiver(call); recv != nil {
				if lintutil.IsAtomicPointer(lintutil.TypeOf(pass.TypesInfo, recv)) {
					return true
				}
			}
		}
		return false
	}
	root := lintutil.RootIdent(e)
	if root == nil || root.Obj == nil {
		return false
	}
	// Only pointer-shaped reads stay tainted: copying a struct value out
	// of the snapshot produces an independent copy.
	if root.Obj != nil && tainted[root.Obj] {
		t := lintutil.TypeOf(pass.TypesInfo, e)
		if t == nil {
			return true
		}
		switch t.Underlying().(type) {
		case *types.Pointer, *types.Map, *types.Slice:
			return true
		}
		if _, isIdent := e.(*ast.Ident); isIdent {
			return true
		}
	}
	return false
}

// checkWrite reports an assignment through a tainted root, e.g.
// n.children[b] = x or n.entry = e where n came from Load.
func checkWrite(pass *analysis.Pass, lhs ast.Expr, tainted map[*ast.Object]bool) {
	switch lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return // writes to plain locals never mutate the snapshot
	}
	root := lintutil.RootIdent(lhs)
	if root == nil || root.Obj == nil || !tainted[root.Obj] {
		return
	}
	pass.Reportf(lhs.Pos(), "assignment through copy-on-write value %q (a shared snapshot); clone before mutating and republish via Store", root.Name)
}
