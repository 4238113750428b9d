// Module-wide call graph: one node per declared function or method in
// any added package, one edge per statically resolvable call site.
// Function literals are folded into their enclosing declaration — a
// call made inside a closure is an edge from the declaring function —
// except `go` statements, which are collected separately as GoSites so
// leakcheck can reason about the spawned body rather than the spawner.
//
// Soundness limits (documented in DESIGN.md §15): calls through
// interface values, function-typed variables, and reflection produce no
// edges; the graph covers direct calls to named functions and methods
// only. That is enough for the invariants distlint enforces, which are
// phrased in terms of concrete helpers (dial wrappers, pool accessors,
// goroutine run loops).
package analysis

import (
	"go/ast"
	"go/types"
	"sort"

	"webcluster/internal/lint/load"
)

// Module is the interprocedural analysis state shared by every pass of
// a run: the packages added so far, the call graph over them, function
// summaries, and the fact store.
type Module struct {
	pkgs   []*load.Package
	byPath map[string]*load.Package

	nodes map[*types.Func]*FuncNode

	summaries map[*types.Func]*Summary
	inFlight  map[*types.Func]bool

	facts *factStore

	// Source resolves a module import path to an already-loaded package
	// so the graph can pull in dependencies lazily (the loader's cache).
	// May be nil; then only explicitly added packages have nodes.
	Source func(path string) *load.Package
}

// NewModule returns an empty module graph.
func NewModule() *Module {
	return &Module{
		byPath:    make(map[string]*load.Package),
		nodes:     make(map[*types.Func]*FuncNode),
		summaries: make(map[*types.Func]*Summary),
		inFlight:  make(map[*types.Func]bool),
		facts:     newFactStore(),
	}
}

// FuncNode is one call-graph node: a declared function or method with
// its body, the package it lives in, and its resolved edges.
type FuncNode struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Pkg  *load.Package

	// Calls are the statically resolved call sites in the body,
	// including those inside nested function literals.
	Calls []*CallSite
	// CalledBy are the incoming edges from other module functions.
	CalledBy []*CallSite
	// Spawns are the go statements lexically inside the body.
	Spawns []*GoSite
}

// CallSite is one resolved call edge.
type CallSite struct {
	Caller *FuncNode
	Callee *FuncNode
	Call   *ast.CallExpr
	// InGo marks call sites inside a `go` statement's function literal;
	// summaries attribute those to the spawned goroutine, not the
	// calling frame.
	InGo bool
}

// GoSite is one `go` statement: either a function literal (Body set) or
// a call to a resolvable function (Callee set); both nil means the
// spawned callee could not be resolved (interface method, function
// value).
type GoSite struct {
	Stmt   *ast.GoStmt
	Owner  *FuncNode
	Body   *ast.BlockStmt
	Callee *FuncNode
}

// Node returns the call-graph node for fn, or nil when fn's declaring
// package has not been added (stdlib, unresolved).
func (m *Module) Node(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	n := m.nodes[fn]
	if n == nil && m.Source != nil {
		// Lazily pull in a module-local package we have loaded but not
		// added: summaries chase helpers wherever they live.
		if pkg := fn.Pkg(); pkg != nil {
			if lp := m.Source(pkg.Path()); lp != nil && m.byPath[lp.Path] == nil {
				m.Add(lp)
				n = m.nodes[fn]
			}
		}
	}
	return n
}

// NodeForDecl returns the node for a function declaration of pkg, nil
// when the declaration did not type-check to a function object.
func (m *Module) NodeForDecl(pkg *load.Package, fd *ast.FuncDecl) *FuncNode {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	return m.Node(fn)
}

// Add indexes pkg into the graph: creates nodes for its declarations,
// then resolves call edges and go statements. Idempotent per path.
func (m *Module) Add(pkg *load.Package) {
	if m.byPath[pkg.Path] != nil {
		return
	}
	m.byPath[pkg.Path] = pkg
	m.pkgs = append(m.pkgs, pkg)

	// Pass 1: nodes for every declared function and method.
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			m.nodes[fn] = &FuncNode{Func: fn, Decl: fd, Pkg: pkg}
		}
	}

	// Pass 2: edges and go sites.
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			m.index(m.nodes[fn], fd.Body, pkg)
		}
	}
}

// index walks one declared body recording call sites and go statements.
func (m *Module) index(node *FuncNode, body *ast.BlockStmt, pkg *load.Package) {
	var goDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			gs := &GoSite{Stmt: v, Owner: node}
			if fl, ok := v.Call.Fun.(*ast.FuncLit); ok {
				gs.Body = fl.Body
			} else if callee := m.CalleeFunc(pkg.Info, v.Call); callee != nil {
				gs.Callee = m.Node(callee)
				if gs.Callee != nil {
					m.edge(node, gs.Callee, v.Call, false)
				}
			}
			node.Spawns = append(node.Spawns, gs)
			// Walk the spawned body with InGo marking: its calls belong
			// to the goroutine for summary purposes.
			if gs.Body != nil {
				goDepth++
				ast.Inspect(gs.Body, walk)
				goDepth--
			}
			for _, arg := range v.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.CallExpr:
			if callee := m.CalleeFunc(pkg.Info, v); callee != nil {
				if cn := m.Node(callee); cn != nil {
					m.edge(node, cn, v, goDepth > 0)
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(body, walk)
}

func (m *Module) edge(caller, callee *FuncNode, call *ast.CallExpr, inGo bool) {
	cs := &CallSite{Caller: caller, Callee: callee, Call: call, InGo: inGo}
	caller.Calls = append(caller.Calls, cs)
	callee.CalledBy = append(callee.CalledBy, cs)
}

// CalleeFunc statically resolves a call's target to a *types.Func:
// direct function calls, method calls on concrete receivers, and
// method values. Interface dispatch and function-typed values return
// nil.
func (m *Module) CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		// Interface method calls resolve to the interface's *types.Func;
		// those have no body anywhere, and Node() will return nil, which
		// is the unresolved-edge behavior we want.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// DepOrder returns the added packages topologically sorted so that
// every package appears after the module packages it imports. Analyzer
// runs follow this order, which is what makes facts flow from callee
// packages to caller packages.
func (m *Module) DepOrder() []*load.Package {
	var order []*load.Package
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *load.Package)
	visit = func(p *load.Package) {
		switch state[p.Path] {
		case 1, 2:
			return
		}
		state[p.Path] = 1
		imps := p.Types.Imports()
		sort.Slice(imps, func(i, j int) bool { return imps[i].Path() < imps[j].Path() })
		for _, imp := range imps {
			if dep := m.byPath[imp.Path()]; dep != nil {
				visit(dep)
			}
		}
		state[p.Path] = 2
		order = append(order, p)
	}
	sorted := append([]*load.Package(nil), m.pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	for _, p := range sorted {
		visit(p)
	}
	return order
}
