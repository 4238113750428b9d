// Per-function effect summaries, computed on demand and memoized. A
// summary condenses what a callee does to the values that cross its
// boundary — which results carry pooled values, which parameters get
// released or deadline-armed, whether a dial (or a dial hidden
// arbitrarily deep in helpers) is reachable without the fault injector
// being consulted — so a caller's analyzer can reason about
// `v := helper()` without re-walking helper's body, across package
// boundaries.
//
// Summaries are deliberately presence-based ("releases the parameter on
// some path") rather than path-sensitive; the per-function checkers
// keep the path sensitivity, summaries carry the interprocedural step.
// Recursive call cycles are broken optimistically: a function in the
// cycle being computed contributes an empty summary, which can only
// suppress findings, never invent them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"webcluster/internal/lint/lintutil"
	"webcluster/internal/lint/load"
)

// Summary is the interprocedural digest of one declared function.
type Summary struct {
	// ReturnsPooled: some return path hands the caller a value acquired
	// from a sync.Pool inside this function (directly or via a callee),
	// transferring the release obligation to the caller.
	ReturnsPooled bool
	// ReleasesParam[i]: parameter i is released (Release*/Put) on some
	// path, directly or via a callee.
	ReleasesParam []bool
	// ArmsParam[i]: a Set*Deadline is called on parameter i (or the
	// parameter is handed to a callee that arms it).
	ArmsParam []bool
	// ArmsRecv: same, for the method receiver.
	ArmsRecv bool
	// DialsConn: the first result is a freshly dialed outbound
	// connection (net.Dial* directly, or a callee with DialsConn).
	DialsConn bool
	// ArmsResult: the dialed result has a deadline armed before return,
	// so it arrives at the caller already bounded.
	ArmsResult bool

	// DialsUnhooked: a net.Dial* site is reachable from this function
	// (through any chain of module callees) with no injector consult in
	// any body along the path. UnhookedVia names the chain for the
	// diagnostic.
	DialsUnhooked bool
	UnhookedVia   string
}

// Summary computes (and caches) fn's summary. Returns nil for functions
// whose declaring package is not in the module (stdlib, unresolved).
func (m *Module) Summary(fn *types.Func) *Summary {
	if fn == nil {
		return nil
	}
	if s, ok := m.summaries[fn]; ok {
		return s
	}
	d, ok := m.declOf(fn)
	if !ok || d.fd.Body == nil {
		m.summaries[fn] = nil
		return nil
	}
	if m.inFlight[fn] {
		return nil // cycle: contribute nothing, never invent findings
	}
	m.inFlight[fn] = true
	s := m.computeSummary(fn, d)
	delete(m.inFlight, fn)
	m.summaries[fn] = s
	return s
}

// qualified renders pkg.Func or pkg.(T).Method for diagnostics.
func qualified(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		parts := strings.Split(fn.Pkg().Path(), "/")
		return parts[len(parts)-1] + "." + name
	}
	return name
}

func (m *Module) computeSummary(fn *types.Func, d decl) *Summary {
	fd, pkg := d.fd, d.pkg
	sig := fn.Type().(*types.Signature)
	s := &Summary{
		ReleasesParam: make([]bool, sig.Params().Len()),
		ArmsParam:     make([]bool, sig.Params().Len()),
	}

	// Parameter and receiver objects by position.
	paramAt := make(map[types.Object]int)
	for i := 0; i < sig.Params().Len(); i++ {
		paramAt[sig.Params().At(i)] = i
	}
	var recvObj types.Object
	if sig.Recv() != nil {
		recvObj = sig.Recv()
	}
	// The syntactic receiver/parameter idents map to the same objects.
	rootOf := func(e ast.Expr) types.Object {
		root := lintutil.RootIdent(e)
		if root == nil {
			return nil
		}
		return lintutil.ObjectOf(pkg.Info, root)
	}

	// pooledVars: locals holding a pooled value acquired in this body.
	pooledVars := make(map[types.Object]bool)
	// dialedVars: locals holding a freshly dialed connection.
	dialedVars := make(map[types.Object]bool)
	armedDialed := false
	dialsNet, chainVia := false, ""

	isPooledAcquire := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if ta, ok := e.(*ast.TypeAssertExpr); ok {
			e = ast.Unparen(ta.X)
		}
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		name := lintutil.CalleeName(call)
		if strings.HasPrefix(name, "Acquire") || strings.HasPrefix(name, "acquire") {
			return true
		}
		if name == "Get" {
			if recv := lintutil.Receiver(call); recv != nil && lintutil.IsSyncPool(lintutil.TypeOf(pkg.Info, recv)) {
				return true
			}
		}
		if callee := CalleeFunc(pkg.Info, call); callee != nil && callee != fn {
			if cs := m.Summary(callee); cs != nil && cs.ReturnsPooled {
				return true
			}
		}
		return false
	}

	isDial := func(call *ast.CallExpr) bool {
		if lintutil.IsNetDial(pkg.Info, call) {
			return true
		}
		name := lintutil.CalleeName(call)
		if name == "DialTimeout" || strings.Contains(name, "Dial") || strings.Contains(name, "dial") {
			// Name-shaped dial helpers count when they return a conn.
			if returnsConn(pkg, call) {
				return true
			}
		}
		if callee := CalleeFunc(pkg.Info, call); callee != nil && callee != fn {
			if cs := m.Summary(callee); cs != nil && cs.DialsConn {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) >= 1 {
				for i, lhs := range v.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := lintutil.ObjectOf(pkg.Info, id)
					if obj == nil {
						continue
					}
					ri := i
					if len(v.Rhs) == 1 {
						ri = 0
					} else if i >= len(v.Rhs) {
						continue
					}
					rhs := ast.Unparen(v.Rhs[ri])
					if isPooledAcquire(rhs) {
						pooledVars[obj] = true
					}
					if call, ok := rhs.(*ast.CallExpr); ok && i == 0 && isDial(call) {
						dialedVars[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			m.recordCallEffects(s, fn, pkg, v, paramAt, recvObj, rootOf, dialedVars, &armedDialed)
			// Fault-hook digest: a dial in this body, or the first callee
			// whose own chain reaches an unhooked one.
			if lintutil.IsNetDial(pkg.Info, v) {
				dialsNet = true
			} else if chainVia == "" {
				if callee := CalleeFunc(pkg.Info, v); callee != nil && callee != fn {
					if cs := m.Summary(callee); cs != nil && cs.DialsUnhooked {
						chainVia = fmt.Sprintf("%s → %s", qualified(fn), cs.UnhookedVia)
					}
				}
			}
		case *ast.ReturnStmt:
			// Only direct returns count: `return v` / `return acquire()`.
			// Wrapping the value in a composite literal transfers ownership
			// to the wrapper's own lifecycle, which stays a per-function
			// concern.
			for _, res := range v.Results {
				e := ast.Unparen(res)
				if ta, ok := e.(*ast.TypeAssertExpr); ok {
					e = ast.Unparen(ta.X)
				}
				switch x := e.(type) {
				case *ast.Ident:
					if obj := lintutil.ObjectOf(pkg.Info, x); obj != nil {
						if pooledVars[obj] {
							s.ReturnsPooled = true
						}
						if dialedVars[obj] {
							s.DialsConn = true
							if armedDialed {
								s.ArmsResult = true
							}
						}
					}
				case *ast.CallExpr:
					if isPooledAcquire(x) {
						s.ReturnsPooled = true
					}
					if isDial(x) {
						s.DialsConn = true
					}
				}
			}
		}
		return true
	})

	// A consult anywhere in the body (Fail before the dial, Conn on the
	// result) guards every dial it reaches.
	if (dialsNet || chainVia != "") && !lintutil.CallsInjector(pkg.Info, fd.Body) {
		s.DialsUnhooked, s.UnhookedVia = true, chainVia
		if dialsNet {
			s.UnhookedVia = qualified(fn)
		}
	}
	return s
}

// recordCallEffects updates s for one call: releases of parameters,
// deadline arming on parameters/receiver, arming of dialed locals.
func (m *Module) recordCallEffects(s *Summary, fn *types.Func, pkg *load.Package, call *ast.CallExpr,
	paramAt map[types.Object]int, recvObj types.Object,
	rootOf func(ast.Expr) types.Object, dialedVars map[types.Object]bool, armedDialed *bool) {

	name := lintutil.CalleeName(call)

	// Set*Deadline on a parameter, receiver, or dialed local.
	if name == "SetDeadline" || name == "SetReadDeadline" || name == "SetWriteDeadline" {
		if recv := lintutil.Receiver(call); recv != nil {
			obj := rootOf(recv)
			if obj != nil {
				if i, ok := paramAt[obj]; ok {
					s.ArmsParam[i] = true
				}
				if obj == recvObj {
					s.ArmsRecv = true
				}
				if dialedVars[obj] {
					*armedDialed = true
				}
			}
		}
		return
	}

	// Release of a parameter: Release*/release*/pool.Put with the param
	// as the released argument.
	isRelease := strings.HasPrefix(name, "Release") || strings.HasPrefix(name, "release")
	if name == "Put" {
		if recv := lintutil.Receiver(call); recv != nil && lintutil.IsSyncPool(lintutil.TypeOf(pkg.Info, recv)) {
			isRelease = true
		}
	}
	if isRelease && len(call.Args) > 0 {
		if obj := rootOf(call.Args[0]); obj != nil {
			if i, ok := paramAt[obj]; ok {
				s.ReleasesParam[i] = true
			}
		}
		return
	}

	// Delegation: handing a parameter to a callee that releases or arms
	// it transfers the effect up.
	callee := CalleeFunc(pkg.Info, call)
	if callee == nil || callee == fn {
		return
	}
	cs := m.Summary(callee)
	if cs == nil {
		return
	}
	for ai, arg := range call.Args {
		obj := rootOf(arg)
		if obj == nil {
			continue
		}
		pi := ai
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Variadic() && pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1
		}
		if pi < len(cs.ReleasesParam) && cs.ReleasesParam[pi] {
			if i, ok := paramAt[obj]; ok {
				s.ReleasesParam[i] = true
			}
		}
		if pi < len(cs.ArmsParam) && cs.ArmsParam[pi] {
			if i, ok := paramAt[obj]; ok {
				s.ArmsParam[i] = true
			}
			if obj == recvObj {
				s.ArmsRecv = true
			}
			if dialedVars[obj] {
				*armedDialed = true
			}
		}
	}
	// Method call on a dialed local whose receiver gets armed inside.
	if cs.ArmsRecv {
		if recv := lintutil.Receiver(call); recv != nil {
			if obj := rootOf(recv); obj != nil && dialedVars[obj] {
				*armedDialed = true
			}
		}
	}
}

// returnsConn reports whether call's (first) result implements net.Conn.
func returnsConn(pkg *load.Package, call *ast.CallExpr) bool {
	conn := lintutil.NetConnIface(pkg.Types)
	if conn == nil {
		return false
	}
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return false
	}
	rt := tv.Type
	if tuple, ok := rt.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		rt = tuple.At(0).Type()
	}
	return lintutil.IsNetConn(rt, conn)
}
