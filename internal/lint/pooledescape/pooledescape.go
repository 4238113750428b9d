// Package pooledescape enforces the pooled-value lifecycle that the
// httpx and respcache hot paths rely on: a value taken from a sync.Pool
// (directly via Get, or through an Acquire* helper) must be released on
// every return path, must never be used after its Release*/Put call,
// must be released exactly once, and must not be stored into a struct
// that outlives the call. Returning the value, or building it into a
// returned composite literal, transfers ownership to the caller and is
// allowed.
//
// The lifecycle is tracked across call boundaries through the analysis
// module's summaries: `v := helperThatReturnsPooled()` starts the same
// obligation as a direct Get, and `releaseHelper(v)` discharges it, no
// matter which package the helper lives in or what it is named.
//
// Reference-counted values are held to the same rule. A call returning a
// pointer to a type whose doc carries `distlint:refcounted` (the response
// cache's Entry) hands the caller a reference, whatever the call is named
// — `e, state := cache.Get(p)` and `led, err := flight.Wait()` included —
// and a Release*(v) gives it back. Releasing one before its last use lets
// another goroutine recycle the memory under a reader, so a use after
// release is reported like a pooled one. A package that releases no
// reference at all only borrows: its references fall to the garbage
// collector, which costs garbage but can never recycle memory under a
// reader, so the rule holds the packages that release (the distributor,
// respcache itself) and leaves readers such as the benchmark harness be.
package pooledescape

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"webcluster/internal/lint/analysis"
	"webcluster/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "pooledescape",
	Doc: "check that sync.Pool values are released exactly once on every " +
		"return path, never used after release, and never stored into " +
		"long-lived structs; tracked across call boundaries via escape " +
		"summaries",
	Run: run,
}

// status is the per-variable lattice. Order matters: merge takes the
// minimum, so a variable live on either branch stays live (leaks are
// reported when they happen on any path), while use-after-release is
// only reported when the release is certain.
type status int

const (
	live status = iota
	released
	escaped  // ownership transferred (returned / built into a result)
	deferred // a defer guarantees release at every return
)

func merge(a, b status) status {
	if a < b {
		return a
	}
	return b
}

type checker struct {
	pass  *analysis.Pass
	vars  map[*ast.Object]*tracked
	conds int // nesting depth of conditional acquisition (loops)
	// refcounted are the distlint:refcounted types visible to the package.
	refcounted map[string]bool
}

type tracked struct {
	name    string
	st      status
	acquire token.Pos
	// reported suppresses duplicate leak diagnostics for the same
	// variable across sibling return paths.
	reported bool
	// outer marks values acquired by plain assignment (`=`) into a
	// variable declared before the acquiring statement: the value
	// outlives the branch it was acquired in, so joins adopt it into
	// the enclosing state instead of reporting at the branch end.
	outer bool
	// errObj is the error result acquired beside the value (`v, err :=
	// f()`); by Go convention v is nil where err is not.
	errObj *ast.Object
}

func run(pass *analysis.Pass) error {
	refcounted := pass.MarkedTypes("distlint:refcounted")
	if !releasesRef(pass, refcounted) {
		refcounted = nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body, refcounted)
			// Function literals manage their own pooled values; analyze
			// each body independently.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkFunc(pass, fl.Body, refcounted)
				}
				return true
			})
		}
	}
	return nil
}

// releasesRef reports whether the package releases a reference of a
// refcounted type anywhere: a Release*/release* call whose first argument
// has one.
func releasesRef(pass *analysis.Pass, refcounted map[string]bool) bool {
	found := false
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found || len(call.Args) == 0 {
				return !found
			}
			name := lintutil.CalleeName(call)
			if strings.HasPrefix(name, "Release") || strings.HasPrefix(name, "release") {
				found = analysis.IsMarked(pass.TypesInfo.TypeOf(call.Args[0]), refcounted)
			}
			return !found
		})
	}
	return found
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, refcounted map[string]bool) {
	c := &checker{pass: pass, vars: make(map[*ast.Object]*tracked), refcounted: refcounted}
	term := c.walkBlock(body)
	if !term {
		// Falling off the end of a function is a return path too.
		c.checkLeaks(body.End())
	}
}

// walkBlock walks statements in order; reports whether the block
// definitely terminates (returns or panics).
func (c *checker) walkBlock(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if c.walkStmt(s) {
			return true
		}
	}
	return false
}

func (c *checker) walkStmt(s ast.Stmt) (terminated bool) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		c.checkUses(st)
		c.handleAssign(st)
	case *ast.ExprStmt:
		c.handleCallStmt(st.X)
	case *ast.DeferStmt:
		c.handleDefer(st)
	case *ast.ReturnStmt:
		c.handleReturn(st)
		return true
	case *ast.IfStmt:
		c.checkUses(st.Cond)
		if st.Init != nil {
			c.walkStmt(st.Init)
		}
		thenC := c.fork()
		elseC := c.fork()
		// Nil guards carry lifecycle information: inside `if v == nil`
		// (and in the else of `if v != nil`) a conditionally acquired
		// value was never acquired, so that path has no obligation. The
		// same holds where the error acquired beside it is non-nil.
		if obj, eq, isErr := c.nilCheck(st.Cond); obj != nil {
			nilSide := thenC
			if eq == isErr {
				nilSide = elseC
			}
			for vobj, tv := range nilSide.vars {
				if (vobj == obj || isErr && tv.errObj == obj) && tv.st == live {
					tv.st = escaped
				}
			}
		}
		thenTerm := thenC.walkBlock(st.Body)
		elseTerm := false
		if st.Else != nil {
			elseTerm = elseC.walkStmt(st.Else)
		}
		c.join(thenC, thenTerm, elseC, elseTerm)
		return thenTerm && elseTerm
	case *ast.BlockStmt:
		return c.walkBlock(st)
	case *ast.ForStmt:
		if st.Init != nil {
			c.walkStmt(st.Init)
		}
		c.checkUses(st.Cond)
		bodyC := c.fork()
		bodyC.conds++
		bodyC.walkBlock(st.Body)
		c.join(bodyC, false, c, false)
	case *ast.RangeStmt:
		c.checkUses(st.X)
		bodyC := c.fork()
		bodyC.conds++
		bodyC.walkBlock(st.Body)
		c.join(bodyC, false, c, false)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		c.walkClauses(st)
	case *ast.GoStmt:
		// A pooled value captured by a spawned goroutine outlives the
		// call frame in every way that matters here.
		for obj, tv := range c.vars {
			if tv.st == live && usesObj(st.Call, obj) {
				c.pass.Reportf(st.Pos(), "pooled value %q captured by goroutine outlives the call", tv.name)
				tv.st = escaped
			}
		}
	case *ast.LabeledStmt:
		return c.walkStmt(st.Stmt)
	case *ast.BranchStmt:
		// break/continue/goto leave the linear walk; treat as
		// terminating this path rather than invent flow edges.
		return true
	}
	return false
}

// walkClauses handles switch/select bodies: each clause is a fork, the
// parent state becomes the merge of all falls-through clauses.
func (c *checker) walkClauses(s ast.Stmt) {
	var clauses []ast.Stmt
	switch st := s.(type) {
	case *ast.SwitchStmt:
		c.checkUses(st.Tag)
		clauses = st.Body.List
	case *ast.TypeSwitchStmt:
		clauses = st.Body.List
	case *ast.SelectStmt:
		clauses = st.Body.List
	}
	var survivors []*checker
	allTerm := true
	for _, cl := range clauses {
		var body []ast.Stmt
		switch cc := cl.(type) {
		case *ast.CaseClause:
			body = cc.Body
		case *ast.CommClause:
			body = cc.Body
		}
		fc := c.fork()
		term := false
		for _, bs := range body {
			if fc.walkStmt(bs) {
				term = true
				break
			}
		}
		if !term {
			survivors = append(survivors, fc)
			allTerm = false
		}
	}
	if allTerm {
		return
	}
	for obj, tv := range c.vars {
		st := tv.st
		first := true
		for _, fc := range survivors {
			if ftv, ok := fc.vars[obj]; ok {
				if first {
					st = ftv.st
					first = false
				} else {
					st = merge(st, ftv.st)
				}
				tv.reported = tv.reported || ftv.reported
			}
		}
		tv.st = st
	}
	// Clause-acquired values assigned into pre-declared variables flow
	// out of the switch/select; adopt them like join does.
	for _, fc := range survivors {
		for obj, tv := range fc.vars {
			if _, ok := c.vars[obj]; ok {
				continue
			}
			if tv.outer {
				cp := *tv
				c.vars[obj] = &cp
			}
		}
	}
}

func (c *checker) fork() *checker {
	nc := &checker{pass: c.pass, vars: make(map[*ast.Object]*tracked, len(c.vars)), conds: c.conds, refcounted: c.refcounted}
	for k, v := range c.vars {
		cp := *v
		nc.vars[k] = &cp
	}
	return nc
}

// join folds the surviving branch states back into c. A branch that
// terminated already had its leaks checked at its return.
func (c *checker) join(a *checker, aTerm bool, b *checker, bTerm bool) {
	for obj, tv := range c.vars {
		av, bv := a.vars[obj], b.vars[obj]
		switch {
		case aTerm && bTerm:
			// unreachable after join; keep as-is
		case aTerm:
			if bv != nil {
				*tv = *bv
			}
		case bTerm:
			if av != nil {
				*tv = *av
			}
		default:
			if av != nil && bv != nil {
				tv.st = merge(av.st, bv.st)
				tv.reported = av.reported || bv.reported
			}
		}
	}
	// Values acquired inside a branch must be resolved inside it — with
	// one exception: an acquisition assigned (`=`) into a pre-declared
	// variable flows out of the branch, so the join adopts it and the
	// enclosing walk carries the obligation forward (the conditional
	// `if traced { sp = tel.StartSpan(...) }` pattern). Everything else
	// still live leaks at the join; the fork's walk already checked its
	// own return paths.
	for _, src := range []struct {
		c    *checker
		term bool
	}{{a, aTerm}, {b, bTerm}} {
		if src.c == c || src.term {
			continue
		}
		for obj, tv := range src.c.vars {
			if _, ok := c.vars[obj]; ok {
				continue
			}
			if tv.outer {
				cp := *tv
				c.vars[obj] = &cp
				continue
			}
			if tv.st == live && !tv.reported {
				c.pass.Reportf(tv.acquire, "pooled value %q is not released on every path", tv.name)
			}
		}
	}
}

// nilCheck matches a `v == nil` / `v != nil` condition over a tracked
// variable, or over the error acquired beside one (isErr), returning the
// compared object and whether the operator is ==.
func (c *checker) nilCheck(cond ast.Expr) (obj *ast.Object, eq, isErr bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false, false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(x) {
		x, y = y, x
	}
	if !isNilIdent(y) {
		return nil, false, false
	}
	id, ok := x.(*ast.Ident)
	if !ok || id.Obj == nil {
		return nil, false, false
	}
	if _, tracked := c.vars[id.Obj]; tracked {
		return id.Obj, be.Op == token.EQL, false
	}
	for _, tv := range c.vars {
		if tv.errObj == id.Obj {
			return id.Obj, be.Op == token.EQL, true
		}
	}
	return nil, false, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil" && id.Obj == nil
}

// handleAssign tracks acquisitions (v := Acquire...() / pool.Get()) and
// flags stores of live pooled values into long-lived structures.
func (c *checker) handleAssign(st *ast.AssignStmt) {
	// Store side: v appearing on the RHS being written somewhere.
	for i, lhs := range st.Lhs {
		if i >= len(st.Rhs) && len(st.Rhs) != 1 {
			break
		}
		rhs := st.Rhs[min(i, len(st.Rhs)-1)]
		for obj, tv := range c.vars {
			if tv.st != live || !usesObj(rhs, obj) {
				continue
			}
			switch {
			case inCompositeLit(rhs, obj):
				// Built into a new value — that value is the owner now
				// (returned-struct transfer).
				tv.st = escaped
			case c.escapingStore(lhs):
				c.pass.Reportf(st.Pos(), "pooled value %q stored into a struct that outlives the call", tv.name)
				tv.st = escaped
			case isFieldOrElem(lhs):
				// Field of a function-local value: ownership moves to
				// that value; if it escapes, the return transfers both.
				tv.st = escaped
			}
		}
	}
	// Acquire side: `v := acquire()`, and the reference-counted results
	// of a multi-value call (`e, state := cache.Get(p)`).
	if len(st.Lhs) != len(st.Rhs) {
		c.trackResults(st)
		return
	}
	for i, lhs := range st.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" || id.Obj == nil {
			continue
		}
		pos, ok := c.isAcquire(st.Rhs[i])
		c.assign(st, id, pos, ok)
	}
}

// trackResults handles `a, b := call()`: each result of a
// distlint:refcounted type is a reference, and an error result beside it
// is remembered for the nil guard.
func (c *checker) trackResults(st *ast.AssignStmt) {
	var results *types.Tuple
	if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
		results, _ = c.pass.TypesInfo.TypeOf(call).(*types.Tuple)
	}
	var errObj *ast.Object
	var acquired []*tracked
	for i, lhs := range st.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" || id.Obj == nil {
			continue
		}
		var t types.Type
		if results != nil && i < results.Len() {
			t = results.At(i).Type()
		}
		if t != nil && types.Identical(t, errorType) {
			errObj = id.Obj
		}
		if tv := c.assign(st, id, st.Rhs[0].Pos(), analysis.IsMarked(t, c.refcounted)); tv != nil {
			acquired = append(acquired, tv)
		}
	}
	for _, tv := range acquired {
		tv.errObj = errObj
	}
}

var errorType = types.Universe.Lookup("error").Type()

// assign resolves a write of a new value to id: the value it held must
// already be resolved, and an acquisition starts tracking the new one.
func (c *checker) assign(st *ast.AssignStmt, id *ast.Ident, pos token.Pos, acquired bool) *tracked {
	if tv, ok := c.vars[id.Obj]; ok {
		// Reassignment replaces the tracked value; the old one must
		// already be resolved.
		if tv.st == live && !tv.reported {
			c.pass.Reportf(st.Pos(), "pooled value %q overwritten while still live", tv.name)
			tv.reported = true
		}
		delete(c.vars, id.Obj)
	}
	if !acquired {
		return nil
	}
	// Plain `=` writes into a variable declared before this statement,
	// so the value survives any enclosing branch.
	tv := &tracked{name: id.Name, st: live, acquire: pos, outer: st.Tok == token.ASSIGN}
	c.vars[id.Obj] = tv
	return tv
}

// escapingStore reports whether lhs denotes storage that outlives the
// call: a field or element of anything other than a freshly declared
// local, or a dereference.
func (c *checker) escapingStore(lhs ast.Expr) bool {
	switch lhs.(type) {
	case *ast.Ident:
		return false // plain local (or blank) — stays in the frame
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		root := lintutil.RootIdent(lhs)
		if root == nil || root.Obj == nil {
			return true // package-level, cross-file, or unresolvable base
		}
		if _, isField := root.Obj.Decl.(*ast.Field); isField {
			return true // function parameter or receiver
		}
		// A field of a function-local value stays in the frame; if the
		// local itself escapes by being returned, the return transfers
		// ownership of the whole structure.
		return false
	}
	return false
}

// isAcquire reports whether e acquires a pooled value: a call to an
// Acquire*/acquire* helper, sync.Pool.Get (possibly type-asserted), any
// function whose summary says it returns a pooled value, or any call
// returning a reference to a distlint:refcounted type.
func (c *checker) isAcquire(e ast.Expr) (token.Pos, bool) {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return token.NoPos, false
	}
	name := lintutil.CalleeName(call)
	if strings.HasPrefix(name, "Acquire") || strings.HasPrefix(name, "acquire") {
		return call.Pos(), true
	}
	if name == "Get" {
		if recv := lintutil.Receiver(call); recv != nil {
			if lintutil.IsSyncPool(lintutil.TypeOf(c.pass.TypesInfo, recv)) {
				return call.Pos(), true
			}
		}
	}
	if s := c.pass.Module.Summary(analysis.CalleeFunc(c.pass.TypesInfo, call)); s != nil && s.ReturnsPooled {
		return call.Pos(), true
	}
	if analysis.IsMarked(c.pass.TypesInfo.TypeOf(call), c.refcounted) {
		return call.Pos(), true
	}
	return token.NoPos, false
}

// releaseTarget returns the tracked object a call releases, if any:
// Release*(v), release*(v), pool.Put(v), or helper(…, v, …) where the
// helper's summary says it releases that parameter.
func (c *checker) releaseTarget(call *ast.CallExpr) (*ast.Object, bool) {
	name := lintutil.CalleeName(call)
	isRel := strings.HasPrefix(name, "Release") || strings.HasPrefix(name, "release")
	if name == "Put" {
		if recv := lintutil.Receiver(call); recv != nil && lintutil.IsSyncPool(lintutil.TypeOf(c.pass.TypesInfo, recv)) {
			isRel = true
		}
	}
	if isRel && len(call.Args) > 0 {
		if obj, ok := c.trackedArg(call.Args[0]); ok {
			return obj, true
		}
		return nil, false
	}
	// Delegated release: the callee's escape summary says it releases
	// the parameter our tracked value is passed as.
	if s := c.pass.Module.Summary(analysis.CalleeFunc(c.pass.TypesInfo, call)); s != nil {
		for i, rel := range s.ReleasesParam {
			if !rel || i >= len(call.Args) {
				continue
			}
			if obj, ok := c.trackedArg(call.Args[i]); ok {
				return obj, true
			}
		}
	}
	return nil, false
}

// trackedArg resolves an argument expression to a tracked variable.
func (c *checker) trackedArg(arg ast.Expr) (*ast.Object, bool) {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok || id.Obj == nil {
		return nil, false
	}
	if _, tracked := c.vars[id.Obj]; !tracked {
		return nil, false
	}
	return id.Obj, true
}

func (c *checker) handleCallStmt(e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		c.checkUses(e)
		return
	}
	if obj, ok := c.releaseTarget(call); ok {
		tv := c.vars[obj]
		switch tv.st {
		case released:
			c.pass.Reportf(call.Pos(), "pooled value %q released twice", tv.name)
		case deferred:
			c.pass.Reportf(call.Pos(), "pooled value %q released twice (already released by defer)", tv.name)
		default:
			tv.st = released
		}
		return
	}
	c.checkUses(e)
}

// handleDefer marks values released by a defer — either directly
// (`defer pool.Put(v)`) or through a closure whose body releases them.
func (c *checker) handleDefer(st *ast.DeferStmt) {
	if obj, ok := c.releaseTarget(st.Call); ok {
		tv := c.vars[obj]
		if tv.st == deferred {
			c.pass.Reportf(st.Pos(), "pooled value %q released twice (duplicate defer)", tv.name)
		}
		tv.st = deferred
		return
	}
	if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if obj, ok := c.releaseTarget(call); ok {
				c.vars[obj].st = deferred
			}
			return true
		})
	}
}

// handleReturn resolves the function exit: values the return hands over
// — named directly, or built into a composite literal — transfer to the
// caller; everything still live leaks. A value only passed to a call in
// the return expression stays the caller's to release: the callee
// borrows it.
func (c *checker) handleReturn(st *ast.ReturnStmt) {
	for obj, tv := range c.vars {
		for _, res := range st.Results {
			if !usesObj(res, obj) {
				continue
			}
			if tv.st == released {
				c.pass.Reportf(st.Pos(), "use of pooled value %q after release", tv.name)
			}
			if tv.st == live && handsOver(res, obj) {
				tv.st = escaped
			}
		}
	}
	c.checkLeaks(st.Pos())
}

// handsOver reports whether the returned expression res gives the caller
// obj itself (possibly type-asserted) or a composite literal holding it.
func handsOver(res ast.Expr, obj *ast.Object) bool {
	e := ast.Unparen(res)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	if id, ok := e.(*ast.Ident); ok && id.Obj == obj {
		return true
	}
	return inCompositeLit(res, obj)
}

func (c *checker) checkLeaks(pos token.Pos) {
	for _, tv := range c.vars {
		if tv.st == live && !tv.reported {
			c.pass.Reportf(pos, "pooled value %q is not released on this return path", tv.name)
			tv.reported = true
		}
	}
}

// checkUses reports reads of variables that were already released.
func (c *checker) checkUses(n ast.Node) {
	if n == nil {
		return
	}
	for obj, tv := range c.vars {
		if tv.st != released {
			continue
		}
		if usesObj(n, obj) {
			c.pass.Reportf(n.Pos(), "use of pooled value %q after release", tv.name)
			tv.reported = true
		}
	}
}

// inCompositeLit reports whether obj appears inside a composite literal
// within e.
func inCompositeLit(e ast.Expr, obj *ast.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if cl, ok := n.(*ast.CompositeLit); ok && usesObj(cl, obj) {
			found = true
		}
		return !found
	})
	return found
}

func isFieldOrElem(lhs ast.Expr) bool {
	switch lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

func usesObj(n ast.Node, obj *ast.Object) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && id.Obj == obj {
			found = true
		}
		return !found
	})
	return found
}
