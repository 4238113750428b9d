// Package deadlinecheck enforces the bounded-I/O rule the chaos suite
// depends on: every outbound connection in the data and management
// planes must have a deadline armed before it is read or written, so a
// wedged peer degrades into a timeout instead of a stuck goroutine.
//
// Three rules, all lexical and deliberately permissive (a deadline
// armed anywhere earlier in the function counts for everything after):
//
//  1. A bare net.Dial call is always flagged — use net.DialTimeout or a
//     dialer that arms a deadline on the result.
//
//  2. A connection dialed locally (any call whose first result is a
//     net.Conn, except Accept) must have SetDeadline /
//     SetReadDeadline / SetWriteDeadline called on it — or be handed to
//     a function that arms a deadline on its parameter — before any
//     I/O through it or a wrapper derived from it (bufio.NewReader,
//     json.NewEncoder, ...). Returning the connection or storing it
//     into a struct transfers the obligation to the new owner.
//
//     Since distlint v2 this rule is interprocedural: "dialed locally"
//     includes any helper — in any module package, under any name —
//     whose call-graph summary says it returns a freshly dialed
//     connection (the old engine keyed on "Dial" appearing in the
//     callee name), a helper that arms the deadline inside itself
//     satisfies the obligation wherever it lives, and a dial helper
//     that arms the result before returning hands back a connection
//     that is already bounded.
//
//  3. A method on a type with a direct net.Conn field that performs
//     I/O rooted at the receiver must contain a Set*Deadline call.
//     Methods named Close*, or named like I/O primitives (thin
//     delegation wrappers such as a PooledConn.Read), are exempt —
//     there the obligation sits with the caller.
package deadlinecheck

import (
	"go/ast"
	"go/types"
	"strings"

	"webcluster/internal/lint/analysis"
	"webcluster/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "deadlinecheck",
	Doc: "check that outbound net.Conn dial/read/write sites arm a " +
		"deadline on every path before blocking",
	Run: run,
}

// ioNames are method names that perform (possibly blocking) I/O when
// invoked on a connection or a wrapper around one.
var ioNames = map[string]bool{
	"Read": true, "Write": true, "ReadByte": true, "ReadString": true,
	"ReadRune": true, "ReadSlice": true, "ReadLine": true, "ReadFull": true,
	"WriteString": true, "WriteByte": true, "WriteTo": true, "ReadFrom": true,
	"Encode": true, "Decode": true, "Flush": true, "Peek": true,
}

// armNames arm a deadline.
var armNames = map[string]bool{
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
}

// safeNames neither block nor need a deadline.
var safeNames = map[string]bool{
	"Close": true, "CloseRead": true, "CloseWrite": true,
	"LocalAddr": true, "RemoteAddr": true, "SetNoDelay": true,
	"SetKeepAlive": true, "SetKeepAlivePeriod": true, "SetLinger": true,
	"delete": true, "len": true, "cap": true, "append": true,
}

func run(pass *analysis.Pass) error {
	conn := lintutil.NetConnIface(pass.Pkg)
	if conn == nil {
		return nil // package graph has no net; nothing to check
	}
	armers := armingFuncs(pass, conn)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBareDial(pass, fd.Body)
			(&connTracker{pass: pass, conn: conn, armers: armers,
				state: make(map[types.Object]*connState)}).walkBlock(fd.Body)
			checkConnFieldMethod(pass, fd, conn)
		}
	}
	return nil
}

// --- rule 1: bare net.Dial ---

func checkBareDial(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Dial" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := lintutil.ObjectOf(pass.TypesInfo, id).(*types.PkgName); ok && pn.Imported().Path() == "net" {
				pass.Reportf(call.Pos(), "bare net.Dial has no connect timeout; use net.DialTimeout (or a dialer that arms a deadline)")
			}
		}
		return true
	})
}

// --- rule 2: locally dialed connections ---

// armingFuncs returns the same-package functions that arm a deadline on
// one of their parameters (or their receiver): handing a connection to
// one of them satisfies the obligation.
func armingFuncs(pass *analysis.Pass, conn *types.Interface) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			owned := make(map[types.Object]bool)
			for _, fl := range fieldLists(fd) {
				for _, f := range fl.List {
					for _, name := range f.Names {
						if o := pass.TypesInfo.Defs[name]; o != nil {
							owned[o] = true
						}
					}
				}
			}
			arms := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !armNames[lintutil.CalleeName(call)] {
					return true
				}
				if root := lintutil.RootIdent(lintutil.Receiver(call)); root != nil {
					if owned[lintutil.ObjectOf(pass.TypesInfo, root)] {
						arms = true
					}
				}
				return true
			})
			if arms {
				if o := pass.TypesInfo.Defs[fd.Name]; o != nil {
					out[o] = true
				}
			}
		}
	}
	return out
}

func fieldLists(fd *ast.FuncDecl) []*ast.FieldList {
	fls := []*ast.FieldList{fd.Type.Params}
	if fd.Recv != nil {
		fls = append(fls, fd.Recv)
	}
	var out []*ast.FieldList
	for _, fl := range fls {
		if fl != nil {
			out = append(out, fl)
		}
	}
	return out
}

type connState struct {
	name  string
	armed bool
	// root follows wrapper derivations back to the dialed connection.
	root types.Object
}

type connTracker struct {
	pass   *analysis.Pass
	conn   *types.Interface
	armers map[types.Object]bool
	state  map[types.Object]*connState
}

// walkBlock visits statements (and nested function literals) in source
// order; connection state is purely lexical.
func (t *connTracker) walkBlock(b *ast.BlockStmt) {
	ast.Inspect(b, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			t.handleAssign(st)
			return false
		case *ast.ExprStmt:
			t.handleExpr(st.X)
			return false
		case *ast.ReturnStmt:
			// Returning the connection (or a struct holding it) hands it
			// to the caller — but returning the *result of I/O on it* is
			// still a use, so classify calls before dropping.
			for _, res := range st.Results {
				t.handleExpr(res)
				t.dropMentioned(res)
			}
			return false
		case *ast.DeferStmt:
			t.handleCall(st.Call, true)
			return false
		case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
			*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.BlockStmt,
			*ast.CaseClause, *ast.CommClause, *ast.LabeledStmt,
			*ast.GoStmt, *ast.SendStmt, *ast.IncDecStmt, *ast.DeclStmt:
			return true // descend; nested stmts handled above
		}
		return true
	})
}

// lookup resolves an expression to tracked connection state by its root
// identifier.
func (t *connTracker) lookup(e ast.Expr) *connState {
	root := lintutil.RootIdent(e)
	if root == nil {
		return nil
	}
	obj := lintutil.ObjectOf(t.pass.TypesInfo, root)
	if obj == nil {
		return nil
	}
	cs := t.state[obj]
	if cs != nil && cs.root != nil {
		if rootCS := t.state[cs.root]; rootCS != nil {
			return rootCS
		}
	}
	return cs
}

func (t *connTracker) drop(cs *connState) {
	for obj, s := range t.state {
		if s == cs || s.root != nil && t.state[s.root] == cs {
			delete(t.state, obj)
		}
	}
}

// dropMentioned stops tracking any connection appearing inside e — used
// at ownership-transfer points (returns, stores, composite literals).
func (t *connTracker) dropMentioned(e ast.Node) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := lintutil.ObjectOf(t.pass.TypesInfo, id); obj != nil {
				if cs := t.state[obj]; cs != nil {
					t.drop(cs)
				}
			}
		}
		return true
	})
}

func (t *connTracker) handleAssign(st *ast.AssignStmt) {
	// Ownership transfer: a tracked connection written into a field,
	// element, or composite literal belongs to the new holder.
	for _, rhs := range st.Rhs {
		if _, ok := ast.Unparen(rhs).(*ast.CompositeLit); ok {
			t.dropMentioned(rhs)
		}
	}
	for i, lhs := range st.Lhs {
		if _, plain := lhs.(*ast.Ident); !plain && i < len(st.Rhs) {
			t.dropMentioned(st.Rhs[i])
		}
	}
	// Rewrap: conn = in.Conn("tag", conn) keeps identity and state.
	if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
		if id, ok := st.Lhs[0].(*ast.Ident); ok {
			if obj := lintutil.ObjectOf(t.pass.TypesInfo, id); obj != nil && t.state[obj] != nil {
				if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok && mentions(t.pass, call, obj) {
					return
				}
			}
		}
	}
	// Derivation and acquisition; RHS calls not consumed as a dial or a
	// wrapper constructor still get classified as potential I/O
	// (covers `_, _ = io.Copy(server, client)` and friends).
	consumed := make(map[int]bool)
	for i, lhs := range st.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := lintutil.ObjectOf(t.pass.TypesInfo, id)
		if obj == nil {
			continue
		}
		ri := i
		if len(st.Lhs) != len(st.Rhs) {
			if len(st.Rhs) != 1 {
				continue
			}
			ri = 0
		}
		rhs := ast.Unparen(st.Rhs[ri])
		// v := conn, tc := conn.(*net.TCPConn), br := bufio.NewReader(conn):
		// the new variable is a window onto the same connection.
		if cs := t.wrapperSource(rhs); cs != nil {
			t.state[obj] = &connState{name: id.Name, root: rootObj(t, cs)}
			consumed[ri] = true
			continue
		}
		// conn, err := dial(...): new tracked connection. A dial helper
		// that arms the result before returning hands back a connection
		// that is already bounded.
		if call, ok := rhs.(*ast.CallExpr); ok && i == 0 {
			if dial, armed := t.isConnDial(call); dial {
				t.state[obj] = &connState{name: id.Name, armed: armed}
				consumed[ri] = true
			}
		}
	}
	for i, rhs := range st.Rhs {
		if consumed[i] {
			continue
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			t.handleCall(call, false)
		}
	}
}

func rootObj(t *connTracker, cs *connState) types.Object {
	for obj, s := range t.state {
		if s == cs {
			return obj
		}
	}
	return nil
}

// wrapperSource reports the tracked connection e is a pure window onto:
// the connection itself, a type assertion on it, or a New*/Acquire*
// constructor taking it.
func (t *connTracker) wrapperSource(e ast.Expr) *connState {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := lintutil.ObjectOf(t.pass.TypesInfo, x); obj != nil {
			return t.state[obj]
		}
	case *ast.TypeAssertExpr:
		return t.lookup(x.X)
	case *ast.CallExpr:
		name := lintutil.CalleeName(x)
		if strings.HasPrefix(name, "New") || strings.HasPrefix(name, "Acquire") {
			for _, arg := range x.Args {
				if cs := t.lookup(arg); cs != nil {
					return cs
				}
			}
		}
	}
	return nil
}

// isConnDial reports whether call produces a new outbound connection,
// and whether it arrives with a deadline already armed. Two paths: the
// callee's call-graph summary says it returns a freshly dialed
// connection (any name, any module package — ArmsResult carries the
// already-armed case), or the callee is dial-shaped by name (net.Dial*,
// a Dialer field) with a first result implementing net.Conn. Accepted
// and re-wrapped connections (faults.Conn) are deliberately not treated
// as new dials: the former are inbound, the latter keep the original's
// identity.
func (t *connTracker) isConnDial(call *ast.CallExpr) (dial, armed bool) {
	name := lintutil.CalleeName(call)
	if name == "Accept" || name == "AcceptTCP" {
		return false, false
	}
	if fn := analysis.CalleeFunc(t.pass.TypesInfo, call); fn != nil {
		if s := t.pass.Module.Summary(fn); s != nil && s.DialsConn {
			return true, s.ArmsResult
		}
	}
	if !strings.Contains(name, "Dial") && !strings.Contains(name, "dial") {
		return false, false
	}
	tv, ok := t.pass.TypesInfo.Types[call]
	if !ok {
		return false, false
	}
	rt := tv.Type
	if tuple, ok := rt.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false, false
		}
		rt = tuple.At(0).Type()
	}
	return lintutil.IsNetConn(rt, t.conn), false
}

func (t *connTracker) handleExpr(e ast.Expr) {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		t.handleCall(call, false)
	}
}

// handleCall classifies one call against the tracked connections:
// arming, safe, ownership transfer to an arming function, or an I/O use
// that requires an armed deadline.
func (t *connTracker) handleCall(call *ast.CallExpr, deferred bool) {
	name := lintutil.CalleeName(call)
	if recv := lintutil.Receiver(call); recv != nil {
		if cs := t.lookup(recv); cs != nil {
			switch {
			case armNames[name]:
				cs.armed = true
			case safeNames[name]:
			default:
				// A method that arms a deadline on its own receiver
				// (wherever it is declared) satisfies the obligation.
				if fn := analysis.CalleeFunc(t.pass.TypesInfo, call); fn != nil {
					if s := t.pass.Module.Summary(fn); s != nil && s.ArmsRecv {
						cs.armed = true
						return
					}
				}
				if !cs.armed && !deferred {
					t.pass.Reportf(call.Pos(), "I/O on connection %q before any deadline is armed; call SetDeadline (or hand it to an owner that does)", cs.name)
					cs.armed = true // one report per connection path
				}
			}
			return
		}
	}
	// Nested function literal arguments are walked by the outer
	// inspector; here, classify direct connection arguments.
	for _, arg := range call.Args {
		cs := t.lookup(arg)
		if cs == nil {
			if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
				for _, ia := range inner.Args {
					if ics := t.lookup(ia); ics != nil {
						cs = ics
						break
					}
				}
			}
		}
		if cs == nil {
			continue
		}
		if safeNames[name] || armNames[name] {
			continue
		}
		// Handing the connection to a function that arms a deadline on
		// it transfers the obligation — same-package armers via the
		// lexical scan, everything else via call-graph summaries.
		if callee := t.calleeObj(call); callee != nil && t.armers[callee] {
			t.drop(cs)
			continue
		}
		if fn := analysis.CalleeFunc(t.pass.TypesInfo, call); fn != nil {
			if s := t.pass.Module.Summary(fn); s != nil && t.armsArg(call, cs, s.ArmsParam) {
				t.drop(cs)
				continue
			}
		}
		if strings.HasPrefix(name, "New") || strings.HasPrefix(name, "Acquire") {
			continue // constructor — wrapper tracked at the assignment
		}
		if !cs.armed && !deferred {
			t.pass.Reportf(call.Pos(), "connection %q passed to %s before any deadline is armed; call SetDeadline first or route it through an arming owner", cs.name, name)
			cs.armed = true
		}
	}
}

// armsArg reports whether cs is passed at a parameter position the
// callee's summary marks as deadline-armed.
func (t *connTracker) armsArg(call *ast.CallExpr, cs *connState, armsParam []bool) bool {
	for i, arg := range call.Args {
		if i >= len(armsParam) || !armsParam[i] {
			continue
		}
		if t.lookup(arg) == cs {
			return true
		}
	}
	return false
}

func (t *connTracker) calleeObj(call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return lintutil.ObjectOf(t.pass.TypesInfo, fn)
	case *ast.SelectorExpr:
		return lintutil.ObjectOf(t.pass.TypesInfo, fn.Sel)
	}
	return nil
}

func mentions(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && lintutil.ObjectOf(pass.TypesInfo, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// --- rule 3: methods on connection-backed types ---

func checkConnFieldMethod(pass *analysis.Pass, fd *ast.FuncDecl, conn *types.Interface) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return
	}
	if strings.HasPrefix(fd.Name.Name, "Close") || ioNames[fd.Name.Name] {
		return
	}
	recvType := lintutil.TypeOf(pass.TypesInfo, fd.Recv.List[0].Type)
	if recvType == nil || !hasConnField(recvType, conn) {
		return
	}
	var recvObj types.Object
	if len(fd.Recv.List[0].Names) == 1 {
		recvObj = pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
	}
	if recvObj == nil {
		return
	}
	armed := false
	var firstIO *ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := lintutil.CalleeName(call)
		recv := lintutil.Receiver(call)
		if recv == nil {
			return true
		}
		root := lintutil.RootIdent(recv)
		if root == nil || lintutil.ObjectOf(pass.TypesInfo, root) != recvObj {
			return true
		}
		switch {
		case armNames[name]:
			armed = true
		case ioNames[name]:
			if firstIO == nil {
				firstIO = call
			}
		}
		return true
	})
	if firstIO != nil && !armed {
		pass.Reportf(firstIO.Pos(), "method %s does I/O on its connection-backed receiver without arming a deadline; a wedged peer blocks this call forever", fd.Name.Name)
	}
}

// hasConnField reports whether t (a struct, possibly behind a pointer)
// has a direct field implementing net.Conn.
func hasConnField(t types.Type, conn *types.Interface) bool {
	st, ok := lintutil.Deref(t).Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if lintutil.IsNetConn(st.Field(i).Type(), conn) {
			return true
		}
	}
	return false
}
