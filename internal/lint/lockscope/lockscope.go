// Package lockscope flags blocking operations performed while a mutex
// is held: network I/O, dials, unbounded waits (WaitGroup.Wait,
// singleflight-style Flight.Wait), and sends on channels known to be
// unbuffered. Holding a shard mutex or flightMu across any of these
// turns one slow peer into a stalled shard — the exact failure mode the
// respcache and conntrack fast paths were built to avoid.
//
// Allowed patterns the analyzer recognizes:
//
//   - sync.Cond.Wait, which releases the lock while parked;
//   - sends inside a select that has a default clause (non-blocking);
//   - unlocking before the blocking call, including the
//     lock → copy → unlock → dial shape conntrack.Acquire uses.
//
// Tracking is lexical with branch forking: a branch that unlocks and
// returns does not unlock the fall-through path.
package lockscope

import (
	"go/ast"
	"go/types"

	"webcluster/internal/lint/analysis"
	"webcluster/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockscope",
	Doc: "check that no blocking call (network I/O, dial, wait, " +
		"unbuffered channel send) happens while a mutex is held",
	Run: run,
}

// connSafe are net.Conn methods that do not block on the peer.
var connSafe = map[string]bool{
	"Close": true, "CloseRead": true, "CloseWrite": true,
	"LocalAddr": true, "RemoteAddr": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	"SetNoDelay": true, "SetKeepAlive": true, "SetKeepAlivePeriod": true,
}

func run(pass *analysis.Pass) error {
	conn := lintutil.NetConnIface(pass.Pkg)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{pass: pass, conn: conn,
				held:       make(map[string]bool),
				unbuffered: make(map[types.Object]bool)}
			w.walkBlock(fd.Body)
			// Function literals get their own walk with a fresh lock
			// set: a closure does not inherit the creator's critical
			// section at run time (it may run later), and goroutine
			// bodies certainly do not.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					nw := &walker{pass: pass, conn: conn,
						held:       make(map[string]bool),
						unbuffered: w.unbuffered}
					nw.walkBlock(fl.Body)
				}
				return true
			})
		}
	}
	return nil
}

type walker struct {
	pass *analysis.Pass
	conn *types.Interface
	// held maps the lock's receiver expression text ("s.mu",
	// "c.flightMu") to true while locked on the current path.
	held map[string]bool
	// unbuffered records channels created with make(chan T) in this
	// function.
	unbuffered map[types.Object]bool
}

func (w *walker) fork() *walker {
	nw := &walker{pass: w.pass, conn: w.conn,
		held: make(map[string]bool, len(w.held)), unbuffered: w.unbuffered}
	for k, v := range w.held {
		nw.held[k] = v
	}
	return nw
}

// join keeps only locks held on every surviving branch, so a branch
// that unlocks before returning does not leak an unlocked state into
// the fall-through path (and vice versa).
func (w *walker) join(branches []*walker) {
	if len(branches) == 0 {
		return
	}
	for k := range w.held {
		for _, b := range branches {
			if !b.held[k] {
				delete(w.held, k)
				break
			}
		}
	}
	for k := range branches[0].held {
		all := true
		for _, b := range branches {
			if !b.held[k] {
				all = false
				break
			}
		}
		if all {
			w.held[k] = true
		}
	}
}

func (w *walker) walkBlock(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if w.walkStmt(s) {
			return true
		}
	}
	return false
}

func (w *walker) walkStmt(s ast.Stmt) (terminated bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		w.handleExpr(st.X)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			w.handleExpr(rhs)
		}
		w.trackMake(st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.handleExpr(v)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held for the rest of the
		// function — exactly the state we already track; any other
		// deferred call runs after the frame, outside this analysis.
		return false
	case *ast.SendStmt:
		w.checkSend(st, false)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.handleExpr(r)
		}
		return true
	case *ast.IfStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.handleExpr(st.Cond)
		thenW := w.fork()
		thenTerm := thenW.walkBlock(st.Body)
		elseW := w.fork()
		elseTerm := false
		if st.Else != nil {
			elseTerm = elseW.walkStmt(st.Else)
		}
		var survivors []*walker
		if !thenTerm {
			survivors = append(survivors, thenW)
		}
		if !elseTerm {
			survivors = append(survivors, elseW)
		}
		w.join(survivors)
		return thenTerm && elseTerm
	case *ast.BlockStmt:
		return w.walkBlock(st)
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		bw := w.fork()
		bw.walkBlock(st.Body)
		w.join([]*walker{bw})
	case *ast.RangeStmt:
		bw := w.fork()
		bw.walkBlock(st.Body)
		w.join([]*walker{bw})
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		w.walkClauses(clauseList(s), false)
	case *ast.SelectStmt:
		w.walkSelect(st)
	case *ast.LabeledStmt:
		return w.walkStmt(st.Stmt)
	case *ast.BranchStmt:
		return true
	case *ast.GoStmt:
		// The goroutine body runs outside this critical section; its
		// own locks are checked by the FuncLit walk in run.
		return false
	}
	return false
}

func clauseList(s ast.Stmt) []ast.Stmt {
	switch st := s.(type) {
	case *ast.SwitchStmt:
		return st.Body.List
	case *ast.TypeSwitchStmt:
		return st.Body.List
	}
	return nil
}

func (w *walker) walkClauses(clauses []ast.Stmt, nonBlocking bool) {
	var survivors []*walker
	for _, cl := range clauses {
		var body []ast.Stmt
		switch cc := cl.(type) {
		case *ast.CaseClause:
			body = cc.Body
		case *ast.CommClause:
			body = cc.Body
		}
		fw := w.fork()
		term := false
		for _, bs := range body {
			if fw.walkStmt(bs) {
				term = true
				break
			}
		}
		if !term {
			survivors = append(survivors, fw)
		}
	}
	w.join(survivors)
}

// walkSelect: a select with a default clause is non-blocking, so its
// communications are exempt; without one, a send on an unbuffered
// channel (or any channel we cannot see the make of) can park the
// goroutine while the lock is held.
func (w *walker) walkSelect(st *ast.SelectStmt) {
	hasDefault := false
	for _, cl := range st.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				if send, ok := cc.Comm.(*ast.SendStmt); ok {
					w.checkSend(send, false)
				}
			}
		}
	}
	w.walkClauses(st.Body.List, hasDefault)
}

// trackMake records channels created unbuffered in this function.
func (w *walker) trackMake(st *ast.AssignStmt) {
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, rhs := range st.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || lintutil.CalleeName(call) != "make" {
			continue
		}
		t := lintutil.TypeOf(w.pass.TypesInfo, call)
		if t == nil {
			continue
		}
		if _, isChan := t.Underlying().(*types.Chan); !isChan {
			continue
		}
		id, ok := st.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		obj := lintutil.ObjectOf(w.pass.TypesInfo, id)
		if obj == nil {
			continue
		}
		w.unbuffered[obj] = len(call.Args) < 2
	}
}

func (w *walker) heldAny() (string, bool) {
	for k, v := range w.held {
		if v {
			return k, true
		}
	}
	return "", false
}

func (w *walker) checkSend(st *ast.SendStmt, exempt bool) {
	lock, held := w.heldAny()
	if !held || exempt {
		return
	}
	// Only channels we saw made unbuffered in this function are flagged;
	// everything else would be guesswork.
	id, ok := ast.Unparen(st.Chan).(*ast.Ident)
	if !ok {
		return
	}
	obj := lintutil.ObjectOf(w.pass.TypesInfo, id)
	if obj == nil {
		return
	}
	if unbuf, known := w.unbuffered[obj]; known && unbuf {
		w.pass.Reportf(st.Pos(), "send on unbuffered channel %q while %s is held; the receiver may need that lock to make progress", id.Name, lock)
	}
}

// handleExpr classifies calls inside e against the current lock set.
func (w *walker) handleExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate goroutine/closure context
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		w.handleCall(call)
		return true
	})
}

func (w *walker) handleCall(call *ast.CallExpr) {
	name := lintutil.CalleeName(call)
	recv := lintutil.Receiver(call)
	// Package-qualified calls (fmt.Errorf, os.Stat, ...) have a package
	// name, not a value, in receiver position.
	if id, ok := recv.(*ast.Ident); ok {
		if _, isPkg := lintutil.ObjectOf(w.pass.TypesInfo, id).(*types.PkgName); isPkg {
			if lintutil.IsNetDial(w.pass.TypesInfo, call) {
				if lock, held := w.heldAny(); held {
					w.pass.Reportf(call.Pos(), "dial while %s is held; release the lock before network I/O (the conntrack Acquire pattern)", lock)
				}
			}
			return
		}
	}
	recvType := lintutil.TypeOf(w.pass.TypesInfo, recv)

	// Lock bookkeeping.
	if recv != nil && lintutil.IsMutex(recvType) {
		key := types.ExprString(recv)
		switch name {
		case "Lock", "RLock":
			w.held[key] = true
		case "Unlock", "RUnlock":
			delete(w.held, key)
		}
		return
	}

	lock, held := w.heldAny()
	if !held {
		return
	}

	// Blocking shapes.
	switch {
	case name == "Wait":
		if recv != nil && lintutil.IsSyncCond(recvType) {
			return // Cond.Wait releases the lock while parked
		}
		w.pass.Reportf(call.Pos(), "blocking Wait while %s is held", lock)
	case recv != nil && lintutil.IsNetConn(recvType, w.conn) && !connSafe[name]:
		w.pass.Reportf(call.Pos(), "network I/O (%s) while %s is held; a wedged peer stalls every caller queued on the lock", name, lock)
	}
}
