package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockHeld flags blocking operations reached while a sync.Mutex or
// sync.RWMutex is held: channel sends/receives, blocking selects,
// time.Sleep, WaitGroup waits, network/file/subprocess I/O, calls to
// same-package functions that (transitively) do any of those, and the
// acquisition of a second lock (the classic ordering-deadlock shape).
//
// The distributed control plane (queue, dispatcher, stores, worker
// loop) earned this analyzer: PR 5–7 each shipped a lock held across a
// lease RPC or a WAL append that was found by hand. Where the blocking
// call IS the serialization point (a WAL append under the queue lock
// is the design), annotate it:
//
//	//dms:lockok <reason>
//
// The analyzer is intraprocedural over each function body with a
// one-package interprocedural fixpoint; it tracks locks by receiver
// expression text, treats `defer mu.Unlock()` as held-to-return, and
// deliberately ignores sync.Cond.Wait (the sanctioned blocking op
// under a lock) and closure bodies (they run on their own goroutine's
// schedule).
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc: "flags blocking operations (channel ops, sleeps, I/O, nested Lock) " +
		"performed while a sync.Mutex/RWMutex is held unless //dms:lockok",
	Run: runLockHeld,
}

func runLockHeld(pass *Pass) error {
	ann := collectAnnotations(pass.Fset, pass.Files)
	blockingFns := packageBlockingFns(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lh := &lockHeldScan{pass: pass, ann: ann, blockingFns: blockingFns}
			lh.block(fd.Body.List, map[string]bool{})
		}
	}
	return nil
}

type lockHeldScan struct {
	pass        *Pass
	ann         *annotations
	blockingFns map[*types.Func]string
}

// block walks one statement list in order, tracking the set of held
// lock receivers (by expression text). Branch bodies are scanned with
// a copy of the held set: a lock acquired inside a branch is
// considered released at its end (conservative in both directions, and
// matches the lock/unlock pairing style of this codebase).
func (lh *lockHeldScan) block(stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		if recv, kind, ok := lh.lockCall(s); ok {
			switch kind {
			case "Lock", "RLock":
				if len(held) > 0 && !held[recv] {
					lh.report(s.Pos(), "acquires "+recv+" while "+anyKey(held)+" is held (lock ordering)")
				}
				held[recv] = true
			case "Unlock", "RUnlock":
				delete(held, recv)
			}
			continue
		}
		if ds, ok := s.(*ast.DeferStmt); ok {
			// defer mu.Unlock() — held until return; the lock stays in
			// the held set for the rest of this block.
			if recv, kind, ok := lh.lockCallExpr(ds.Call); ok && (kind == "Unlock" || kind == "RUnlock") {
				_ = recv
				continue
			}
		}
		lh.stmt(s, held)
	}
}

// stmt scans one statement: blocking ops at this level when a lock is
// held, then nested blocks with a copy of the held set.
func (lh *lockHeldScan) stmt(s ast.Stmt, held map[string]bool) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		lh.block(st.List, copyHeld(held))
		return
	case *ast.IfStmt:
		lh.exprOps(st.Init, held)
		lh.exprOps(st.Cond, held)
		lh.block(st.Body.List, copyHeld(held))
		if st.Else != nil {
			lh.stmt(st.Else, copyHeld(held))
		}
		return
	case *ast.ForStmt:
		lh.exprOps(st.Init, held)
		lh.exprOps(st.Cond, held)
		lh.exprOps(st.Post, held)
		lh.block(st.Body.List, copyHeld(held))
		return
	case *ast.RangeStmt:
		lh.exprOps(st.X, held)
		lh.block(st.Body.List, copyHeld(held))
		return
	case *ast.SwitchStmt:
		lh.exprOps(st.Init, held)
		lh.exprOps(st.Tag, held)
		lh.caseClauses(st.Body, held)
		return
	case *ast.TypeSwitchStmt:
		lh.exprOps(st.Init, held)
		lh.exprOps(st.Assign, held)
		lh.caseClauses(st.Body, held)
		return
	case *ast.LabeledStmt:
		lh.stmt(st.Stmt, held)
		return
	}
	// Leaf statement (assignment, expression, select, send, return...):
	// scan its whole subtree for blocking ops if any lock is held.
	lh.exprOps(s, held)
}

// caseClauses scans a switch body: each clause's expressions with the
// held set, its statements with a copy.
func (lh *lockHeldScan) caseClauses(body *ast.BlockStmt, held map[string]bool) {
	for _, clause := range body.List {
		if cc, ok := clause.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				lh.exprOps(e, held)
			}
			lh.block(cc.Body, copyHeld(held))
		}
	}
}

// exprOps reports every blocking op in the subtree when a lock is
// held. A nil root (an absent clause) has none.
func (lh *lockHeldScan) exprOps(root ast.Node, held map[string]bool) {
	if root == nil || len(held) == 0 {
		return
	}
	for _, op := range directBlockingOps(lh.pass.Info, root, lh.blockingFns) {
		lh.report(op.node.Pos(), op.desc+" while "+anyKey(held)+" is held")
	}
}

func (lh *lockHeldScan) report(pos token.Pos, msg string) {
	if lh.ann.suppressed(lh.pass, "lockok", pos) {
		return
	}
	lh.pass.Reportf(pos, "%s; release the lock first or annotate //dms:lockok <reason>", msg)
}

// lockCall matches a statement of the form `x.Lock()` / `x.RLock()` /
// `x.Unlock()` / `x.RUnlock()` on a sync mutex, returning the receiver
// expression text and the method name.
func (lh *lockHeldScan) lockCall(s ast.Stmt) (recv, kind string, ok bool) {
	es, isExpr := s.(*ast.ExprStmt)
	if !isExpr {
		return "", "", false
	}
	call, isCall := es.X.(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	return lh.lockCallExpr(call)
}

func (lh *lockHeldScan) lockCallExpr(call *ast.CallExpr) (recv, kind string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	fn, isFn := lh.pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return types.ExprString(sel.X), name, true
}

func copyHeld(held map[string]bool) map[string]bool {
	cp := make(map[string]bool, len(held))
	for k := range held {
		cp[k] = true
	}
	return cp
}

// anyKey returns the lexically smallest held lock name, for stable
// messages.
func anyKey(held map[string]bool) string {
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}
