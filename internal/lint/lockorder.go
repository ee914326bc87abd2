package lint

import (
	"fmt"
	"go/ast"
	"go/types"

	"optcc/internal/lint/analysis"
	"optcc/internal/lint/loader"
)

// LockOrder machine-checks the engine's documented lock hierarchy (DESIGN.md
// "Native SGT and OCC" and "Durability"):
//
//   - sgtgraph: ConcurrentSGT's one graph mutex (sgtGraph.mu) is never
//     taken recursively.
//   - lockmgr: per-shard table mutexes (tableShard.mu) are never nested —
//     every multi-shard sweep releases one shard before locking the next —
//     and fastSet.mu is innermost.
//   - storage: Disk.ckptMu (whole-checkpoint serialization) is outermost,
//     Disk.syncMu is never taken under the log mutex Disk.mu (the
//     off-mutex group fsync exists precisely so appends can proceed
//     mid-fsync); kvShard.freeMu never nests with itself (the *Locked
//     naming convention), and GroupCommitter.mu is never taken
//     recursively.
//   - sim: the deadlock breaker's mutex (shardedRun.breakMu) is outermost
//     of all — the breaker scans and kicks the latches under it, and a
//     user takes it only after unlocking its latch. Below it the shard
//     decision latch (shardState.mu) is outermost across every other
//     domain — a scheduler decision runs under it, so lock-table shard
//     mutexes, the SGT graph mutex, Mutexed.mu and the group-commit queue
//     all nest inside it, it is never taken while any of those is held,
//     and two latches are never held at once, not even through a call
//     (decide → unlock → kick).
//
// The check is a source-order scan per function: Lock/RLock pushes the
// receiver's lock class, Unlock/RUnlock pops it (a deferred unlock holds to
// function end), and every acquisition is checked against the classes still
// held — rank order within a domain and self-nesting, where a
// multi-instance class must be released before its next instance is
// taken. Calls to functions whose transitive lock summary (built over the
// whole module) intersects the held set are checked the same way, so a
// violation hidden behind a helper is still caught. Loop back-edges are not modeled: a lock held across a loop
// iteration into its own re-acquisition is out of scope (documented
// limitation; the race/stress CI jobs cover that dynamically).
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "check mutex acquisitions against the engine's documented lock hierarchy",
	Run:  runLockOrder,
}

// lockClass is one named mutex in the hierarchy. Classes are matched by
// "OwnerType.field" so the analyzer needs no package configuration and the
// golden fixtures can replicate the shapes under test.
type lockClass struct {
	key    string // "sgtGraph.mu"
	domain string // classes in different domains never constrain each other
	// rank orders acquisition within a domain: a lock may only be acquired
	// while every held same-domain lock has a strictly smaller rank
	// (smaller = outer, larger = inner).
	rank int
	// multi marks classes with many instances (per-shard, per-transaction).
	// Acquiring a second instance while one is held is a violation.
	multi bool
	// outermost puts the class above every class of every other domain: it
	// may not be acquired while any of those is held, and a call that may
	// acquire another instance while one is held is a violation too.
	// Within its own domain rank orders it as usual.
	outermost bool
}

// lockClasses is the hierarchy under enforcement, keyed by OwnerType.field.
var lockClasses = map[string]*lockClass{
	"sgtGraph.mu":        {key: "sgtGraph.mu", domain: "sgtgraph", rank: 10},
	"tableShard.mu":      {key: "tableShard.mu", domain: "lockmgr", rank: 10, multi: true},
	"fastSet.mu":         {key: "fastSet.mu", domain: "lockmgr", rank: 20, multi: true},
	"Disk.ckptMu":        {key: "Disk.ckptMu", domain: "disk", rank: 5},
	"Disk.syncMu":        {key: "Disk.syncMu", domain: "disk", rank: 10},
	"Disk.mu":            {key: "Disk.mu", domain: "disk", rank: 20},
	"GroupCommitter.mu":  {key: "GroupCommitter.mu", domain: "groupcommit", rank: 10},
	"kvShard.freeMu":     {key: "kvShard.freeMu", domain: "kv", rank: 10, multi: true},
	"Mutexed.mu":         {key: "Mutexed.mu", domain: "online", rank: 10},
	"shardedRun.breakMu": {key: "shardedRun.breakMu", domain: "latch", rank: 5, outermost: true},
	"shardState.mu":      {key: "shardState.mu", domain: "latch", rank: 10, multi: true, outermost: true},
}

// lockCallKind classifies a call as a Lock or Unlock on a tracked class.
type lockCallKind int

const (
	notLockCall lockCallKind = iota
	lockCall
	unlockCall
)

// classifyLockCall resolves c as sync.Mutex/RWMutex Lock/Unlock on a struct
// field and returns the tracked class, if any.
func classifyLockCall(info *types.Info, c *ast.CallExpr) (*lockClass, lockCallKind) {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, notLockCall
	}
	var kind lockCallKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = lockCall
	case "Unlock", "RUnlock":
		kind = unlockCall
	default:
		return nil, notLockCall
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, notLockCall
	}
	// The mutex expression must itself be a field selection OwnerType.field.
	fieldSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return nil, notLockCall
	}
	selection, ok := info.Selections[fieldSel]
	if !ok {
		return nil, notLockCall
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok || !field.IsField() {
		return nil, notLockCall
	}
	owner := namedTypeName(selection.Recv())
	if owner == "" {
		return nil, notLockCall
	}
	cls := lockClasses[owner+"."+field.Name()]
	if cls == nil {
		return nil, notLockCall
	}
	return cls, kind
}

// namedTypeName unwraps pointers and returns the receiver's named-type name.
func namedTypeName(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj().Name()
		default:
			return ""
		}
	}
}

// buildLockSummaries computes, for every function in the module, the set of
// tracked lock classes it may acquire — directly or through statically
// resolved calls (transitive closure). Goroutine bodies are excluded: a
// lock taken by a spawned goroutine is not held under the spawner.
func buildLockSummaries(pkgs []*loader.Package, sh *analysis.Shared) {
	direct := map[types.Object]map[string]bool{}
	calls := map[types.Object]map[types.Object]bool{}
	for _, p := range pkgs {
		for _, f := range p.Syntax {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := p.TypesInfo.Defs[fd.Name]
				if obj == nil {
					continue
				}
				acquires := map[string]bool{}
				callees := map[types.Object]bool{}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.GoStmt:
						return false
					case *ast.CallExpr:
						if cls, kind := classifyLockCall(p.TypesInfo, n); cls != nil && kind == lockCall {
							acquires[cls.key] = true
							return true
						}
						if callee := staticCallee(p.TypesInfo, n); callee != nil {
							callees[callee] = true
						}
					}
					return true
				})
				direct[obj] = acquires
				calls[obj] = callees
			}
		}
	}
	// Propagate to a fixpoint: small module, tiny class set.
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			for callee := range callees {
				for cls := range direct[callee] {
					if !direct[fn][cls] {
						direct[fn][cls] = true
						changed = true
					}
				}
			}
		}
	}
	for fn, acquires := range direct {
		if len(acquires) > 0 {
			sh.LockSummary[fn] = acquires
		}
	}
}

// staticCallee resolves a call to a declared function or method, if the
// target is statically known (not an interface dispatch or function value).
func staticCallee(info *types.Info, c *ast.CallExpr) types.Object {
	switch fun := c.Fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				// Interface methods have no body; their summary is empty, so
				// including them is harmless and keeps the lookup uniform.
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn // package-qualified call
		}
	}
	return nil
}

// heldLock is one acquisition still in effect during the scan.
type heldLock struct {
	class    *lockClass
	pos      ast.Node
	deferred bool
}

func runLockOrder(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scanLockOrder(pass, fd.Body)
			// Function literals run on their own goroutine or call stack
			// frame; scan each against an empty held set.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					scanLockOrder(pass, lit.Body)
					return false
				}
				return true
			})
		}
	}
	return nil
}

// scanLockOrder walks one function body in source order, maintaining the
// held-lock list and checking each acquisition. Nested function literals
// are skipped (scanned separately).
func scanLockOrder(pass *analysis.Pass, body *ast.BlockStmt) {
	var held []heldLock
	var loops []ast.Node
	var walk func(n ast.Node)

	report := func(n ast.Node, format string, args ...any) {
		pass.Reportf(n.Pos(), fmt.Sprintf(format, args...))
	}

	checkAcquire := func(n ast.Node, cls *lockClass, viaCall string) {
		for _, h := range held {
			if h.class.domain != cls.domain {
				if cls.outermost && viaCall != "" {
					report(n, "call to %s may acquire %s while %s is held; %s is outermost", viaCall, cls.key, h.class.key, cls.key)
				} else if cls.outermost {
					report(n, "%s acquired while %s is held; %s is outermost", cls.key, h.class.key, cls.key)
				}
				continue
			}
			if h.class == cls {
				if viaCall != "" {
					if !cls.multi {
						report(n, "call to %s may acquire %s, which is already held (self-deadlock)", viaCall, cls.key)
					} else if cls.outermost {
						report(n, "call to %s may acquire a second %s while one is held: unlock before kicking", viaCall, cls.key)
					}
					// A callee acquiring another instance of a multi-instance
					// class cannot be ordered statically; left to the race
					// jobs rather than risking false positives.
					continue
				}
				if cls.multi {
					report(n, "second %s acquired while one is held: multi-instance locks must be released first", cls.key)
				} else {
					report(n, "recursive acquisition of %s (self-deadlock)", cls.key)
				}
				continue
			}
			if cls.rank <= h.class.rank {
				if viaCall != "" {
					report(n, "call to %s may acquire %s while %s is held; the documented hierarchy orders %s inside %s", viaCall, cls.key, h.class.key, h.class.key, cls.key)
				} else {
					report(n, "%s acquired while %s is held; the documented hierarchy orders %s inside %s", cls.key, h.class.key, h.class.key, cls.key)
				}
			}
		}
	}

	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return // scanned separately with an empty held set
		case *ast.DeferStmt:
			if cls, kind := classifyLockCall(pass.TypesInfo, n.Call); cls != nil && kind == unlockCall {
				// Deferred unlock: the lock stays held to function end; mark
				// the newest matching acquisition so a plain Unlock of a
				// sibling does not pop it.
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].class == cls && !held[i].deferred {
						held[i].deferred = true
						break
					}
				}
				return
			}
			walk(n.Call)
			return
		case *ast.ForStmt:
			loops = append(loops, n)
			walk(n.Init)
			walk(n.Cond)
			walk(n.Body)
			walk(n.Post)
			loops = loops[:len(loops)-1]
			return
		case *ast.RangeStmt:
			loops = append(loops, n)
			walk(n.Body)
			loops = loops[:len(loops)-1]
			return
		case *ast.CallExpr:
			for _, arg := range n.Args {
				walk(arg)
			}
			cls, kind := classifyLockCall(pass.TypesInfo, n)
			switch {
			case cls != nil && kind == lockCall:
				if loopWithoutUnlock(pass, loops, cls) {
					if !cls.multi {
						report(n, "%s locked inside a loop with no unlock in the loop body (recursive self-deadlock)", cls.key)
					} else {
						report(n, "a loop acquires multiple %s instances; this class requires release-before-next", cls.key)
					}
				}
				checkAcquire(n, cls, "")
				held = append(held, heldLock{class: cls, pos: n})
			case cls != nil && kind == unlockCall:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].class == cls && !held[i].deferred {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			default:
				if len(held) > 0 {
					if callee := staticCallee(pass.TypesInfo, n); callee != nil {
						for clsKey := range pass.Shared.LockSummary[callee] {
							if c := lockClasses[clsKey]; c != nil {
								checkAcquire(n, c, callee.Name())
							}
						}
					}
				}
			}
			return
		}
		// Default: walk children in source order.
		var children []ast.Node
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			if c != nil {
				children = append(children, c)
			}
			return false
		})
		for _, c := range children {
			walk(c)
		}
	}
	walk(body)
}

// loopWithoutUnlock reports whether the innermost enclosing loop's body
// contains no unlock of cls — meaning a Lock call inside it accumulates one
// instance per iteration. A loop that unlocks the class in its own body is
// the release-before-next idiom and holds at most one instance at a time.
func loopWithoutUnlock(pass *analysis.Pass, loops []ast.Node, cls *lockClass) bool {
	if len(loops) == 0 {
		return false
	}
	var body ast.Node
	switch n := loops[len(loops)-1].(type) {
	case *ast.ForStmt:
		body = n.Body
	case *ast.RangeStmt:
		body = n.Body
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok {
			if ccls, kind := classifyLockCall(pass.TypesInfo, c); ccls == cls && kind == unlockCall {
				found = true
			}
		}
		return !found
	})
	return !found
}
