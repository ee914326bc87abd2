package online

import (
	"optcc/internal/core"
	"optcc/internal/lockmgr"
)

// TreeLock is the tree-locking protocol of Silberschatz & Kedem cited in
// Section 5.5: for transactions whose accesses descend a tree of variables
// (root first, each subsequent variable a child of the previous), a lock
// may be taken on a node only while holding its parent, after which the
// parent can be released immediately — lock coupling. The protocol is not
// two-phase, never deadlocks on descending transactions, and releases hot
// upper-level variables far earlier than 2PL; it is the canonical example
// of a locking policy that beats 2PL by exploiting structured data.
//
// The scheduler validates nothing about tree shape; it simply releases the
// previous step's lock once the next is granted. Use it with workloads
// whose transactions access root-to-leaf paths (workload.PathWorkload),
// where that behaviour implements the tree protocol exactly.
type TreeLock struct {
	base
	sys   *core.System
	table *lockmgr.Table
}

// NewTreeLock returns a tree-locking (lock-coupling) scheduler.
func NewTreeLock() *TreeLock { return &TreeLock{} }

// Name implements Scheduler.
func (s *TreeLock) Name() string { return "tree-lock" }

// Begin implements Scheduler.
func (s *TreeLock) Begin(sys *core.System) {
	s.sys = sys
	s.table = lockmgr.NewTable(lockmgr.Detect)
	for tx := 0; tx < sys.NumTxs(); tx++ {
		s.table.Register(lockmgr.TxID(tx))
	}
}

// Try implements Scheduler.
func (s *TreeLock) Try(id core.StepID) Decision {
	step := s.sys.Step(id)
	if held, ok := s.table.Holds(lockmgr.TxID(id.Tx), step.Var); ok && held == lockmgr.Exclusive {
		s.releasePrev(id)
		return Grant
	}
	r := s.table.Acquire(lockmgr.TxID(id.Tx), step.Var, lockmgr.Exclusive)
	switch r.Status {
	case lockmgr.Granted:
		s.releasePrev(id)
		return Grant
	case lockmgr.AbortSelf:
		return AbortTx
	default:
		return Delay
	}
}

// releasePrev implements lock coupling: once the lock for step idx is
// held, the lock taken for step idx−1 is no longer needed (descending
// access never revisits an ancestor).
func (s *TreeLock) releasePrev(id core.StepID) {
	if id.Idx == 0 {
		return
	}
	prev := s.sys.Txs[id.Tx].Steps[id.Idx-1].Var
	if prev != s.sys.Step(id).Var {
		s.table.Release(lockmgr.TxID(id.Tx), prev)
	}
}

// ReleasesOnGrant implements GrantReleaser: a grant releases the previous
// step's lock.
func (s *TreeLock) ReleasesOnGrant() bool { return true }

// Commit implements Scheduler.
func (s *TreeLock) Commit(tx int) {
	s.table.ReleaseAll(lockmgr.TxID(tx))
	s.table.Forget(lockmgr.TxID(tx))
}

// Abort implements Scheduler.
func (s *TreeLock) Abort(tx int) {
	s.table.ReleaseAll(lockmgr.TxID(tx))
	s.table.Forget(lockmgr.TxID(tx))
}

// Victim implements Scheduler (tree locking on descending paths cannot
// deadlock, but the harness may still ask).
func (s *TreeLock) Victim(stuck []int) (int, bool) {
	if cycle, found := s.table.DetectDeadlock(); found {
		return int(s.table.ChooseVictim(cycle)), true
	}
	return 0, false
}
