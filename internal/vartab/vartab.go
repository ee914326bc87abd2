// Package vartab is the engine's one per-variable table: every scheduler
// and store that keeps a record per variable finds it here.
//
// The variable set is fixed per run (a transaction system declares its
// variables), so New lays one slot per declared variable out in a single
// slab, in the order given, and builds one immutable map from variable to
// slot; neither changes afterwards. A caller that numbers its variables
// the way the table was built (core.System.VarIDs numbers them in Vars
// order) finds a slot with At: one slice index, no hash; one that is not
// sure its number matches the table checks it with AtVar, which compares
// the name at that number instead of hashing it. Finding a slot
// by name (Slot, Lookup) is one lock-free read of the map: no mutex, no
// sync.Map, no allocation. Variables outside the declared set (none in
// normal operation) fall back to a sync.Map, so a table degrades safely
// instead of panicking.
//
// What a slot holds, and who may write it, is its user's business: the
// table hands out stable pointers and nothing else.
package vartab

import (
	"sync"

	"optcc/internal/core"
)

// Table maps variables to stable *T slots. Construct with New; the zero
// value is unusable.
type Table[T any] struct {
	vars     []core.Var // the declared variables, as given to New
	slab     []T        // their slots, in the same order
	dups     bool       // vars repeats a variable, so vars[i] need not own slab[i]
	declared map[core.Var]*T
	late     sync.Map // core.Var → *T, variables first touched after New
}

// New builds a table whose declared slots are zero Ts in one slab, one per
// distinct variable of vars (duplicates fold to one slot). The table keeps
// vars, which must not change afterwards.
func New[T any](vars []core.Var) *Table[T] {
	t := &Table[T]{vars: vars, slab: make([]T, len(vars)), declared: make(map[core.Var]*T, len(vars))}
	for i, v := range vars {
		if t.declared[v] == nil {
			t.declared[v] = &t.slab[i]
		}
	}
	t.dups = len(t.declared) != len(vars)
	return t
}

// At returns the slot of vars[i], for the vars the table was built from.
// When vars are distinct (core.System.Vars is), At(i) is Slot(vars[i]).
//
//optcc:hotpath
func (t *Table[T]) At(i int32) *T { return &t.slab[i] }

// AtVar returns the slot of vars[i] when vars[i] is v, and nil when i is
// out of range, names another variable, or the table was built from
// repeated variables. It is At for a caller whose number may belong to
// another numbering: one index and one string comparison, which ends at
// the pointer check when both names share their bytes, and never a hash.
//
//optcc:hotpath
func (t *Table[T]) AtVar(i int32, v core.Var) *T {
	if uint(i) >= uint(len(t.vars)) || t.vars[i] != v || t.dups {
		return nil
	}
	return &t.slab[i]
}

// Slot returns v's slot, creating a zero one on the first touch of an
// undeclared variable. Concurrent first touches agree on one slot.
//
//optcc:hotpath
func (t *Table[T]) Slot(v core.Var) *T { return t.find(v, true) }

// Lookup returns v's slot, or nil when v is undeclared and was never
// given one by Slot. It creates nothing.
//
//optcc:hotpath
func (t *Table[T]) Lookup(v core.Var) *T { return t.find(v, false) }

//optcc:hotpath
func (t *Table[T]) find(v core.Var, create bool) *T {
	if p, ok := t.declared[v]; ok {
		return p
	}
	//cclint:ignore hotpath undeclared-variable fallback; unreachable when the run declares its variable set
	return t.fallback(v, create)
}

// fallback finds (or, with create, makes) an undeclared variable's slot.
func (t *Table[T]) fallback(v core.Var, create bool) *T {
	if p, ok := t.late.Load(v); ok {
		return p.(*T)
	}
	if !create {
		return nil
	}
	p, _ := t.late.LoadOrStore(v, new(T))
	return p.(*T)
}

// Declared returns the number of distinct declared variables, a size hint
// for a copy of the table; fallback slots are not counted.
func (t *Table[T]) Declared() int { return len(t.declared) }

// SameVars reports whether t's slots are exactly the variables of db:
// every one declared, no other declared, and no fallback slot. A store
// whose table has the same variables as the state it is reset to
// overwrites the slots in place instead of building a new table.
func (t *Table[T]) SameVars(db core.DB) bool {
	if len(t.declared) != len(db) || t.hasLate() {
		return false
	}
	for v := range db {
		if _, ok := t.declared[v]; !ok {
			return false
		}
	}
	return true
}

// LaidOut reports whether t was built by New from this very slice (the
// same backing array, not an equal one) of distinct variables and has no
// fallback slot, so slot i is vars[i]'s. A store bound to a System checks
// it against the System's shared Vars to skip SameVars' hashing.
func (t *Table[T]) LaidOut(vars []core.Var) bool {
	return len(t.vars) == len(vars) && (len(vars) == 0 || &t.vars[0] == &vars[0]) && !t.dups && !t.hasLate()
}

// hasLate reports whether any variable has a fallback slot.
func (t *Table[T]) hasLate() bool {
	late := false
	t.late.Range(func(_, _ any) bool {
		late = true
		return false
	})
	return late
}

// Range visits every slot, declared (in slab order) and fallback, once
// each, until fn returns false. It takes no lock; a slot created
// concurrently may or may not be visited.
func (t *Table[T]) Range(fn func(v core.Var, p *T) bool) {
	for i, v := range t.vars {
		p := &t.slab[i]
		if t.dups && t.declared[v] != p {
			continue // a repeated variable's unused slot
		}
		if !fn(v, p) {
			return
		}
	}
	t.late.Range(func(k, p any) bool { return fn(k.(core.Var), p.(*T)) })
}
