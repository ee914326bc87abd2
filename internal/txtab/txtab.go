// Package txtab is the engine's one per-transaction table: every store and
// lock manager that keeps private state per transaction finds it here. It
// is the per-transaction twin of internal/vartab.
//
// A transaction number indexes a slot directly. Slots live in fixed-size
// chunks published through one atomic directory pointer, so finding a slot
// is one atomic load and two indexes: no mutex, no map, no allocation.
// Growth is the cold path: under the table's own mutex it allocates only
// the chunks a new transaction number falls in, copies the directory of
// chunk pointers and publishes the copy, so a slot never moves and
// concurrent first touches of one slot agree on it.
//
// What a slot holds, and who may touch it, is its user's business: the
// table hands out stable pointers and nothing else. The engine's rule is
// that a slot is touched only on behalf of its own transaction, and every
// hand-over of a transaction between goroutines is a happens-before edge,
// so a slot's contents need no lock of their own.
//
// Transaction numbers are the dense, non-negative indexes of a
// transaction system; a table's memory is proportional to the largest
// number it has seen.
package txtab

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// chunkBits sets the chunk size: 256 slots, so a run of tens of thousands
// of transactions publishes a few hundred directories at most.
const chunkBits = 8

const chunkSize = 1 << chunkBits

type chunk[T any] [chunkSize]T

// directory is one published list of chunks, indexed by tx >> chunkBits;
// nil where no transaction of a chunk was touched. Never modified once
// published.
type directory[T any] struct{ chunks []*chunk[T] }

// Table maps transaction numbers to stable *T slots. The zero value is an
// empty table whose new slots are zero Ts; New sets up each new chunk's
// slots with a function instead.
type Table[T any] struct {
	dir  atomic.Pointer[directory[T]]
	mu   sync.Mutex // serializes growth
	init func(slots []T)
}

// New returns an empty table that passes every new chunk's slots to init
// before any caller can see them, so a slot may start with references
// into its own chunk (inline buffers, a shared backing array).
func New[T any](init func(slots []T)) *Table[T] { return &Table[T]{init: init} }

// Slot returns tx's slot, creating its chunk on the first touch.
// Concurrent first touches agree on one slot. tx must be non-negative.
//
//optcc:hotpath
func (t *Table[T]) Slot(tx int) *T {
	if p := t.Lookup(tx); p != nil {
		return p
	}
	//cclint:ignore hotpath first touch of a chunk, amortized over its 256 slots
	return t.grow(tx)
}

// Lookup returns tx's slot, or nil when no transaction in its chunk was
// ever given one. It creates nothing.
//
//optcc:hotpath
func (t *Table[T]) Lookup(tx int) *T {
	d := t.dir.Load()
	if d == nil {
		return nil
	}
	if ci := uint(tx) >> chunkBits; ci < uint(len(d.chunks)) {
		if c := d.chunks[ci]; c != nil {
			return &c[tx&(chunkSize-1)]
		}
	}
	return nil
}

// Grow creates the slots of transactions [0, n) in one step, a pre-size
// for a caller that knows how many transactions it will see.
func (t *Table[T]) Grow(n int) {
	if n > 0 {
		t.mu.Lock()
		t.ensureLocked(0, (n-1)>>chunkBits)
		t.mu.Unlock()
	}
}

// grow creates tx's chunk and returns its slot.
func (t *Table[T]) grow(tx int) *T {
	if tx < 0 {
		panic(fmt.Sprintf("txtab: negative transaction number %d", tx))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.ensureLocked(tx>>chunkBits, tx>>chunkBits)
	return &d[tx>>chunkBits][tx&(chunkSize-1)]
}

// ensureLocked makes chunks lo..hi exist and returns the directory holding
// them. A missing chunk means a new directory: the old one is copied, the
// missing chunks are allocated and set up, and the copy is published, so
// a reader holding the old directory still finds every slot it had.
func (t *Table[T]) ensureLocked(lo, hi int) []*chunk[T] {
	var d []*chunk[T]
	if p := t.dir.Load(); p != nil {
		d = p.chunks
	}
	copied := false
	for ci := lo; ci <= hi; ci++ {
		if ci < len(d) && d[ci] != nil {
			continue
		}
		if !copied {
			nd := make([]*chunk[T], max(len(d), hi+1))
			copy(nd, d)
			d, copied = nd, true
		}
		c := new(chunk[T])
		if t.init != nil {
			t.init(c[:])
		}
		d[ci] = c
	}
	if copied {
		t.dir.Store(&directory[T]{chunks: d})
	}
	return d
}

// Range visits the slot of every transaction whose chunk exists, in
// transaction order, until fn returns false: every slot Slot ever
// returned, and the untouched slots sharing a chunk with one. It takes no
// lock; a chunk created concurrently may or may not be visited.
func (t *Table[T]) Range(fn func(tx int, p *T) bool) {
	d := t.dir.Load()
	if d == nil {
		return
	}
	for ci, c := range d.chunks {
		if c == nil {
			continue
		}
		for i := range c {
			if !fn(ci<<chunkBits+i, &c[i]) {
				return
			}
		}
	}
}
