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
//
// The package also owns where per-transaction state sits in memory. The
// engine hands consecutive transaction numbers to different users, so in
// a plain array eight neighbouring transactions' state shares one cache
// line and every user's write invalidates the line the others read. Both
// tables here interleave instead: transaction tx sits at
//
//	(tx mod 8)·stride + ⌊tx/8⌋
//
// so transactions fewer than Spread apart are a stride of slots apart and
// never share a line, at no extra memory for a table of any real size.
// Table interleaves inside each 256-slot chunk (stride 32) and pads each
// chunk's end with a line; Dense interleaves over the whole array.
package txtab

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// LineSize is the cache-line size every padded layout in the engine
// assumes: a word that one processor writes while others read their own
// neighbouring state gets LineSize bytes of its own.
const LineSize = 64

// spreadBits sets Spread: transactions fewer than Spread apart never share
// a line in either table.
const spreadBits = 3

// Spread is the distance in transaction number below which two
// transactions' slots sit at least LineSize bytes apart.
const Spread = 1 << spreadBits

// chunkBits sets the chunk size: 256 slots, so a run of tens of thousands
// of transactions publishes a few hundred directories at most.
const chunkBits = 8

const chunkSize = 1 << chunkBits

// chunkStride is a chunk's interleave stride: tx and tx+d (0 < d < Spread)
// sit at least chunkStride-1 slots apart, LineSize bytes or more for any
// slot of 3 bytes or more.
const chunkStride = chunkSize / Spread

// chunk is one chunk's slots in interleaved order, plus a line of padding
// so that the last slot of one chunk and the first of the next never
// share a line wherever the allocator puts them.
type chunk[T any] struct {
	s [chunkSize]T
	_ [LineSize]byte
}

// inChunk maps a transaction's index within its chunk to its slot.
//
//optcc:hotpath
func inChunk(i int) int { return (i&(Spread-1))*chunkStride + (i&(chunkSize-1))>>spreadBits }

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
// into its own chunk (inline buffers, a shared backing array). init gets
// the slots in memory order, not transaction order: a backing array
// carved in that order keeps neighbouring transactions apart too.
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
			return &c.s[inChunk(tx)]
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
	return &d[tx>>chunkBits].s[inChunk(tx)]
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
			t.init(c.s[:])
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
		for i := range chunkSize {
			if !fn(ci<<chunkBits+i, &c.s[inChunk(i)]) {
				return
			}
		}
	}
}

// Dense is a fixed-size per-transaction array for a caller that knows its
// transaction count up front: one allocation, no directory, and the same
// interleaving as Table over the whole array, so that transactions fewer
// than Spread apart sit at least LineSize bytes apart. The stride is
// ⌈n/Spread⌉ slots, raised for a small table to what keeps that distance,
// so a table of n ≥ Spread·(2+LineSize/size(T)) slots costs at most
// Spread-1 slots more than a plain n-slot array.
//
// The array is viewed as Spread rows, one per residue of the transaction
// number mod Spread, each cut to exactly the transactions below n of its
// residue: At is one row index and one slot index, and the slot index's
// bounds check is the range check.
//
// The zero value is an empty table. Slots are handed out as stable
// pointers; as with Table, what a slot holds is its user's business.
type Dense[T any] struct {
	rows [Spread][]T
	n    int
}

// NewDense returns a table of n zero slots.
func NewDense[T any](n int) Dense[T] {
	if n < 0 {
		panic(fmt.Sprintf("txtab: negative table size %d", n))
	}
	stride := (n + Spread - 1) >> spreadBits
	if size := int(unsafe.Sizeof(*new(T))); size > 0 {
		// tx and tx+Spread-1 may be only stride-1 slots apart; keep a
		// whole line between them.
		stride = max(stride, 2+(LineSize+size-1)/size)
	}
	s := make([]T, Spread*stride)
	d := Dense[T]{n: n}
	for r := range d.rows {
		// Residue r holds transactions r, r+Spread, … below n.
		k := max(0, (n-r+Spread-1)>>spreadBits)
		d.rows[r] = s[r*stride : r*stride+k : r*stride+k]
	}
	return d
}

// Len returns the number of transactions the table holds.
//
//optcc:hotpath
func (d *Dense[T]) Len() int { return d.n }

// At returns tx's slot; it panics unless tx is in [0, Len()).
//
//optcc:hotpath
func (d *Dense[T]) At(tx int) *T { return &d.rows[tx&(Spread-1)][tx>>spreadBits] }

// Range visits every slot in memory order, which is not transaction
// order: each residue class mod Spread in turn. A caller that carves a
// shared backing array for its slots in this order keeps neighbouring
// transactions' parts of it apart as well.
func (d *Dense[T]) Range(fn func(tx int, p *T)) {
	for r := range d.rows {
		for q := range d.rows[r] {
			fn(q<<spreadBits|r, &d.rows[r][q])
		}
	}
}

// AloneOnLine returns an error unless the named field of struct type t
// shares no cache line with any other field of t, nor with the memory
// around a value of t: it needs LineSize minus its own size bytes of
// padding on either side (the field sits at an offset aligned to its
// size). Tests hold every padded run-global word to it, so a field added
// beside one later fails a test rather than a benchmark.
func AloneOnLine(t reflect.Type, name string) error {
	f, ok := t.FieldByName(name)
	if !ok || len(f.Index) != 1 {
		return fmt.Errorf("%v has no field %s", t, name)
	}
	size := f.Type.Size()
	if size > LineSize {
		return fmt.Errorf("%v.%s is %d bytes, more than a line", t, name, size)
	}
	gap := LineSize - size
	if f.Offset < gap {
		return fmt.Errorf("%v.%s: only %d bytes before it, want %d", t, name, f.Offset, gap)
	}
	if end := f.Offset + size; t.Size()-end < gap {
		return fmt.Errorf("%v.%s: only %d bytes after it, want %d", t, name, t.Size()-end, gap)
	}
	for i := range t.NumField() {
		g := t.Field(i)
		if i == f.Index[0] || g.Name == "_" || g.Type.Size() == 0 {
			continue
		}
		if g.Offset < f.Offset && f.Offset-(g.Offset+g.Type.Size()) < gap ||
			g.Offset > f.Offset && g.Offset-(f.Offset+size) < gap {
			return fmt.Errorf("%v.%s may share a cache line with field %s", t, name, g.Name)
		}
	}
	return nil
}
