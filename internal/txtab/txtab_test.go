package txtab

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

type counter struct{ n atomic.Int64 }

// TestTxtabConcurrentFirstTouch has 8 goroutines touch one slot first —
// each takes the growth path, as every one would whose Lookup missed —
// while each also grows the table with a chunk of its own: they must all
// get one slot, so no update is lost, and every private slot must survive
// the others' growth. Run under -race in the CI stress job.
func TestTxtabConcurrentFirstTouch(t *testing.T) {
	const workers = 8
	var tab Table[counter]
	got := make([]*counter, workers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start.Wait()
			got[w] = tab.grow(700)
			got[w].n.Add(1)
			tab.Slot(1000 + w*chunkSize).n.Add(int64(w))
		}(w)
	}
	start.Done()
	wg.Wait()
	for w, p := range got {
		if p != got[0] {
			t.Fatalf("goroutine %d got a different slot", w)
		}
	}
	if n := got[0].n.Load(); n != workers {
		t.Fatalf("slot saw %d updates, want %d", n, workers)
	}
	for w := 0; w < workers; w++ {
		if n := tab.Lookup(1000 + w*chunkSize).n.Load(); n != int64(w) {
			t.Fatalf("goroutine %d's slot holds %d, want %d", w, n, w)
		}
	}
}

// TestSlotsStayPutAcrossGrowth checks that growing the directory, near and
// far, never moves a slot or loses its contents, that Lookup creates
// nothing, and that a present slot costs no allocation.
func TestSlotsStayPutAcrossGrowth(t *testing.T) {
	var tab Table[counter]
	if tab.Lookup(0) != nil || tab.Lookup(-1) != nil {
		t.Fatal("Lookup on an empty table returned a slot")
	}
	p := tab.Slot(3)
	p.n.Store(42)
	tab.Grow(3 * chunkSize)
	for _, tx := range []int{chunkSize, 5 * chunkSize, 100_000} {
		tab.Slot(tx).n.Store(int64(tx))
		if tab.Slot(3) != p || tab.Lookup(3) != p || p.n.Load() != 42 {
			t.Fatalf("slot 3 moved or changed after growing to %d", tx)
		}
	}
	if tab.Lookup(6*chunkSize) != nil || tab.Lookup(1_000_000) != nil || tab.Lookup(-5) != nil {
		t.Fatal("Lookup found a slot in a chunk nobody touched")
	}
	if tab.Lookup(100_000).n.Load() != 100_000 {
		t.Fatal("a far slot lost its value")
	}
	if n := testing.AllocsPerRun(100, func() { tab.Slot(5 * chunkSize).n.Add(1) }); n != 0 {
		t.Fatalf("Slot of a present transaction allocates %.0f times", n)
	}
}

// TestRangeVisitsEveryTouchedSlot touches a sparse set of transactions and
// checks that Range visits each, with the slot Slot returned, in
// transaction order, and stops when fn returns false.
func TestRangeVisitsEveryTouchedSlot(t *testing.T) {
	var tab Table[counter]
	touched := []int{0, 5, chunkSize + 1, 70_000}
	for _, tx := range touched {
		tab.Slot(tx).n.Store(int64(tx) + 1)
	}
	seen := map[int]int{}
	last := -1
	tab.Range(func(tx int, p *counter) bool {
		if tx <= last {
			t.Fatalf("Range visited %d after %d", tx, last)
		}
		last = tx
		if p != tab.Lookup(tx) {
			t.Fatalf("Range gave tx %d a slot Lookup does not", tx)
		}
		if n := p.n.Load(); n != 0 {
			seen[tx] = int(n)
		}
		return true
	})
	if len(seen) != len(touched) {
		t.Fatalf("Range saw %d touched slots, want %d: %v", len(seen), len(touched), seen)
	}
	for _, tx := range touched {
		if seen[tx] != tx+1 {
			t.Fatalf("Range missed tx %d", tx)
		}
	}
	visits := 0
	tab.Range(func(int, *counter) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("Range went on after fn returned false: %d visits", visits)
	}
}

// TestInitPreparesEachChunkOnce checks that New's init sees every new
// chunk exactly once before its slots are handed out, and that Grow
// creates the slots of a whole prefix at once.
func TestInitPreparesEachChunkOnce(t *testing.T) {
	type slot struct {
		buf  [2]int
		view []int
	}
	chunks := 0
	tab := New(func(s []slot) {
		chunks++
		for i := range s {
			s[i].view = s[i].buf[:0]
		}
	})
	tab.Grow(2*chunkSize + 1)
	if chunks != 3 {
		t.Fatalf("Grow(%d) set up %d chunks, want 3", 2*chunkSize+1, chunks)
	}
	for _, tx := range []int{0, chunkSize, 2 * chunkSize} {
		p := tab.Lookup(tx)
		if p == nil || cap(p.view) != 2 || &p.view[:1][0] != &p.buf[0] {
			t.Fatalf("tx %d: slot not prepared by init", tx)
		}
	}
	tab.Slot(chunkSize + 7)
	tab.Grow(chunkSize)
	if chunks != 3 {
		t.Fatalf("touching present chunks set up %d chunks, want 3", chunks)
	}
	tab.Slot(3 * chunkSize)
	if chunks != 4 {
		t.Fatalf("a new chunk was set up %d times", chunks-3)
	}
}

// txSlot is a slot the size of the engine's smallest per-transaction
// state (sim's run state, a scheduler's timestamp).
type txSlot struct{ a, b int32 }

// apart reports whether two slots of size bytes at p and q leave at least
// a whole line between them, so no cache line holds bytes of both
// whatever the alignment.
func apart(p, q unsafe.Pointer, size uintptr) bool {
	a, b := uintptr(p), uintptr(q)
	if a > b {
		a, b = b, a
	}
	return b-a >= size+LineSize
}

// checkLayout checks that slot is a bijection from [0, n) onto distinct
// slots and that transactions fewer than Spread apart sit at least a
// line apart.
func checkLayout[T any](t *testing.T, name string, n int, slot func(tx int) *T) {
	t.Helper()
	size := unsafe.Sizeof(*new(T))
	seen := make(map[*T]int, n)
	for tx := 0; tx < n; tx++ {
		p := slot(tx)
		if prev, dup := seen[p]; dup {
			t.Fatalf("%s n=%d: transactions %d and %d share a slot", name, n, prev, tx)
		}
		seen[p] = tx
		for d := 1; d < Spread && tx+d < n; d++ {
			if !apart(unsafe.Pointer(p), unsafe.Pointer(slot(tx+d)), size) {
				t.Fatalf("%s n=%d: transactions %d and %d sit %d bytes apart, want a %d-byte line between them",
					name, n, tx, tx+d, uintptr(unsafe.Pointer(slot(tx+d)))-uintptr(unsafe.Pointer(p)), LineSize)
			}
		}
	}
}

// TestLayoutKeepsNeighboursApart checks both tables' interleaving over
// sizes around a chunk and a Spread boundary and at bench's disjoint
// size: every transaction gets its own slot, neighbours fewer than Spread
// apart never share a cache line, and Dense of a real size costs no more
// than a plain array.
func TestLayoutKeepsNeighboursApart(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 255, 256, 257, 36000} {
		d := NewDense[txSlot](n)
		if d.Len() != n {
			t.Fatalf("Dense n=%d: Len %d", n, d.Len())
		}
		checkLayout(t, "Dense", n, d.At)
		visits := 0
		d.Range(func(tx int, p *txSlot) {
			if p != d.At(tx) {
				t.Fatalf("Dense n=%d: Range gave tx %d a slot At does not", n, tx)
			}
			visits++
		})
		if visits != n {
			t.Fatalf("Dense n=%d: Range visited %d slots", n, visits)
		}
		var tab Table[txSlot]
		checkLayout(t, "Table", n, tab.Slot)
		var wide Table[counter]
		checkLayout(t, "Table[counter]", n, wide.Slot)
	}
	d := NewDense[txSlot](36000)
	if start, end := d.At(0), &d.rows[Spread-1][len(d.rows[Spread-1])-1]; uintptr(unsafe.Pointer(end))-uintptr(unsafe.Pointer(start)) != 35999*unsafe.Sizeof(txSlot{}) {
		t.Fatal("Dense of 36000 spans more than 36000 slots")
	}
	for _, tx := range []int{-1, 9, 15, 16, 79, 80} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d) on a table of 9 did not panic", tx)
				}
			}()
			d := NewDense[txSlot](9)
			d.At(tx)
		}()
	}
}

// TestAloneOnLine checks the padded-word checker on a padded word, a word
// with a field added beside it inside the padding's reach, and a word
// with no trailing pad.
func TestAloneOnLine(t *testing.T) {
	type padded struct {
		hot   *int
		_     [LineSize - 8]byte
		clock atomic.Int64
		_     [LineSize - 8]byte
	}
	type crowded struct {
		hot   *int
		_     [LineSize - 8]byte
		clock atomic.Int64
		added int32
		_     [LineSize - 8]byte
	}
	type open struct {
		hot   *int
		_     [LineSize - 8]byte
		clock atomic.Int64
	}
	if err := AloneOnLine(reflect.TypeFor[padded](), "clock"); err != nil {
		t.Fatal(err)
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[crowded](), reflect.TypeFor[open]()} {
		if AloneOnLine(typ, "clock") == nil {
			t.Fatalf("%v: a clock that can share its line passed", typ)
		}
	}
	if AloneOnLine(reflect.TypeFor[padded](), "missing") == nil {
		t.Fatal("a missing field passed")
	}
}
