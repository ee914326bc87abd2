package txtab

import (
	"sync"
	"sync/atomic"
	"testing"
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
