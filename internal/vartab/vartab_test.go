package vartab

import (
	"sync"
	"sync/atomic"
	"testing"

	"optcc/internal/core"
)

type counter struct{ n atomic.Int64 }

func TestDeclaredSlotsStableAndDistinct(t *testing.T) {
	tab := New[counter]([]core.Var{"x", "y"})
	x := tab.Slot("x")
	if x == nil || tab.Slot("x") != x || tab.Lookup("x") != x {
		t.Fatal("declared slot not stable")
	}
	if tab.Slot("y") == x {
		t.Fatal("distinct variables share a slot")
	}
	if n := testing.AllocsPerRun(100, func() { tab.Slot("x").n.Add(1) }); n != 0 {
		t.Fatalf("declared Slot allocates %.0f times", n)
	}
}

// TestAtIsSlotByNumber checks that At(i) is the slot Slot finds by name
// for every variable of a distinct list, and that it allocates nothing.
func TestAtIsSlotByNumber(t *testing.T) {
	vars := []core.Var{"a", "b", "c", "d10", "d9"}
	tab := New[counter](vars)
	for i, v := range vars {
		if tab.At(int32(i)) != tab.Slot(v) {
			t.Fatalf("At(%d) is not Slot(%q)", i, v)
		}
	}
	if n := testing.AllocsPerRun(100, func() { tab.At(3).n.Add(1) }); n != 0 {
		t.Fatalf("At allocates %.0f times", n)
	}
}

// TestAtVarChecksTheName checks that AtVar is At when the number names
// the variable, and nil for a number out of range, a number naming another
// variable, or a table built from repeated variables.
func TestAtVarChecksTheName(t *testing.T) {
	vars := []core.Var{"a", "b", "c"}
	tab := New[counter](vars)
	for i, v := range vars {
		if tab.AtVar(int32(i), v) != tab.At(int32(i)) {
			t.Fatalf("AtVar(%d, %q) is not At(%d)", i, v, i)
		}
		// A name equal to vars[i] in other bytes matches as well.
		if tab.AtVar(int32(i), core.Var(string([]byte(v)))) != tab.At(int32(i)) {
			t.Fatalf("AtVar(%d) rejects a copy of %q", i, v)
		}
	}
	for _, c := range []struct {
		i int32
		v core.Var
	}{{1, "a"}, {-1, "a"}, {3, "a"}, {0, "late"}} {
		if tab.AtVar(c.i, c.v) != nil {
			t.Fatalf("AtVar(%d, %q) found a slot", c.i, c.v)
		}
	}
	if n := testing.AllocsPerRun(100, func() { tab.AtVar(2, "c").n.Add(1) }); n != 0 {
		t.Fatalf("AtVar allocates %.0f times", n)
	}
	dup := New[counter]([]core.Var{"x", "x"})
	if dup.AtVar(0, "x") != nil || dup.AtVar(1, "x") != nil {
		t.Fatal("AtVar trusts a number in a table with repeated variables")
	}
}

func TestFallbackEntry(t *testing.T) {
	tab := New[counter]([]core.Var{"x"})
	e := tab.Slot("undeclared")
	e.n.Store(9)
	if tab.Slot("undeclared") != e || tab.Lookup("undeclared") != e {
		t.Fatal("fallback slot not stable")
	}
	if tab.Slot("undeclared").n.Load() != 9 {
		t.Fatal("fallback slot lost its value")
	}
}

// TestVartabConcurrentFirstTouch has 8 goroutines touch the same
// undeclared variable first: they must all get one slot, so no update is
// lost. Run under -race in the CI stress job.
func TestVartabConcurrentFirstTouch(t *testing.T) {
	const workers = 8
	tab := New[counter]([]core.Var{"x"})
	got := make([]*counter, workers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start.Wait()
			got[w] = tab.Slot("late")
			got[w].n.Add(1)
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
}

func TestDuplicatesFold(t *testing.T) {
	tab := New[counter]([]core.Var{"x", "y", "x", "x"})
	tab.Slot("x").n.Add(1)
	tab.Slot("x").n.Add(1)
	if n := tab.Lookup("x").n.Load(); n != 2 {
		t.Fatalf("x = %d, want 2: duplicates did not fold to one slot", n)
	}
	if n := countRange(tab); n != 2 {
		t.Fatalf("Range visited %d slots, want 2", n)
	}
}

func TestLookupAbsentCreatesNothing(t *testing.T) {
	tab := New[counter]([]core.Var{"x"})
	if tab.Lookup("absent") != nil {
		t.Fatal("Lookup of an absent variable returned a slot")
	}
	if tab.Lookup("absent") != nil || countRange(tab) != 1 {
		t.Fatal("Lookup created a slot")
	}
	p := tab.Slot("absent")
	if tab.Lookup("absent") != p {
		t.Fatal("Lookup does not find a slot Slot created")
	}
}

func TestRangeVisitsEverySlotOnce(t *testing.T) {
	tab := New[counter]([]core.Var{"a", "b", "c"})
	for _, v := range []core.Var{"d", "e", "a"} {
		tab.Slot(v)
	}
	seen := map[core.Var]int{}
	slots := map[*counter]bool{}
	tab.Range(func(v core.Var, p *counter) bool {
		seen[v]++
		slots[p] = true
		return true
	})
	for _, v := range []core.Var{"a", "b", "c", "d", "e"} {
		if seen[v] != 1 {
			t.Errorf("Range visited %s %d times, want 1", v, seen[v])
		}
	}
	if len(seen) != 5 || len(slots) != 5 {
		t.Fatalf("Range visited %d variables over %d slots, want 5 and 5", len(seen), len(slots))
	}
	visits := 0
	tab.Range(func(core.Var, *counter) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("Range went on after fn returned false: %d visits", visits)
	}
}

func countRange[T any](tab *Table[T]) int {
	n := 0
	tab.Range(func(core.Var, *T) bool {
		n++
		return true
	})
	return n
}
