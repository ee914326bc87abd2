package tstable

import (
	"sync"
	"testing"

	"optcc/internal/core"
)

func TestBasicMaxUpdate(t *testing.T) {
	tab := New([]core.Var{"x", "y"}, 4)
	e := tab.Entry("x")
	if e.ReadTS() != 0 || e.WriteTS() != 0 {
		t.Fatal("fresh entry not zero")
	}
	e.MaxRead(5)
	e.MaxRead(3) // lower: must not regress
	e.MaxWrite(7)
	e.MaxWrite(7)
	if e.ReadTS() != 5 || e.WriteTS() != 7 {
		t.Fatalf("got read=%d write=%d", e.ReadTS(), e.WriteTS())
	}
	if tab.Entry("x") != e {
		t.Fatal("Entry not stable for declared variable")
	}
	if tab.Entry("y") == e {
		t.Fatal("distinct variables share an entry")
	}
	if tab.At(0) != e || tab.At(1) != tab.Entry("y") {
		t.Fatal("At(i) is not the entry of the i-th declared variable")
	}
}

func TestReset(t *testing.T) {
	tab := New([]core.Var{"x"}, 1)
	tab.Entry("x").MaxRead(4)
	tab.Entry("zz").MaxWrite(8)
	tab.Reset()
	if tab.Entry("x").ReadTS() != 0 || tab.Entry("zz").WriteTS() != 0 {
		t.Fatal("Reset left timestamps behind")
	}
}

// TestConcurrentMaxMonotonic hammers one entry from many goroutines and
// checks the two invariants the scheduler relies on: a timestamp observed
// by any reader never decreases, and the final value is the maximum ever
// offered. Run under -race in the CI stress job.
func TestConcurrentMaxMonotonic(t *testing.T) {
	const (
		workers = 8
		perW    = 2000
	)
	tab := New([]core.Var{"hot"}, 4)
	e := tab.Entry("hot")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lastR, lastW := int64(0), int64(0)
			for i := 0; i < perW; i++ {
				ts := int64(w*perW + i + 1)
				e.MaxRead(ts)
				e.MaxWrite(ts)
				if r := e.ReadTS(); r < lastR {
					t.Errorf("read timestamp regressed: %d after %d", r, lastR)
					return
				} else {
					lastR = r
				}
				if wts := e.WriteTS(); wts < lastW {
					t.Errorf("write timestamp regressed: %d after %d", wts, lastW)
					return
				} else {
					lastW = wts
				}
			}
		}(w)
	}
	wg.Wait()
	want := int64(workers * perW)
	if e.ReadTS() != want || e.WriteTS() != want {
		t.Fatalf("final read=%d write=%d, want %d", e.ReadTS(), e.WriteTS(), want)
	}
}
