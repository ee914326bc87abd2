package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

// memoSystem has unsorted, repeated variables and an IC whose initial
// states omit one of them, so InitialStates has zeros to add.
func memoSystem() *System {
	inc := func(l []Value) Value { return l[len(l)-1] + 1 }
	return (&System{
		Name: "memo",
		Txs: []Transaction{
			{Steps: []Step{{Var: "z", Kind: Update, Fn: inc}, {Var: "z", Kind: Update, Fn: inc}, {Var: "a", Kind: Read}}},
			{Steps: []Step{{Var: "m", Kind: Update, Fn: inc}, {Var: "a", Kind: Update, Fn: inc}}},
		},
		IC: &IC{
			Name:     "two",
			Check:    func(DB) bool { return true },
			Initials: func() []DB { return []DB{{"a": 1, "z": 2}, {"a": 3, "z": 4}} },
		},
	}).Normalize()
}

// mapID identifies a map's storage, so a test can tell one map from an
// equal copy.
func mapID(db DB) uintptr { return reflect.ValueOf(db).Pointer() }

func TestVarsMemoized(t *testing.T) {
	sys := memoSystem()
	first := sys.Vars()
	if want := []Var{"a", "m", "z"}; !slices.Equal(first, want) {
		t.Fatalf("Vars = %v, want %v", first, want)
	}
	if again := sys.Vars(); &again[0] != &first[0] {
		t.Fatal("a repeated Vars built a new slice")
	}
	if n := testing.AllocsPerRun(100, func() { sys.Vars() }); n != 0 {
		t.Fatalf("a repeated Vars allocates %.0f times", n)
	}
	if fresh := sys.walkSteps().vars; !slices.Equal(first, fresh) {
		t.Fatalf("memoized Vars %v differs from a fresh computation %v", first, fresh)
	}
}

func TestVarIDsMemoized(t *testing.T) {
	sys := memoSystem()
	ids := sys.VarIDs()
	want := [][]int32{{2, 2, 0}, {1, 0}}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("VarIDs = %v, want %v", ids, want)
	}
	if again := sys.VarIDs(); &again[0][0] != &ids[0][0] {
		t.Fatal("a repeated VarIDs built new slices")
	}
	if n := testing.AllocsPerRun(100, func() { sys.VarIDs() }); n != 0 {
		t.Fatalf("a repeated VarIDs allocates %.0f times", n)
	}
	if fresh := sys.walkSteps().ids; !reflect.DeepEqual(ids, fresh) {
		t.Fatalf("memoized VarIDs %v differs from a fresh computation %v", ids, fresh)
	}
}

// TestValidityMemoized checks that the memoized Validate and Executable
// verdicts equal a fresh walk's on valid, invalid and non-executable
// systems, and that the error names the first fault in step order.
func TestValidityMemoized(t *testing.T) {
	inc := func(l []Value) Value { return l[len(l)-1] + 1 }
	cases := []struct {
		name    string
		sys     *System
		wantErr string
		exec    bool
	}{
		{"valid", memoSystem(), "", true},
		{"no-txs", &System{Name: "none"}, `system "none": no transactions`, true},
		{"empty-tx", &System{Name: "e", Txs: []Transaction{{Steps: []Step{{Var: "x", Kind: Read}}}, {}}},
			`system "e": transaction 2 is empty`, true},
		{"no-var", &System{Name: "v", Txs: []Transaction{{Steps: []Step{{Var: "x", Kind: Read}, {Kind: Update, Fn: inc}, {Var: "y", Kind: StepKind(9)}}}}},
			`system "v": step T12 has no variable`, false},
		{"bad-kind", &System{Name: "k", Txs: []Transaction{{Steps: []Step{{Var: "x", Kind: StepKind(7), Fn: inc}}}}},
			`system "k": step T11 has invalid kind 7`, true},
		{"syntactic", &System{Name: "s", Txs: []Transaction{{Steps: []Step{{Var: "x", Kind: Read}, {Var: "x", Kind: Write}}}}},
			"", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err, exec := c.sys.Validate(), c.sys.Executable()
			fresh := c.sys.walkSteps()
			if (err == nil) != (fresh.err == nil) || (err != nil && err.Error() != fresh.err.Error()) {
				t.Fatalf("memoized Validate %v, fresh walk %v", err, fresh.err)
			}
			if exec != fresh.exec {
				t.Fatalf("memoized Executable %v, fresh walk %v", exec, fresh.exec)
			}
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != c.wantErr || exec != c.exec {
				t.Fatalf("Validate %q, Executable %v; want %q, %v", got, exec, c.wantErr, c.exec)
			}
			if n := testing.AllocsPerRun(100, func() { _, _ = c.sys.Validate(), c.sys.Executable() }); n != 0 {
				t.Fatalf("a repeated Validate/Executable allocates %.0f times", n)
			}
		})
	}
}

func TestInitialStateMemoized(t *testing.T) {
	sys := memoSystem()
	init := sys.InitialState()
	if want := (DB{"a": 1, "m": 0, "z": 2}); !init.Equal(want) || len(init) != len(want) {
		t.Fatalf("InitialState = %v, want %v", init, want)
	}
	if mapID(sys.InitialState()) != mapID(init) {
		t.Fatal("a repeated InitialState built a new state")
	}
	states := sys.InitialStates()
	if len(states) != 2 || !states[0].Equal(init) {
		t.Fatalf("InitialStates()[0] = %v, InitialState = %v", states, init)
	}
	if mapID(states[0]) == mapID(init) {
		t.Fatal("InitialStates returned the shared state instead of a copy")
	}
	states[0]["a"] = 99
	delete(states[0], "m")
	if again := sys.InitialStates(); again[0]["a"] != 1 || len(again[0]) != 3 {
		t.Fatalf("mutating a returned state changed a later InitialStates: %v", again[0])
	}
	if !sys.InitialState().Equal(DB{"a": 1, "m": 0, "z": 2}) || len(sys.InitialState()) != 3 {
		t.Fatalf("mutating a returned state changed InitialState: %v", sys.InitialState())
	}
}

// TestSystemMemoConcurrentFirstCalls has 8 goroutines make the first
// Vars, VarIDs and InitialState calls on a fresh System: they must agree
// on one slice, one numbering and one state. Run under -race in the CI
// stress job.
func TestSystemMemoConcurrentFirstCalls(t *testing.T) {
	const workers = 8
	sys := memoSystem()
	vars := make([][]Var, workers)
	ids := make([][][]int32, workers)
	inits := make([]DB, workers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start.Wait()
			switch w % 3 {
			case 0:
				vars[w], ids[w], inits[w] = sys.Vars(), sys.VarIDs(), sys.InitialState()
			case 1:
				inits[w], vars[w], ids[w] = sys.InitialState(), sys.Vars(), sys.VarIDs()
			default:
				ids[w], inits[w], vars[w] = sys.VarIDs(), sys.InitialState(), sys.Vars()
			}
		}(w)
	}
	start.Done()
	wg.Wait()
	for w := range vars {
		if &vars[w][0] != &vars[0][0] {
			t.Fatalf("goroutine %d got a different Vars slice", w)
		}
		if &ids[w][0][0] != &ids[0][0][0] {
			t.Fatalf("goroutine %d got a different VarIDs numbering", w)
		}
		if mapID(inits[w]) != mapID(inits[0]) {
			t.Fatalf("goroutine %d got a different InitialState", w)
		}
	}
	if !slices.Equal(vars[0], []Var{"a", "m", "z"}) || !inits[0].Equal(DB{"a": 1, "m": 0, "z": 2}) ||
		!reflect.DeepEqual(ids[0], [][]int32{{2, 2, 0}, {1, 0}}) {
		t.Fatalf("concurrent first calls computed %v, %v, %v", vars[0], ids[0], inits[0])
	}
}
