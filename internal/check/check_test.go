package check

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/schedule"
	"optcc/internal/workload"
)

func inc(l []core.Value) core.Value { return l[len(l)-1] + 1 }

func dbl(l []core.Value) core.Value { return l[len(l)-1] * 2 }

// steps builds a schedule from (tx, idx) pairs, 1-based as in the paper.
func steps(pairs ...[2]int) core.Schedule {
	h := make(core.Schedule, len(pairs))
	for i, p := range pairs {
		h[i] = core.StepID{Tx: p[0] - 1, Idx: p[1] - 1}
	}
	return h
}

// violation requires err to be a *Violation of the given property.
func violation(t *testing.T, err error, property string) *Violation {
	t.Helper()
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("got %v, want a %s violation", err, property)
	}
	if v.Property != property {
		t.Fatalf("violated %q (%v), want %q", v.Property, v, property)
	}
	return v
}

// TestCSRCrossedFinalWrites: T1 R(a) · T2 R(b) · T2 U(a) · T1 U(b). Each
// transaction reads what the other then overwrites, so neither serial
// order is equivalent; the witness is the cycle T1 → T2 → T1 with both
// conflicting step pairs in schedule order.
func TestCSRCrossedFinalWrites(t *testing.T) {
	sys := (&core.System{Txs: []core.Transaction{
		{Steps: []core.Step{{Var: "a", Kind: core.Read}, {Var: "b", Kind: core.Update, Fn: inc}}},
		{Steps: []core.Step{{Var: "b", Kind: core.Read}, {Var: "a", Kind: core.Update, Fn: inc}}},
	}}).Normalize()
	v := violation(t, CSR(sys, steps([2]int{1, 1}, [2]int{2, 1}, [2]int{2, 2}, [2]int{1, 2})), "CSR")
	if !slices.Equal(v.Cycle, []int{0, 1}) {
		t.Errorf("cycle %v, want [0 1]", v.Cycle)
	}
	want := [][2]core.StepID{
		{{Tx: 0, Idx: 0}, {Tx: 1, Idx: 1}}, // T1 R(a) before T2 U(a)
		{{Tx: 1, Idx: 0}, {Tx: 0, Idx: 1}}, // T2 R(b) before T1 U(b)
	}
	if !slices.Equal(v.Edges, want) {
		t.Errorf("edges %v, want %v", v.Edges, want)
	}
	msg := v.Error()
	for _, s := range []string{"T1 → T2 → T1", "T1.1 R(a) before T2.2 U(a)", "T2.1 R(b) before T1.2 U(b)"} {
		if !strings.Contains(msg, s) {
			t.Errorf("message %q lacks %q", msg, s)
		}
	}
}

// lostUpdate is two read-then-write transactions on x.
func lostUpdate() *core.System {
	rw := func() []core.Step {
		return []core.Step{{Var: "x", Kind: core.Read}, {Var: "x", Kind: core.Write, Fn: inc}}
	}
	return (&core.System{Txs: []core.Transaction{{Steps: rw()}, {Steps: rw()}}}).Normalize()
}

func TestCSRLostUpdate(t *testing.T) {
	v := violation(t, CSR(lostUpdate(), steps([2]int{1, 1}, [2]int{2, 1}, [2]int{1, 2}, [2]int{2, 2})), "CSR")
	if !slices.Equal(v.Cycle, []int{0, 1}) {
		t.Errorf("cycle %v, want [0 1]", v.Cycle)
	}
}

// banking is T1: x+1, y*2 and T2: y+1, x*2, all Updates.
func banking() *core.System {
	return (&core.System{Txs: []core.Transaction{
		{Steps: []core.Step{{Var: "x", Kind: core.Update, Fn: inc}, {Var: "y", Kind: core.Update, Fn: dbl}}},
		{Steps: []core.Step{{Var: "y", Kind: core.Update, Fn: inc}, {Var: "x", Kind: core.Update, Fn: dbl}}},
	}}).Normalize()
}

// Serial histories pass both checks against the state worked out by hand.
func TestSerialHistoriesPass(t *testing.T) {
	sys := banking()
	for _, c := range []struct {
		h     core.Schedule
		state core.DB
	}{
		{steps([2]int{1, 1}, [2]int{1, 2}, [2]int{2, 1}, [2]int{2, 2}), core.DB{"x": 2, "y": 1}},
		{steps([2]int{2, 1}, [2]int{2, 2}, [2]int{1, 1}, [2]int{1, 2}), core.DB{"x": 1, "y": 2}},
	} {
		if err := CSR(sys, c.h); err != nil {
			t.Errorf("%v: %v", c.h, err)
		}
		if err := Replay(sys, c.h, c.state); err != nil {
			t.Errorf("%v: %v", c.h, err)
		}
	}
}

// A state one variable off names that variable with both values.
func TestReplayNamesDifferingVariable(t *testing.T) {
	h := steps([2]int{1, 1}, [2]int{1, 2}, [2]int{2, 1}, [2]int{2, 2})
	v := violation(t, Replay(banking(), h, core.DB{"x": 2, "y": 7}), "state==replay")
	if v.Var != "y" || v.Got != 7 || v.Want != 1 {
		t.Fatalf("witness %s got %d want %d, want y got 7 want 1", v.Var, v.Got, v.Want)
	}
}

// snapshotSystem is a writer T1 (x+1) beside a read-only T2 and a second
// writer T3 (y+1).
func snapshotSystem() *core.System {
	return (&core.System{Txs: []core.Transaction{
		{Steps: []core.Step{{Var: "x", Kind: core.Update, Fn: inc}}},
		{Steps: []core.Step{{Var: "x", Kind: core.Read}, {Var: "y", Kind: core.Read}}},
		{Steps: []core.Step{{Var: "y", Kind: core.Update, Fn: inc}}},
	}}).Normalize()
}

// A read-only transaction the snapshot path served is absent from the
// committed schedule; Replay closes over it.
func TestReplaySnapshotClosedReadOnly(t *testing.T) {
	if err := Replay(snapshotSystem(), steps([2]int{1, 1}, [2]int{3, 1}), core.DB{"x": 1, "y": 1}); err != nil {
		t.Fatal(err)
	}
}

// A writer absent from the committed schedule is not closed over: its
// loss is a violation even when the state agrees with what was kept.
func TestReplayDroppedWriter(t *testing.T) {
	v := violation(t, Replay(snapshotSystem(), steps([2]int{1, 1}), core.DB{"x": 1}), "complete schedule")
	if !strings.Contains(v.Error(), "T3 has 0 of its 1 steps") {
		t.Fatalf("message %q does not name T3", v)
	}
}

func TestIllegalSchedule(t *testing.T) {
	h := steps([2]int{1, 2}, [2]int{1, 1})
	violation(t, CSR(banking(), h), "legal schedule")
	violation(t, Replay(banking(), h, core.DB{}), "legal schedule")
}

// CSR's linear graph has the reachability of conflict.Build's pairwise
// one: on random systems and schedules the verdicts agree, and every
// witness edge is a conflicting pair in schedule order.
func TestCSRAgreesWithConflictSerializable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		sys := workload.Random(workload.RandomConfig{NumTxs: 2 + i%4, MaxSteps: 4, NumVars: 1 + i%3}, int64(i))
		h := schedule.Random(sys.Format(), rng)
		want, _, err := conflict.Serializable(sys, h)
		if err != nil {
			t.Fatal(err)
		}
		err = CSR(sys, h)
		if (err == nil) != want {
			t.Fatalf("%v: CSR says %v, conflict.Serializable %v", h, err, want)
		}
		if err == nil {
			continue
		}
		v := violation(t, err, "CSR")
		for j, e := range v.Edges {
			if e[0].Tx != v.Cycle[j] || e[1].Tx != v.Cycle[(j+1)%len(v.Cycle)] ||
				!conflict.StepsConflict(sys, e[0], e[1]) || slices.Index(h, e[0]) > slices.Index(h, e[1]) {
				t.Fatalf("%v: edge %d witness %v does not fit cycle %v", h, j, e, v.Cycle)
			}
		}
	}
}
