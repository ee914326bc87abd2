package conflict

import (
	"math/rand"
	"slices"
	"testing"

	"optcc/internal/core"
	"optcc/internal/herbrand"
	"optcc/internal/schedule"
)

func rw(v core.Var) []core.Step {
	return []core.Step{{Var: v, Kind: core.Read}, {Var: v, Kind: core.Write}}
}

func lostUpdate() *core.System {
	return (&core.System{
		Name: "lostupdate",
		Txs: []core.Transaction{
			{Steps: rw("x")},
			{Steps: rw("x")},
		},
	}).Normalize()
}

func TestConflictsMatrix(t *testing.T) {
	r := core.Step{Var: "x", Kind: core.Read}
	w := core.Step{Var: "x", Kind: core.Write}
	u := core.Step{Var: "x", Kind: core.Update}
	ry := core.Step{Var: "y", Kind: core.Read}
	cases := []struct {
		a, b core.Step
		want bool
	}{
		{r, r, false},
		{r, w, true},
		{w, r, true},
		{w, w, true},
		{u, r, true},
		{u, u, true},
		{r, ry, false},
		{w, ry, false},
	}
	for _, c := range cases {
		if got := Conflicts(c.a, c.b); got != c.want {
			t.Errorf("Conflicts(%v:%v, %v:%v) = %v, want %v", c.a.Kind, c.a.Var, c.b.Kind, c.b.Var, got, c.want)
		}
	}
}

func TestStepsConflictSameTx(t *testing.T) {
	sys := lostUpdate()
	if StepsConflict(sys, core.StepID{Tx: 0, Idx: 0}, core.StepID{Tx: 0, Idx: 1}) {
		t.Error("steps of one transaction reported as conflicting")
	}
	if !StepsConflict(sys, core.StepID{Tx: 0, Idx: 0}, core.StepID{Tx: 1, Idx: 1}) {
		t.Error("r1(x) vs w2(x) should conflict")
	}
}

func TestLostUpdateCycle(t *testing.T) {
	sys := lostUpdate()
	h := core.Schedule{{Tx: 0, Idx: 0}, {Tx: 1, Idx: 0}, {Tx: 0, Idx: 1}, {Tx: 1, Idx: 1}}
	g, err := Build(sys, h)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Errorf("edges = %v, want both directions", g.Edges())
	}
	if !g.HasCycle() {
		t.Error("lost-update graph acyclic")
	}
	if c := g.Cycle(); !slices.Equal(c, []int{0, 1}) {
		t.Errorf("Cycle() = %v, want [0 1]", c)
	}
	ok, _, err := Serializable(sys, h)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("lost update judged CSR")
	}
}

func TestSerialSchedulesAreCSRWithMatchingWitness(t *testing.T) {
	sys := lostUpdate()
	for _, h := range schedule.Serials(sys.Format()) {
		ok, order, err := Serializable(sys, h)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("serial schedule %v not CSR", h)
		}
		want, _ := h.SerialOrder()
		for i := range want {
			if order[i] != want[i] {
				t.Errorf("witness %v for serial %v", order, h)
				break
			}
		}
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(2, 0)
	order, ok := g.TopoOrder()
	if !ok {
		t.Fatal("acyclic graph reported cyclic")
	}
	if order[0] != 1 && order[0] != 2 {
		// smallest-index tie-break: nodes 1 and 2 have indegree 0; node 1
		// is chosen first.
	}
	if order[0] != 1 {
		t.Errorf("topo order = %v, want node 1 first (smallest index with indegree 0)", order)
	}
	g.AddEdge(0, 2)
	if _, ok := g.TopoOrder(); ok {
		t.Error("cycle not detected")
	}
	if !g.HasCycle() {
		t.Error("HasCycle false on cyclic graph")
	}
	if c := g.Cycle(); !slices.Equal(c, []int{0, 2}) {
		t.Errorf("Cycle() = %v, want [0 2]", c)
	}
	g.AddEdge(1, 0)
	if c := g.Cycle(); !slices.Equal(c, []int{0, 2}) {
		t.Errorf("Cycle() with a tail = %v, want [0 2]", c)
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(1, 1)
	if g.HasEdge(1, 1) {
		t.Error("self-loop stored")
	}
	if g.HasCycle() || g.Cycle() != nil {
		t.Error("self-loop created cycle")
	}
	if g.N() != 2 {
		t.Error("N wrong")
	}
}

func TestBuildRejectsIllegal(t *testing.T) {
	sys := lostUpdate()
	if _, err := Build(sys, core.Schedule{{Tx: 0, Idx: 1}}); err != nil {
	} else {
		t.Error("illegal prefix accepted")
	}
	if _, _, err := Serializable(sys, core.Schedule{{Tx: 5, Idx: 0}}); err == nil {
		t.Error("out-of-range schedule accepted")
	}
}

func TestEquivalentSchedules(t *testing.T) {
	// Reads of the same variable commute.
	sys := (&core.System{
		Txs: []core.Transaction{
			{Steps: []core.Step{{Var: "x", Kind: core.Read}}},
			{Steps: []core.Step{{Var: "x", Kind: core.Read}}},
		},
	}).Normalize()
	h1 := core.Schedule{{Tx: 0, Idx: 0}, {Tx: 1, Idx: 0}}
	h2 := core.Schedule{{Tx: 1, Idx: 0}, {Tx: 0, Idx: 0}}
	eq, err := Equivalent(sys, h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("read-read swap judged inequivalent")
	}

	wsys := (&core.System{
		Txs: []core.Transaction{
			{Steps: []core.Step{{Var: "x", Kind: core.Write}}},
			{Steps: []core.Step{{Var: "x", Kind: core.Write}}},
		},
	}).Normalize()
	eq, err = Equivalent(wsys, h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("write-write swap judged equivalent")
	}
	if _, err := Equivalent(wsys, h1[:1], h2); err == nil {
		t.Error("incomplete schedule accepted")
	}
}

// CSR ⇒ SR: on random small systems, every conflict-serializable schedule
// is Herbrand-serializable, and conflict equivalence implies identical
// Herbrand finals.
func TestCSRImpliesHerbrandSR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vars := []core.Var{"x", "y"}
	kinds := []core.StepKind{core.Read, core.Write, core.Update}
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(2)
		txs := make([]core.Transaction, n)
		for i := range txs {
			m := 1 + rng.Intn(2)
			steps := make([]core.Step, m)
			for j := range steps {
				steps[j] = core.Step{
					Var:  vars[rng.Intn(len(vars))],
					Kind: kinds[rng.Intn(len(kinds))],
				}
			}
			txs[i] = core.Transaction{Steps: steps}
		}
		sys := (&core.System{Name: "rand", Txs: txs}).Normalize()
		checker, err := herbrand.NewChecker(sys)
		if err != nil {
			t.Fatal(err)
		}
		schedule.Enumerate(sys.Format(), func(h core.Schedule) bool {
			csr, _, err := Serializable(sys, h)
			if err != nil {
				t.Fatal(err)
			}
			if csr {
				sr, _, err := checker.Serializable(h)
				if err != nil {
					t.Fatal(err)
				}
				if !sr {
					t.Fatalf("system %v: %v is CSR but not SR", sys.Format(), h)
				}
			}
			return true
		})
	}
}

func TestPrefixClosedEqualsCSR(t *testing.T) {
	sys := lostUpdate()
	schedule.Enumerate(sys.Format(), func(h core.Schedule) bool {
		hc := h.Clone()
		csr, _, err := Serializable(sys, hc)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := PrefixClosed(sys, hc)
		if err != nil {
			t.Fatal(err)
		}
		if csr != pc {
			t.Errorf("%v: CSR=%v but PrefixClosed=%v", hc, csr, pc)
		}
		return true
	})
}
