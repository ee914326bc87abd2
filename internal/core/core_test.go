package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// incDec is the adversary system from the proof of Theorem 2: T1 increments
// then decrements x, T2 doubles x, IC is "x = 0".
func incDec() *System {
	sys := &System{
		Name: "incdec",
		Txs: []Transaction{
			{Name: "T1", Steps: []Step{
				{Var: "x", Kind: Update, Fn: func(l []Value) Value { return l[len(l)-1] + 1 }},
				{Var: "x", Kind: Update, Fn: func(l []Value) Value { return l[len(l)-1] - 1 }},
			}},
			{Name: "T2", Steps: []Step{
				{Var: "x", Kind: Update, Fn: func(l []Value) Value { return 2 * l[len(l)-1] }},
			}},
		},
		IC: &IC{
			Name:     "x=0",
			Check:    func(db DB) bool { return db["x"] == 0 },
			Initials: func() []DB { return []DB{{"x": 0}} },
		},
	}
	return sys.Normalize()
}

func TestFormatAndVars(t *testing.T) {
	sys := incDec()
	f := sys.Format()
	if len(f) != 2 || f[0] != 2 || f[1] != 1 {
		t.Fatalf("format = %v, want [2 1]", f)
	}
	vars := sys.Vars()
	if len(vars) != 1 || vars[0] != "x" {
		t.Fatalf("vars = %v, want [x]", vars)
	}
	if sys.StepCount() != 3 {
		t.Fatalf("step count = %d, want 3", sys.StepCount())
	}
	if got := sys.Accessors("x"); len(got) != 2 {
		t.Fatalf("accessors(x) = %v, want both transactions", got)
	}
}

func TestValidate(t *testing.T) {
	sys := incDec()
	if err := sys.Validate(); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
	bad := &System{Name: "empty"}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty system accepted")
	}
	bad2 := &System{Name: "emptytx", Txs: []Transaction{{Name: "T1"}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("empty transaction accepted")
	}
	bad3 := &System{Name: "novar", Txs: []Transaction{{Steps: []Step{{Kind: Read}}}}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("step without variable accepted")
	}
	bad4 := &System{Name: "badkind", Txs: []Transaction{{Steps: []Step{{Var: "x", Kind: StepKind(9)}}}}}
	if err := bad4.Validate(); err == nil {
		t.Fatal("invalid kind accepted")
	}
}

func TestNormalizeAssignsNames(t *testing.T) {
	sys := &System{Txs: []Transaction{{Steps: []Step{{Var: "x", Kind: Read}}}}}
	sys.Normalize()
	if sys.Txs[0].Name != "T1" {
		t.Fatalf("tx name = %q, want T1", sys.Txs[0].Name)
	}
	if sys.Txs[0].Steps[0].FnName != "f11" {
		t.Fatalf("fn name = %q, want f11", sys.Txs[0].Steps[0].FnName)
	}
	if sys.IC == nil {
		t.Fatal("Normalize did not install a trivial IC")
	}
	// Multi-digit indices keep the canonical 1-based names, and given
	// names stay.
	many := &System{}
	for i := 0; i < 12; i++ {
		many.Txs = append(many.Txs, Transaction{Steps: []Step{{Var: "x", Kind: Read}, {Var: "x", Kind: Read}, {Var: "x", Kind: Read}}})
	}
	many.Txs[0].Name = "keep"
	many.Txs[0].Steps[1].FnName = "g"
	many.Normalize()
	if many.Txs[0].Name != "keep" || many.Txs[0].Steps[1].FnName != "g" {
		t.Fatal("Normalize overwrote a given name")
	}
	if tx := many.Txs[11]; tx.Name != "T12" || tx.Steps[2].FnName != "f123" {
		t.Fatalf("T12's names = %q, %q; want T12, f123", tx.Name, tx.Steps[2].FnName)
	}
}

func TestSerialExecutionPreservesIC(t *testing.T) {
	sys := incDec()
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		h := SerialSchedule(sys.Format(), order)
		ok, err := ScheduleCorrect(sys, h)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("serial schedule %v violates IC", h)
		}
	}
}

func TestInterleavingViolatesIC(t *testing.T) {
	// (T11, T21, T12): x=0 → 1 → 2 → 1. Inconsistent, exactly as in the
	// proof of Theorem 2.
	sys := incDec()
	h := Schedule{{0, 0}, {1, 0}, {0, 1}}
	final, err := Exec(sys, h, DB{"x": 0})
	if err != nil {
		t.Fatal(err)
	}
	if final["x"] != 1 {
		t.Fatalf("final x = %d, want 1", final["x"])
	}
	ok, err := ScheduleCorrect(sys, h)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("inconsistent interleaving judged correct")
	}
}

func TestScheduleLegality(t *testing.T) {
	format := []int{2, 1}
	cases := []struct {
		h    Schedule
		want bool
	}{
		{Schedule{{0, 0}, {0, 1}, {1, 0}}, true},
		{Schedule{{0, 0}, {1, 0}, {0, 1}}, true},
		{Schedule{{0, 1}, {0, 0}, {1, 0}}, false}, // out of program order
		{Schedule{{0, 0}, {0, 1}}, false},         // incomplete
		{Schedule{{0, 0}, {0, 0}, {1, 0}}, false}, // repeated step
		{Schedule{{0, 0}, {0, 1}, {2, 0}}, false}, // no such transaction
	}
	for _, c := range cases {
		if got := c.h.Legal(format); got != c.want {
			t.Errorf("Legal(%v) = %v, want %v", c.h, got, c.want)
		}
	}
}

func TestLegalPrefix(t *testing.T) {
	format := []int{2, 1}
	if !(Schedule{{0, 0}}).LegalPrefix(format) {
		t.Error("single first step rejected as prefix")
	}
	if (Schedule{{0, 1}}).LegalPrefix(format) {
		t.Error("out-of-order prefix accepted")
	}
	if !(Schedule{}).LegalPrefix(format) {
		t.Error("empty prefix rejected")
	}
}

func TestSerialDetection(t *testing.T) {
	serial := Schedule{{1, 0}, {0, 0}, {0, 1}}
	if !serial.IsSerial() {
		t.Error("serial schedule not detected")
	}
	order, ok := serial.SerialOrder()
	if !ok || len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Errorf("serial order = %v, %v", order, ok)
	}
	interleaved := Schedule{{0, 0}, {1, 0}, {0, 1}}
	if interleaved.IsSerial() {
		t.Error("interleaved schedule judged serial")
	}
	if _, ok := interleaved.SerialOrder(); ok {
		t.Error("interleaved schedule has a serial order")
	}
}

func TestSwapAdjacent(t *testing.T) {
	h := Schedule{{0, 0}, {1, 0}, {0, 1}}
	g, err := h.SwapAdjacent(0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(Schedule{{1, 0}, {0, 0}, {0, 1}}) {
		t.Errorf("swap result = %v", g)
	}
	sameTx := Schedule{{0, 0}, {0, 1}, {1, 0}}
	if _, err := sameTx.SwapAdjacent(0); err == nil {
		t.Error("swap within one transaction allowed")
	}
	if _, err := h.SwapAdjacent(5); err == nil {
		t.Error("out-of-range swap allowed")
	}
}

func TestExecSerialOrderMatchesSerialSchedule(t *testing.T) {
	sys := incDec()
	for _, order := range [][]int{{0, 1}, {1, 0}, {1, 0, 1}, {0}, {}} {
		got, err := ExecSerialOrder(sys, order, DB{"x": 3})
		if err != nil {
			t.Fatal(err)
		}
		// Reference: step-by-step execution when the order is a
		// permutation.
		if len(order) == 2 {
			h := SerialSchedule(sys.Format(), order)
			want, err := Exec(sys, h, DB{"x": 3})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("order %v: ExecSerialOrder=%v Exec=%v", order, got, want)
			}
		}
	}
	if _, err := ExecSerialOrder(sys, []int{7}, DB{}); err == nil {
		t.Error("out-of-range transaction accepted")
	}
}

func TestStateEligibilityAndDone(t *testing.T) {
	sys := incDec()
	st := NewState(sys, DB{"x": 0})
	if !st.Eligible(StepID{0, 0}) || !st.Eligible(StepID{1, 0}) {
		t.Fatal("first steps should be eligible")
	}
	if st.Eligible(StepID{0, 1}) {
		t.Fatal("second step eligible before first")
	}
	if st.Done() {
		t.Fatal("fresh state reports done")
	}
	for _, id := range []StepID{{0, 0}, {1, 0}, {0, 1}} {
		if err := st.Apply(id); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Done() {
		t.Fatal("completed state not done")
	}
	if err := st.Apply(StepID{0, 0}); err == nil {
		t.Fatal("re-applying a step succeeded")
	}
}

func TestStateCloneIsIndependent(t *testing.T) {
	sys := incDec()
	st := NewState(sys, DB{"x": 5})
	c := st.Clone()
	if err := st.Apply(StepID{0, 0}); err != nil {
		t.Fatal(err)
	}
	if c.PC[0] != 0 || c.Global["x"] != 5 {
		t.Error("clone mutated by original")
	}
}

func TestReadStepLeavesGlobalUnchanged(t *testing.T) {
	sys := (&System{
		Name: "reader",
		Txs: []Transaction{{Steps: []Step{
			{Var: "x", Kind: Read},
			{Var: "y", Kind: Write, Fn: func(l []Value) Value { return l[0] }},
		}}},
	}).Normalize()
	final, err := Exec(sys, Schedule{{0, 0}, {0, 1}}, DB{"x": 42, "y": 0})
	if err != nil {
		t.Fatal(err)
	}
	if final["x"] != 42 {
		t.Errorf("read step changed x: %v", final)
	}
	if final["y"] != 42 {
		t.Errorf("write step did not copy x into y: %v", final)
	}
}

func TestExecErrors(t *testing.T) {
	sys := incDec()
	if _, err := Exec(sys, Schedule{{0, 1}}, DB{}); err == nil {
		t.Error("illegal schedule executed")
	}
	if _, err := Exec(sys, Schedule{{0, 0}}, DB{}); err == nil {
		t.Error("incomplete schedule accepted as complete execution")
	}
	noFn := (&System{Txs: []Transaction{{Steps: []Step{{Var: "x", Kind: Update}}}}}).Normalize()
	if _, err := Exec(noFn, Schedule{{0, 0}}, DB{}); err == nil {
		t.Error("uninterpreted update executed")
	}
}

func TestDBEqualAndClone(t *testing.T) {
	a := DB{"x": 1, "y": 0}
	b := DB{"x": 1}
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("missing variables should compare as zero")
	}
	c := a.Clone()
	c["x"] = 9
	if a["x"] != 1 {
		t.Error("clone shares storage")
	}
	if a.Equal(DB{"x": 2}) {
		t.Error("unequal states compare equal")
	}
	if got := a.String(); got != "{x=1, y=0}" {
		t.Errorf("DB.String() = %q", got)
	}
}

func TestStepIDAndScheduleString(t *testing.T) {
	if got := (StepID{0, 1}).String(); got != "T12" {
		t.Errorf("StepID string = %q", got)
	}
	h := Schedule{{0, 0}, {1, 0}}
	if got := h.String(); got != "(T11, T21)" {
		t.Errorf("schedule string = %q", got)
	}
	if h.Key() == (Schedule{{0, 0}, {0, 1}}).Key() {
		t.Error("distinct schedules share a key")
	}
}

func TestKindString(t *testing.T) {
	if Update.String() != "U" || Read.String() != "R" || Write.String() != "W" {
		t.Error("kind names wrong")
	}
	if StepKind(9).String() == "" {
		t.Error("unknown kind has empty name")
	}
	if StepKind(9).Valid() {
		t.Error("kind 9 valid")
	}
}

// Property: SerialSchedule produces legal schedules for any format and any
// permutation.
func TestSerialScheduleAlwaysLegal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		format := make([]int, n)
		for i := range format {
			format[i] = 1 + r.Intn(4)
		}
		order := r.Perm(n)
		return SerialSchedule(format, order).Legal(format)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: a legal schedule stays legal under any sequence of permitted
// adjacent swaps.
func TestSwapPreservesLegality(t *testing.T) {
	format := []int{2, 2, 1}
	h := AllSteps(format)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 500; step++ {
		k := rng.Intn(len(h) - 1)
		g, err := h.SwapAdjacent(k)
		if err != nil {
			continue
		}
		if !g.Legal(format) {
			t.Fatalf("swap produced illegal schedule %v", g)
		}
		h = g
	}
}

func TestTrivialICAndInitialStates(t *testing.T) {
	sys := (&System{Txs: []Transaction{{Steps: []Step{{Var: "x", Kind: Read}, {Var: "y", Kind: Read}}}}}).Normalize()
	inits := sys.InitialStates()
	if len(inits) != 1 {
		t.Fatalf("want 1 initial state, got %d", len(inits))
	}
	if _, ok := inits[0]["y"]; !ok {
		t.Error("initial state missing variable y")
	}
	if !sys.Consistent(DB{"x": 99}) {
		t.Error("trivial IC rejected a state")
	}
	// Normalize's trivial IC and a nil IC both start every variable at 0.
	noIC := &System{Txs: sys.Txs}
	for _, s := range []*System{sys, noIC} {
		if got := s.InitialState(); !got.Equal(DB{"x": 0, "y": 0}) || len(got) != 2 {
			t.Errorf("InitialState = %v, want every variable at zero", got)
		}
	}
}

func TestExecutable(t *testing.T) {
	sys := incDec()
	if !sys.Executable() {
		t.Error("interpreted system not executable")
	}
	syntactic := (&System{Txs: []Transaction{{Steps: []Step{{Var: "x", Kind: Update}}}}}).Normalize()
	if syntactic.Executable() {
		t.Error("uninterpreted update judged executable")
	}
	readOnly := (&System{Txs: []Transaction{{Steps: []Step{{Var: "x", Kind: Read}}}}}).Normalize()
	if !readOnly.Executable() {
		t.Error("read-only system should be executable")
	}
}

func TestSystemString(t *testing.T) {
	s := incDec().String()
	for _, want := range []string{"incdec", "T11", "T21", "U:x"} {
		if !containsStr(s, want) {
			t.Errorf("System.String() missing %q in %q", want, s)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// TestInitialValuesOnlyForTheSharedState: InitialValues gives the shared
// initial state's values in Vars order, and nil for an equal copy.
func TestInitialValuesOnlyForTheSharedState(t *testing.T) {
	s := &System{Name: "iv", Txs: []Transaction{{Steps: []Step{{Var: "b", Kind: Read}, {Var: "a", Kind: Read}}}},
		IC: &IC{Initials: func() []DB { return []DB{{"a": 3, "b": 4}} }}}
	vals := s.InitialValues(s.InitialState())
	if len(vals) != 2 || vals[0] != 3 || vals[1] != 4 {
		t.Fatalf("InitialValues = %v, want [3 4] in Vars order %v", vals, s.Vars())
	}
	if s.InitialValues(s.InitialState().Clone()) != nil {
		t.Fatal("InitialValues accepted a copy of the shared state")
	}
	extra := &System{Name: "extra", Txs: s.Txs,
		IC: &IC{Initials: func() []DB { return []DB{{"a": 3, "b": 4, "c": 5}} }}}
	if extra.InitialValues(extra.InitialState()) != nil {
		t.Fatal("InitialValues accepted a state holding a variable outside Vars")
	}
}
