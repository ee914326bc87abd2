package geometry

import (
	"slices"
	"strings"
	"testing"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/locking"
)

// figure3System reproduces Figure 3's setting: two transactions that both
// lock X and Y, in opposite orders, so that the progress space contains
// two blocks and a deadlock region.
func figure3System(t *testing.T) *locking.System {
	t.Helper()
	sys := (&core.System{
		Name: "figure3",
		Txs: []core.Transaction{
			{Name: "T1", Steps: []core.Step{
				{Var: "x", Kind: core.Update},
				{Var: "y", Kind: core.Update},
			}},
			{Name: "T2", Steps: []core.Step{
				{Var: "y", Kind: core.Update},
				{Var: "x", Kind: core.Update},
			}},
		},
	}).Normalize()
	ls, err := locking.TwoPhase{}.Transform(sys)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

func TestSpaceConstruction(t *testing.T) {
	ls := figure3System(t)
	sp, err := NewSpace(ls, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.N1 != 6 || sp.N2 != 6 {
		t.Fatalf("extents = %d×%d, want 6×6 (2PL ops)", sp.N1, sp.N2)
	}
	if len(sp.Blocks) != 2 {
		t.Fatalf("blocks = %v, want 2 (X and Y)", sp.Blocks)
	}
	for _, b := range sp.Blocks {
		if b.X1 > b.X2 || b.Y1 > b.Y2 {
			t.Errorf("degenerate block %v", b)
		}
	}
}

// Blocks are built in lock-variable order, not the LockSpans map's
// iteration order, so every construction of the same space agrees.
func TestBlocksDeterministic(t *testing.T) {
	ls := figure3System(t)
	var first []Block
	for i := 0; i < 50; i++ {
		sp, err := NewSpace(ls, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sp.Blocks
			if len(first) != 2 || first[0].LV != "X" || first[1].LV != "Y" {
				t.Fatalf("blocks = %v, want X then Y", first)
			}
			continue
		}
		if !slices.Equal(sp.Blocks, first) {
			t.Fatalf("build %d: blocks = %v, want %v", i, sp.Blocks, first)
		}
	}
}

func TestNewSpaceErrors(t *testing.T) {
	ls := figure3System(t)
	if _, err := NewSpace(ls, 0, 0); err == nil {
		t.Error("same transaction twice accepted")
	}
	if _, err := NewSpace(ls, 0, 9); err == nil {
		t.Error("out-of-range transaction accepted")
	}
}

func TestDeadlockRegionExists(t *testing.T) {
	// Opposite lock orders create the classic deadlock region D of
	// Figure 3.
	ls := figure3System(t)
	sp, err := NewSpace(ls, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.HasDeadlock() {
		t.Fatal("no deadlock region in the Figure 3 configuration")
	}
	// Every doomed point must be reachable and not forbidden.
	r := sp.ReachableFromO()
	for _, p := range sp.DeadlockRegion() {
		if !r[p.X][p.Y] {
			t.Errorf("doomed point %v not reachable", p)
		}
		if sp.Forbidden(p) {
			t.Errorf("doomed point %v inside a block", p)
		}
	}
}

func TestNoDeadlockWithAlignedLockOrder(t *testing.T) {
	// Same lock order in both transactions: no deadlock region.
	sys := (&core.System{
		Txs: []core.Transaction{
			{Steps: []core.Step{{Var: "x", Kind: core.Update}, {Var: "y", Kind: core.Update}}},
			{Steps: []core.Step{{Var: "x", Kind: core.Update}, {Var: "y", Kind: core.Update}}},
		},
	}).Normalize()
	ls, err := locking.TwoPhase{}.Transform(sys)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpace(ls, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.HasDeadlock() {
		t.Errorf("aligned lock order produced deadlock region %v", sp.DeadlockRegion())
	}
}

func TestPathsAndSides(t *testing.T) {
	ls := figure3System(t)
	sp, err := NewSpace(ls, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Serial path: all of T1 then all of T2 — all blocks above.
	moves := make([]int, 0, 12)
	for i := 0; i < 6; i++ {
		moves = append(moves, 0)
	}
	for i := 0; i < 6; i++ {
		moves = append(moves, 1)
	}
	path, err := sp.PathFromMoves(moves)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sp.Blocks {
		side, err := sp.SideOf(path, b)
		if err != nil {
			t.Fatal(err)
		}
		if side != BlockAbove {
			t.Errorf("block %v side = %v on the lower-right serial path", b, side)
		}
	}
	ok, err := sp.PathSerializable(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("serial path judged non-serializable")
	}
}

func TestPathValidation(t *testing.T) {
	ls := figure3System(t)
	sp, _ := NewSpace(ls, 0, 1)
	if _, err := sp.PathFromMoves([]int{2}); err == nil {
		t.Error("invalid move accepted")
	}
	long := make([]int, 7)
	if _, err := sp.PathFromMoves(long); err == nil {
		t.Error("path leaving grid accepted")
	}
	// A path driving straight into a block: T1 past its lock of X, then
	// T2 tries to pass its own lock of X.
	if _, err := sp.MovesFromOpOrder([]int{9}); err == nil {
		t.Error("bad op order accepted")
	}
}

// 2PL: all blocks share a common point (Figure 4(d)), hence no avoiding
// path can separate them, hence every 2PL execution is serializable.
func TestTwoPhaseCommonPointAndSafety(t *testing.T) {
	for _, txs := range [][]core.Transaction{
		{
			{Steps: []core.Step{{Var: "x", Kind: core.Update}, {Var: "y", Kind: core.Update}}},
			{Steps: []core.Step{{Var: "y", Kind: core.Update}, {Var: "x", Kind: core.Update}}},
		},
		{
			{Steps: []core.Step{{Var: "x", Kind: core.Update}, {Var: "y", Kind: core.Update}, {Var: "z", Kind: core.Update}}},
			{Steps: []core.Step{{Var: "z", Kind: core.Update}, {Var: "x", Kind: core.Update}}},
		},
	} {
		sys := (&core.System{Txs: txs}).Normalize()
		ls, err := locking.TwoPhase{}.Transform(sys)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := NewSpace(ls, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(sp.Blocks) >= 2 {
			if _, ok := sp.CommonPoint(); !ok {
				t.Errorf("2PL blocks %v share no common point", sp.Blocks)
			}
		}
		if sp.SeparatingPathExists() {
			t.Error("separating path exists under 2PL")
		}
	}
}

// A deliberately non-two-phase locking (lock, use, unlock per access)
// leaves disjoint blocks that a path can separate: the geometric picture
// of an incorrect locking policy (Figure 4(c)).
func TestNonTwoPhaseLockingAdmitsSeparation(t *testing.T) {
	ls := &locking.System{
		Base: (&core.System{
			Txs: []core.Transaction{
				{Steps: []core.Step{{Var: "x", Kind: core.Update}, {Var: "y", Kind: core.Update}}},
				{Steps: []core.Step{{Var: "x", Kind: core.Update}, {Var: "y", Kind: core.Update}}},
			},
		}).Normalize(),
		Policy: "per-access",
		Txs: []locking.Tx{
			{Name: "T1", Ops: []locking.Op{
				{Kind: locking.OpLock, LV: "X"},
				{Kind: locking.OpStep, Step: core.StepID{Tx: 0, Idx: 0}},
				{Kind: locking.OpUnlock, LV: "X"},
				{Kind: locking.OpLock, LV: "Y"},
				{Kind: locking.OpStep, Step: core.StepID{Tx: 0, Idx: 1}},
				{Kind: locking.OpUnlock, LV: "Y"},
			}},
			{Name: "T2", Ops: []locking.Op{
				{Kind: locking.OpLock, LV: "X"},
				{Kind: locking.OpStep, Step: core.StepID{Tx: 1, Idx: 0}},
				{Kind: locking.OpUnlock, LV: "X"},
				{Kind: locking.OpLock, LV: "Y"},
				{Kind: locking.OpStep, Step: core.StepID{Tx: 1, Idx: 1}},
				{Kind: locking.OpUnlock, LV: "Y"},
			}},
		},
	}
	if err := ls.Validate(); err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpace(ls, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.SeparatingPathExists() {
		t.Fatal("per-access locking should admit a separating (non-serializable) path")
	}
	if _, ok := sp.CommonPoint(); ok {
		t.Error("disjoint blocks report a common point")
	}
}

// Path serializability coincides with conflict serializability of the data
// projection for well-formed locked pairs.
func TestPathSerializabilityMatchesConflict(t *testing.T) {
	ls := figure3System(t)
	sp, err := NewSpace(ls, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rec func(moves []int, a, b int)
	rec = func(moves []int, a, b int) {
		if a == sp.N1 && b == sp.N2 {
			path, err := sp.PathFromMoves(moves)
			if err != nil {
				return // hits a block: not an execution
			}
			geoOK, err := sp.PathSerializable(path)
			if err != nil {
				t.Fatal(err)
			}
			data, err := sp.DataProjection(moves)
			if err != nil {
				t.Fatal(err)
			}
			csr, _, err := conflict.Serializable(ls.Base, data)
			if err != nil {
				t.Fatal(err)
			}
			if geoOK != csr {
				t.Fatalf("moves %v: geometric=%v conflict=%v (data %v)", moves, geoOK, csr, data)
			}
			return
		}
		if a < sp.N1 {
			rec(append(moves, 0), a+1, b)
		}
		if b < sp.N2 {
			rec(append(moves, 1), a, b+1)
		}
	}
	rec(nil, 0, 0)
}

func TestDataProjectionErrors(t *testing.T) {
	ls := figure3System(t)
	sp, _ := NewSpace(ls, 0, 1)
	if _, err := sp.DataProjection([]int{5}); err == nil {
		t.Error("invalid move accepted")
	}
	if _, err := sp.DataProjection(make([]int, 7)); err == nil {
		t.Error("overlong projection accepted")
	}
}

func TestRenderContainsGlyphs(t *testing.T) {
	ls := figure3System(t)
	sp, _ := NewSpace(ls, 0, 1)
	moves := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	path, err := sp.PathFromMoves(moves)
	if err != nil {
		t.Fatal(err)
	}
	out := sp.Render(path)
	for _, glyph := range []string{"#", "D", "*"} {
		if !strings.Contains(out, glyph) {
			t.Errorf("render missing %q:\n%s", glyph, out)
		}
	}
	if !strings.Contains(sp.Render(nil), "O") {
		t.Error("render without path missing origin")
	}
}

func TestBlockHelpers(t *testing.T) {
	b := Block{LV: "X", X1: 1, X2: 3, Y1: 2, Y2: 4}
	if !b.Contains(Point{2, 3}) || b.Contains(Point{0, 3}) {
		t.Error("Contains wrong")
	}
	o := Block{LV: "Y", X1: 3, X2: 5, Y1: 4, Y2: 6}
	if !b.Overlaps(o) {
		t.Error("touching blocks should overlap")
	}
	far := Block{LV: "Z", X1: 9, X2: 9, Y1: 9, Y2: 9}
	if b.Overlaps(far) {
		t.Error("distant blocks overlap")
	}
	if b.String() == "" {
		t.Error("empty block string")
	}
	if BlockAbove.String() != "above" || BlockBelow.String() != "below" || SideUnknown.String() != "unknown" {
		t.Error("side strings")
	}
}

func TestMemorylessness(t *testing.T) {
	// Figure 4(a): different histories reaching the same progress point
	// are indistinguishable to any lock-implemented scheduler. Two
	// different move orders reach the same point; the space state (which
	// is a pure function of the point) is identical.
	ls := figure3System(t)
	sp, _ := NewSpace(ls, 0, 1)
	p1, err := sp.PathFromMoves([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sp.PathFromMoves([]int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p1[len(p1)-1] != p2[len(p2)-1] {
		t.Error("different orders should reach the same progress point")
	}
}
