package core_test

import (
	"testing"

	"optcc/internal/core"
	"optcc/internal/sim"
	"optcc/internal/workload"
)

// TestVarIDsNameTheStepVariable checks VarIDs against the names it
// replaces: Vars()[VarIDs()[i][j]] is Txs[i].Steps[j].Var on every step of
// the generated workloads and of a hand-built System that was never
// Normalized.
func TestVarIDsNameTheStepVariable(t *testing.T) {
	handBuilt := &core.System{Txs: []core.Transaction{
		{Steps: []core.Step{{Var: "q", Kind: core.Read}, {Var: "b", Kind: core.Write}, {Var: "q", Kind: core.Update}}},
		{Steps: []core.Step{{Var: "b", Kind: core.Read}}},
		{Steps: []core.Step{{Var: "a10", Kind: core.Update}, {Var: "a9", Kind: core.Read}}},
	}}
	systems := map[string]*core.System{
		"disjoint":   workload.Disjoint(500, 3),
		"random":     workload.Random(workload.RandomConfig{NumTxs: 400, MinSteps: 1, MaxSteps: 5, NumVars: 16, Hotspot: 1}, 7),
		"readmostly": workload.ReadMostly(workload.ReadMostlyConfig{Jobs: 300, Steps: 4, ReadFrac: 0.9, Vars: 256, HotFrac: 0.5, HotVars: 8}, 3),
		"banking":    sim.Instantiate(workload.Banking(), 50),
		"hand-built": handBuilt,
	}
	for name, sys := range systems {
		vars, ids := sys.Vars(), sys.VarIDs()
		if len(ids) != sys.NumTxs() {
			t.Fatalf("%s: %d id rows for %d transactions", name, len(ids), sys.NumTxs())
		}
		for i := range sys.Txs {
			if len(ids[i]) != len(sys.Txs[i].Steps) {
				t.Fatalf("%s: tx %d has %d ids for %d steps", name, i, len(ids[i]), len(sys.Txs[i].Steps))
			}
			for j, st := range sys.Txs[i].Steps {
				if got := vars[ids[i][j]]; got != st.Var {
					t.Fatalf("%s: step T%d%d names %q, Vars()[%d] is %q", name, i+1, j+1, st.Var, ids[i][j], got)
				}
			}
		}
	}
}
