// Package experiments drives every experiment in DESIGN.md's
// per-experiment index and renders its tables: theorems T1–T4 and figures
// F1–F5 (theorems.go), offline fixpoint counting E1–E3, E5 and E6
// (fixpoints.go), and the engine cells E4 and E7 (engine.go): T1–T4, F1–F5
// and E1–E7, the paper's objects. Each experiment runs once at a fixed
// scale and errors out when its self-check fails. The engine's own
// properties — state==replay, schedule CSR, recovered==replay — are tests
// in internal/sim and internal/storage that call internal/check.
// cmd/ccbench is a thin CLI over Registry.
package experiments

import (
	"fmt"
	"strings"

	"optcc/internal/report"
)

// Result is one experiment's rendered output.
type Result struct {
	ID     string
	Title  string
	Text   string // free-form sections (figures, narratives)
	Tables []*report.Table
}

// String renders the result for terminal output.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "─── %s: %s ───\n", r.ID, r.Title)
	if r.Text != "" {
		b.WriteString(r.Text)
		if !strings.HasSuffix(r.Text, "\n") {
			b.WriteByte('\n')
		}
	}
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is one registry entry.
type Experiment struct {
	ID  string
	Run func() (*Result, error)
}

// Registry lists every experiment in display order.
var Registry = []Experiment{
	{"T1", T1InformationBound},
	{"T2", T2SerialOptimal},
	{"T3", T3SerializationOptimal},
	{"T4", T4WeakSerialization},
	{"F1", F1WeaklySerializableHistory},
	{"F2", F2TwoPhaseTransformation},
	{"F3", F3ProgressSpace},
	{"F4", F4GeometryOfLocking},
	{"F5", F5TwoPhasePrimeTransformation},
	{"E1", E1FixpointHierarchy},
	{"E2", E2NoDelayProbability},
	{"E3", E3OnlineFixpoints},
	{"E4", E4SimulatedWaiting},
	{"E5", E5PolicyComparison},
	{"E6", E6TreeLocking},
	{"E7", E7DeadlockPolicies},
}
