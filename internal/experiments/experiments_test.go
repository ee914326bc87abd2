package experiments

import (
	"slices"
	"strings"
	"testing"
)

// engineCells lists, per engine cell, how many tables it renders, the
// strings every table must carry — the rows of each scheduler or setting
// the cell compares — the self-check label of each table in order, and a
// headline its text must carry. The runners themselves make the checks and
// fail on a violation; this pins that every cell still runs them at full
// scale.
var engineCells = map[string]struct {
	want   []string
	checks []string // self-check label per table
	text   string
}{
	"E4":  {[]string{"serial", "strict-2pl/wound-wait", "sgt/abort", "occ/backward"}, []string{"all committed", "all committed", "all committed"}, ""},
	"E7":  {[]string{"detect", "no-wait", "wait-die", "wound-wait"}, []string{"all committed"}, ""},
	"E9":  {[]string{"central/strict-2pl", "2pl-sharded(1)", "2pl-sharded(8)"}, []string{"state==replay", "state==replay", "state==replay", "state==replay"}, ""},
	"E11": {[]string{"mutexed/to/basic", "cto(1)", "cto(4)", "2pl-sharded(4)"}, []string{"state==replay", "schedule CSR"}, ""},
	"E12": {[]string{"mv(", "2pl-sharded(", "cto(", "state==replay"}, []string{"schedule CSR", "schedule CSR", "schedule CSR"}, ""},
	"E13": {[]string{"always", "group", "never"}, []string{"recovered==replay", "recovered==replay"}, "fsync=group"},
	"E14": {[]string{"interval-B", "4096", "8192"}, []string{"recovered==replay"}, "smaller"},
	"E15": {[]string{"mutexed/sgt/abort", "mutexed/occ/backward", "csgt(", "cocc(", "cto(", "2pl-sharded("}, []string{"state==replay", "schedule CSR"}, ""},
}

// Every registry entry runs at full scale, green, with non-empty output;
// the in-experiment invariant checks (nesting, adversary coverage, strict
// separations, replay and recovery) are the real assertions.
func TestEveryExperimentRuns(t *testing.T) {
	for _, e := range Registry {
		t.Run(e.ID, func(t *testing.T) {
			r, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if r.ID != e.ID {
				t.Errorf("returned result id %s", r.ID)
			}
			if out := r.String(); len(out) < 40 {
				t.Errorf("output suspiciously small:\n%s", out)
			}
			cell, ok := engineCells[e.ID]
			if !ok {
				return
			}
			if len(r.Tables) != len(cell.checks) {
				t.Fatalf("tables = %d, want %d", len(r.Tables), len(cell.checks))
			}
			for i, tbl := range r.Tables {
				s := tbl.String()
				for _, want := range append([]string{"self-check", cell.checks[i]}, cell.want...) {
					if !strings.Contains(s, want) {
						t.Errorf("table %d missing %q:\n%s", i, want, s)
					}
				}
			}
			if !strings.Contains(r.Text, cell.text) {
				t.Errorf("text missing %q:\n%s", cell.text, r.Text)
			}
		})
	}
}

// The experiments with no timing columns render byte-identically on every
// run: nothing in them may depend on map iteration or scheduling order.
func TestRenderDeterministic(t *testing.T) {
	for _, e := range Registry {
		if !slices.Contains([]string{"T1", "T2", "T3", "T4", "F1", "F2", "F3", "F4", "F5", "E1", "E2", "E3", "E5"}, e.ID) {
			continue
		}
		first, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		second, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if a, b := first.String(), second.String(); a != b {
			t.Errorf("%s renders differently on a second run:\n%s\n---\n%s", e.ID, a, b)
		}
	}
}

func TestIDs(t *testing.T) {
	want := []string{"T1", "T2", "T3", "T4", "F1", "F2", "F3", "F4", "F5",
		"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E9", "E11", "E12", "E13", "E14", "E15"}
	var ids []string
	for _, e := range Registry {
		ids = append(ids, e.ID)
	}
	if !slices.Equal(ids, want) {
		t.Errorf("registry ids = %v, want %v", ids, want)
	}
}

func TestResultStringFormat(t *testing.T) {
	r, err := F1WeaklySerializableHistory()
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{"F1", "Herbrand value", "f12"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}
