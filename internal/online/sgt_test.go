package online

import (
	"fmt"
	"math/rand"
	"testing"

	"optcc/internal/core"
)

// sgtUnderTest is the surface the differential driver compares against a
// reference; a scheduler under test without GraphSize is held to the
// decisions and Victim only.
type sgtUnderTest interface {
	Scheduler
	GraphSize() (nodes, steps int)
}

// randomSGTSystem draws 2–9 transactions of 1–4 steps over 4 variables
// with Read, Write and Update kinds.
func randomSGTSystem(rng *rand.Rand) *core.System {
	vars := []core.Var{"a", "b", "c", "d"}
	kinds := []core.StepKind{core.Read, core.Write, core.Update}
	sys := &core.System{Name: "sgt-diff"}
	for i, n := 0, 2+rng.Intn(8); i < n; i++ {
		var tx core.Transaction
		for j, m := 0, 1+rng.Intn(4); j < m; j++ {
			tx.Steps = append(tx.Steps, core.Step{Var: vars[rng.Intn(len(vars))], Kind: kinds[rng.Intn(len(kinds))]})
		}
		sys.Txs = append(sys.Txs, tx)
	}
	return sys.Normalize()
}

// sgtTally counts the decisions a differential run made.
type sgtTally struct{ grants, delays, aborts, victims int }

func (a *sgtTally) add(b sgtTally) {
	a.grants += b.grants
	a.delays += b.delays
	a.aborts += b.aborts
	a.victims += b.victims
}

// driveSGTPair plays one call sequence, chosen by ops two bytes per call,
// against the scheduler under test and the reference, and fails on the
// first differing decision, GraphSize or Victim. The sequence keeps the
// Scheduler contract: Try names a live transaction's next step, an AbortTx
// is followed by Abort, Commit follows the last grant (possibly after
// other calls), Abort names any uncommitted transaction — a victim or a
// failed apply, finished or not — and nothing names a committed one. A
// ConcurrentSGT under test has no GraphSize; instead, after every call its
// graph must drop every dead incarnation offered as a source (see
// checkStaleSources), and once every transaction has committed every
// incarnation must be retired.
func driveSGTPair(t *testing.T, label string, sys *core.System, got Scheduler, want sgtUnderTest, ops []byte) sgtTally {
	t.Helper()
	got.Begin(sys)
	want.Begin(sys)
	n := sys.NumTxs()
	next := make([]int, n)
	committed := make([]bool, n)
	var tally sgtTally
	var pick []int
	// choose lists the transactions satisfying ok and returns the one b
	// selects, or -1.
	choose := func(b byte, ok func(tx int) bool) int {
		pick = pick[:0]
		for tx := 0; tx < n; tx++ {
			if ok(tx) {
				pick = append(pick, tx)
			}
		}
		if len(pick) == 0 {
			return -1
		}
		return pick[int(b)%len(pick)]
	}
	running := func(tx int) bool { return !committed[tx] && next[tx] < len(sys.Txs[tx].Steps) }
	finished := func(tx int) bool { return !committed[tx] && next[tx] == len(sys.Txs[tx].Steps) }
	live := func(tx int) bool { return !committed[tx] }
	abort := func(tx int) {
		got.Abort(tx)
		want.Abort(tx)
		next[tx] = 0
	}
	for k := 0; k+1 < len(ops); k += 2 {
		op, arg := ops[k]%8, ops[k+1]
		switch {
		case op <= 4:
			tx := choose(arg, running)
			if tx < 0 {
				break
			}
			id := core.StepID{Tx: tx, Idx: next[tx]}
			g, w := got.Try(id), want.Try(id)
			if g != w {
				t.Fatalf("%s, op %d: Try(%v) = %v, reference %v", label, k/2, id, g, w)
			}
			switch g {
			case Grant:
				tally.grants++
				next[tx]++
			case Delay:
				tally.delays++
			case AbortTx:
				tally.aborts++
				abort(tx)
			}
		case op == 5:
			if tx := choose(arg, finished); tx >= 0 {
				got.Commit(tx)
				want.Commit(tx)
				committed[tx] = true
			}
		case op == 6:
			if tx := choose(arg, live); tx >= 0 {
				abort(tx)
			}
		default:
			// Victim over a stuck set: the uncommitted transactions whose
			// bit in arg is set, rotated by arg so the order varies too.
			var stuck []int
			for tx := 0; tx < n; tx++ {
				if live(tx) && arg&(1<<(tx%8)) != 0 {
					stuck = append(stuck, tx)
				}
			}
			if len(stuck) > 0 {
				r := int(arg) % len(stuck)
				stuck = append(append([]int(nil), stuck[r:]...), stuck[:r]...)
			}
			gv, gok := got.Victim(stuck)
			wv, wok := want.Victim(stuck)
			if gv != wv || gok != wok {
				t.Fatalf("%s, op %d: Victim(%v) = %d,%v, reference %d,%v", label, k/2, stuck, gv, gok, wv, wok)
			}
			tally.victims++
		}
		switch g := got.(type) {
		case sgtUnderTest:
			gn, gs := g.GraphSize()
			wn, ws := want.GraphSize()
			if gn != wn || gs != ws {
				t.Fatalf("%s, op %d: GraphSize = %d nodes %d steps, reference %d nodes %d steps", label, k/2, gn, gs, wn, ws)
			}
		case *ConcurrentSGT:
			if tx := choose(arg, live); tx >= 0 {
				checkStaleSources(t, fmt.Sprintf("%s, op %d", label, k/2), g.graph, tx)
			}
		}
	}
	done := true
	for tx := range committed {
		done = done && committed[tx]
	}
	if !done {
		return tally
	}
	switch g := got.(type) {
	case sgtUnderTest:
		if nodes, steps := g.GraphSize(); nodes != 0 || steps != 0 {
			t.Fatalf("%s: every transaction committed but the graph holds %d nodes, %d steps", label, nodes, steps)
		}
	case *ConcurrentSGT:
		for tx := range g.graph.state {
			if w := g.graph.state[tx].Load(); w&1 == 0 {
				t.Fatalf("%s: every transaction committed but tx %d's incarnation %d is still live", label, tx, w>>1)
			}
		}
	}
	return tally
}

// checkStaleSources plays the window between ConcurrentSGT's lock-free
// marks read and its graph insert, in which a source may retire: it offers
// every transaction's newest dead incarnation as a source to me's current
// one. The insert must drop them all, granting and linking nothing.
func checkStaleSources(t *testing.T, label string, g *sgtGraph, me int) {
	t.Helper()
	var stale []sgtNode
	for tx := range g.state {
		w := g.state[tx].Load()
		if w&1 != 0 {
			stale = append(stale, sgtNode{tx: tx, epoch: int(w >> 1)})
		} else if w > 0 {
			stale = append(stale, sgtNode{tx: tx, epoch: int(w>>1) - 1})
		}
	}
	in := len(g.txs[me].in)
	if !g.insert(g.node(me), stale) || len(g.txs[me].in) != in {
		t.Fatalf("%s: insert of dead sources %v into tx %d linked them (in-degree %d → %d)", label, stale, me, in, len(g.txs[me].in))
	}
}

// checkSGTAgainstReference runs one seeded system with the given op bytes
// under both cycle modes: SGT against the map-based reference, then
// ConcurrentSGT at one and four shards, from one goroutine, against SGT.
func checkSGTAgainstReference(t *testing.T, seed int64, ops []byte) sgtTally {
	t.Helper()
	sys := randomSGTSystem(rand.New(rand.NewSource(seed)))
	var tally sgtTally
	for _, abortOnCycle := range []bool{false, true} {
		want := &SGT{AbortOnCycle: abortOnCycle}
		tally.add(driveSGTPair(t, fmt.Sprintf("seed %d, %s", seed, want.Name()), sys, want, &refSGT{AbortOnCycle: abortOnCycle}, ops))
		for _, shards := range []int{1, 4} {
			got := NewConcurrentSGT(shards)
			got.AbortOnCycle = abortOnCycle
			tally.add(driveSGTPair(t, fmt.Sprintf("seed %d, %s", seed, got.Name()), sys, got, want, ops))
		}
	}
	return tally
}

// TestSGTMatchesReference holds the dense SGT to the map-based reference
// and ConcurrentSGT to SGT on seeded random call sequences: every decision,
// GraphSize (SGT) or dead-source dropping and final retirement
// (ConcurrentSGT) after every call, and Victim on random stuck sets.
func TestSGTMatchesReference(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 200
	}
	var total sgtTally
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5e6d))
		ops := make([]byte, 2*(20+rng.Intn(200)))
		rng.Read(ops)
		total.add(checkSGTAgainstReference(t, seed, ops))
	}
	// The comparison is only as strong as the paths it reached.
	if total.grants == 0 || total.delays == 0 || total.aborts == 0 || total.victims == 0 {
		t.Fatalf("differential run left a path unexercised: %+v", total)
	}
	t.Logf("%d seeds: %+v", seeds, total)
}

// FuzzSGTDecisions is TestSGTMatchesReference's driver over fuzzed inputs:
// the seed draws the system, the bytes choose the calls. The seed corpus
// under testdata/fuzz holds TestSGTMatchesReference's inputs for seeds
// that catch a dropped cascade, dedup, unlink, retirement or liveness
// revalidation.
func FuzzSGTDecisions(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		checkSGTAgainstReference(t, seed, ops)
	})
}
