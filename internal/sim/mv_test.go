package sim

// The multiversion runtime end-to-end: ConcurrentMV on the concurrent
// runtime with the version-chain KV, read-only transactions served
// through the snapshot fast path. CI runs this file under -race in the
// concurrency stress job.

import (
	"fmt"
	"testing"
	"time"

	"optcc/internal/check"
	"optcc/internal/core"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// readOnlyTxs returns the indices of all-Read transactions — the ones the
// runtime's snapshot fast path serves.
func readOnlyTxs(sys *core.System) []int {
	var out []int
	for tx := range sys.Txs {
		ro := len(sys.Txs[tx].Steps) > 0
		for _, st := range sys.Txs[tx].Steps {
			if st.Kind != core.Read {
				ro = false
				break
			}
		}
		if ro {
			out = append(out, tx)
		}
	}
	return out
}

// TestConcurrentMVReadMostlyStateMatchesReplay: the read-mostly workload
// under mv, from half to nearly all readers, must commit everything, serve every read-only transaction's steps
// through the snapshot path (they never enter the grant machinery, so they
// produce no Output events), keep the committed schedule
// conflict-serializable, and leave the backend state equal to the serial
// replay of the committed schedule — writers are pure increments executed
// strictly under held claims, so the write-set invariant is exact.
// check.Replay closes the schedule over the snapshot-served readers.
func TestConcurrentMVReadMostlyStateMatchesReplay(t *testing.T) {
	const jobs, seed = 32, 17
	for _, readFrac := range []float64{0.5, 0.9, 0.99} {
		template := workload.ReadMostly(workload.ReadMostlyConfig{
			Jobs: jobs, Steps: 3, ReadFrac: readFrac, Vars: 16, HotFrac: 0.8, HotVars: 3,
		}, 23)
		inst := Instantiate(template, jobs)
		ro := readOnlyTxs(inst)
		be := storage.NewKV(storage.Config{Shards: 4, ValueSize: 128})
		m, err := Run(Config{System: inst, Sched: online.NewConcurrentMV(4),
			Backend: be, Users: 8, Seed: seed, MaxRestarts: 10000})
		if err != nil {
			t.Fatal(err)
		}
		if m.Committed != jobs {
			t.Fatalf("readfrac=%v: committed %d of %d", readFrac, m.Committed, jobs)
		}
		wantSnap := int64(0)
		for _, tx := range ro {
			wantSnap += int64(len(inst.Txs[tx].Steps))
		}
		if m.SnapshotReads != wantSnap {
			t.Fatalf("readfrac=%v: %d snapshot reads, want %d", readFrac, m.SnapshotReads, wantSnap)
		}
		for _, id := range m.Output {
			for _, tx := range ro {
				if id.Tx == tx {
					t.Fatalf("readfrac=%v: read-only tx %d leaked into the committed schedule", readFrac, tx)
				}
			}
		}
		if err := check.CSR(inst, m.Output); err != nil {
			t.Fatalf("readfrac=%v seed %d: %v", readFrac, seed, err)
		}
		if err := check.Replay(inst, m.Output, be.State()); err != nil {
			t.Fatalf("readfrac=%v seed %d: %v", readFrac, seed, err)
		}
	}
}

// TestSnapshotFastPathGate pins the fallback: when the runtime has more
// users than the backend has pin slots, read-only transactions go through
// the grant machinery like everyone else — no snapshot reads, same
// results.
func TestSnapshotFastPathGate(t *testing.T) {
	const jobs = 16
	template := workload.ReadMostly(workload.ReadMostlyConfig{
		Jobs: jobs, Steps: 3, ReadFrac: 0.75, Vars: 8, HotVars: 1,
	}, 5)
	inst := Instantiate(template, jobs)
	be := storage.NewKV(storage.Config{Shards: 4, ValueSize: 128, SnapshotSlots: 2})
	m, err := Run(Config{System: inst, Sched: online.NewConcurrentMV(4),
		Backend: be, Users: 4, Seed: 29, MaxRestarts: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if m.Committed != jobs {
		t.Fatalf("committed %d of %d", m.Committed, jobs)
	}
	if m.SnapshotReads != 0 {
		t.Fatalf("fast path engaged with %d snapshot reads despite 2 slots for 4 users", m.SnapshotReads)
	}
	if err := check.Replay(inst, m.Output, be.State()); err != nil {
		t.Fatal(err)
	}
}

// crossedBlindWrites runs crossed blind-write pairs under sched: pair i's
// T_a is W(a_i) W(b_i) and its T_b is W(b_i) W(a_i), so two overlapping
// partners each write a variable the other wrote first. No step reads, so
// only the scheduler's write rule stands between them and the cycle
// T_a → T_b → T_a; the think time between steps makes the partners
// overlap. Every job must commit and the committed schedule must be
// conflict-serializable.
func crossedBlindWrites(t *testing.T, sched online.Scheduler) (*core.System, *Metrics, *storage.KV) {
	t.Helper()
	const pairs, jobs = 4, 64
	template := &core.System{Name: "crossed-blind-writes"}
	for i := 0; i < pairs; i++ {
		a, b := core.Var(fmt.Sprintf("a%d", i)), core.Var(fmt.Sprintf("b%d", i))
		for k, order := range [2][2]core.Var{{a, b}, {b, a}} {
			add := core.Value(k + 1) // T_a adds 1, T_b adds 2: replay sees who wrote last
			w := func(l []core.Value) core.Value { return l[len(l)-1] + add }
			template.Txs = append(template.Txs, core.Transaction{Steps: []core.Step{
				{Var: order[0], Kind: core.Write, Fn: w},
				{Var: order[1], Kind: core.Write, Fn: w},
			}})
		}
	}
	inst := Instantiate(template.Normalize(), jobs)
	be := storage.NewKV(storage.Config{Shards: 4})
	m, err := Run(Config{System: inst, Sched: sched, Backend: be,
		Users: 8, Seed: 5, ThinkTime: 20 * time.Microsecond, MaxRestarts: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if m.Committed != jobs {
		t.Fatalf("committed %d of %d", m.Committed, jobs)
	}
	if err := check.CSR(inst, m.Output); err != nil {
		t.Fatal(err)
	}
	return inst, m, be
}

// TestConcurrentMVCrossedBlindWrites: under mv only first-writer-wins
// breaks the crossed pairs' cycle, and the store must also equal the
// serial replay of the committed schedule.
func TestConcurrentMVCrossedBlindWrites(t *testing.T) {
	inst, m, be := crossedBlindWrites(t, online.NewConcurrentMV(4))
	if err := check.Replay(inst, m.Output, be.State()); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTOCrossedBlindWrites: under basic cto only the write
// timestamp rule breaks the crossed pairs' cycle. The schedule is checked
// for conflict-serializability only: cto is not strict, so a write may be
// granted over another transaction's uncommitted one, and the eager store
// can end in a state the serial replay of the committed schedule does not
// reach (an abort rolls back under a later writer's version). The Thomas
// variant is left out on purpose: it grants an obsolete blind write as a
// no-op, so its schedules are view- but not conflict-serializable.
func TestConcurrentTOCrossedBlindWrites(t *testing.T) {
	crossedBlindWrites(t, online.NewConcurrentTO(4))
}
