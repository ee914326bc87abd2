package sim

// The multiversion runtime end-to-end: ConcurrentMV on the concurrent
// runtime with the version-chain KV, read-only transactions served
// through the snapshot fast path. CI runs this file under -race in the
// concurrency stress job.

import (
	"testing"

	"optcc/internal/conflict"
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

// TestConcurrentMVReadMostlyStateMatchesReplay is the tentpole's
// self-check, the one E12 repeats per cell: the read-mostly workload under
// mv must commit everything, serve every read-only transaction's steps
// through the snapshot path (they never enter the grant machinery, so they
// produce no Output events), keep the committed schedule
// conflict-serializable, and leave the backend state equal to the serial
// replay of the committed schedule — writers are pure increments executed
// strictly under held claims, so the write-set invariant is exact.
func TestConcurrentMVReadMostlyStateMatchesReplay(t *testing.T) {
	const jobs = 32
	for _, readFrac := range []float64{0.5, 0.9} {
		template := workload.ReadMostly(workload.ReadMostlyConfig{
			Jobs: jobs, Steps: 3, ReadFrac: readFrac, Vars: 16, HotFrac: 0.8, HotVars: 3,
		}, 23)
		inst := Instantiate(template, jobs)
		ro := readOnlyTxs(inst)
		be := storage.NewKV(storage.Config{Shards: 4, ValueSize: 128})
		m, err := Run(Config{System: inst, Sched: online.NewConcurrentMV(4),
			Backend: be, Users: 8, Seed: 17, MaxRestarts: 10000})
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
		csr, _, err := conflict.Serializable(inst, m.Output)
		if err != nil {
			t.Fatal(err)
		}
		if !csr {
			t.Fatalf("readfrac=%v: non-serializable committed schedule", readFrac)
		}
		// core.Exec needs a complete schedule; the snapshot-served read-only
		// transactions are absent from Output, so append their (all-Read,
		// state-neutral) steps to close it.
		full := append([]core.StepID{}, m.Output...)
		for _, tx := range ro {
			for idx := range inst.Txs[tx].Steps {
				full = append(full, core.StepID{Tx: tx, Idx: idx})
			}
		}
		replay, err := core.Exec(inst, full, inst.InitialStates()[0])
		if err != nil {
			t.Fatal(err)
		}
		if !be.State().Equal(replay) {
			t.Fatalf("readfrac=%v: backend state diverged from committed replay", readFrac)
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
	replay, err := core.Exec(inst, m.Output, inst.InitialStates()[0])
	if err != nil {
		t.Fatal(err)
	}
	if !be.State().Equal(replay) {
		t.Fatal("backend state diverged from committed replay")
	}
}
