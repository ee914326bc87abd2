package sim

// Coverage for the natively concurrent SGT and OCC schedulers driven by
// the real dispatch runtime: disjoint-workload state==replay self-checks
// of the lock-free paths, and contended CSR self-checks of the striped
// graph and the epoch-based validation. CI runs this file under
// -race -count=5 in the concurrency stress job.

import (
	"testing"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// TestConcurrentSGTDisjointStateMatchesReplay: native SGT under the shard
// decision latches with real storage on the conflict-free multi-shard
// workload. Every grant takes the zero-conflict lock-free path, every
// commit retires an edgeless singleton; the committed backend state must
// equal the committed replay.
func TestConcurrentSGTDisjointStateMatchesReplay(t *testing.T) {
	const jobs = 24
	for _, shards := range []int{1, 4} {
		inst := Instantiate(workload.Disjoint(jobs, 3), jobs)
		be := storage.NewKV(storage.Config{Shards: shards, ValueSize: 128})
		m, err := Run(Config{System: inst, Sched: online.NewConcurrentSGTAborting(shards),
			Backend: be, Users: 8, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if m.Committed != jobs {
			t.Fatalf("shards=%d: committed %d of %d", shards, m.Committed, jobs)
		}
		replay, err := core.Exec(inst, m.Output, inst.InitialStates()[0])
		if err != nil {
			t.Fatal(err)
		}
		if !be.State().Equal(replay) {
			t.Fatalf("shards=%d: backend state diverged from committed replay", shards)
		}
	}
}

// TestConcurrentSGTContendedSerializable: native SGT under real conflicts,
// both cycle modes, on the hotspot workload (many users, one big
// component) and on the pairwise-conflict multi-shard workload (many small
// components that union and prune concurrently), at 1 graph stripe (the
// single-mutex degenerate) and 4. Everything must commit — delay mode leans
// on the parked-request kicks and the deadlock breaker's Victim call, abort
// mode on restarts — and the committed schedule must be
// conflict-serializable: the concurrent edge set equals the sequential
// SGT's, so acyclicity of the striped graph is exactly CSR of the committed
// log, exercised concurrently.
func TestConcurrentSGTContendedSerializable(t *testing.T) {
	templates := []*core.System{
		workload.Random(workload.RandomConfig{
			NumTxs: 24, MinSteps: 3, MaxSteps: 3, NumVars: 6, Hotspot: 1}, 7),
		workload.CrossPairs(8),
	}
	for _, template := range templates {
		jobs := template.NumTxs()
		for _, shards := range []int{1, 4} {
			for _, abort := range []bool{false, true} {
				var sched online.Scheduler = online.NewConcurrentSGT(shards)
				if abort {
					sched = online.NewConcurrentSGTAborting(shards)
				}
				inst := Instantiate(template, jobs)
				m, err := Run(Config{System: inst, Sched: sched, Users: 8, Seed: 11, MaxRestarts: 10000})
				if err != nil {
					t.Fatalf("%s on %s: %v", sched.Name(), template.Name, err)
				}
				if m.Committed != jobs {
					t.Fatalf("%s on %s: committed %d of %d", sched.Name(), template.Name, m.Committed, jobs)
				}
				csr, _, err := conflict.Serializable(inst, m.Output)
				if err != nil {
					t.Fatal(err)
				}
				if !csr {
					t.Fatalf("%s on %s: non-serializable committed schedule", sched.Name(), template.Name)
				}
			}
		}
	}
}

// TestConcurrentOCCDisjointStateMatchesReplay: native OCC under the shard
// decision latches with real storage on the conflict-free multi-shard
// workload — the all-lock-free regime the epoch validation is built for.
func TestConcurrentOCCDisjointStateMatchesReplay(t *testing.T) {
	const jobs = 24
	for _, shards := range []int{1, 4} {
		inst := Instantiate(workload.Disjoint(jobs, 3), jobs)
		be := storage.NewKV(storage.Config{Shards: shards, ValueSize: 128})
		m, err := Run(Config{System: inst, Sched: online.NewConcurrentOCC(shards),
			Backend: be, Users: 8, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if m.Committed != jobs {
			t.Fatalf("shards=%d: committed %d of %d", shards, m.Committed, jobs)
		}
		replay, err := core.Exec(inst, m.Output, inst.InitialStates()[0])
		if err != nil {
			t.Fatal(err)
		}
		if !be.State().Equal(replay) {
			t.Fatalf("shards=%d: backend state diverged from committed replay", shards)
		}
	}
}

// TestConcurrentOCCContendedSerializable: native OCC under real conflicts
// (hotspot workload, many users). Validation aborts restart until
// everything commits, and the committed schedule must be
// conflict-serializable — committed transactions are serialized by their
// validation epochs, exercised with genuinely concurrent validators.
func TestConcurrentOCCContendedSerializable(t *testing.T) {
	const jobs = 24
	template := workload.Random(workload.RandomConfig{
		NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 6, Hotspot: 1}, 7)
	inst := Instantiate(template, jobs)
	m, err := Run(Config{System: inst, Sched: online.NewConcurrentOCC(4),
		Users: 8, Seed: 11, MaxRestarts: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if m.Committed != jobs {
		t.Fatalf("committed %d of %d", m.Committed, jobs)
	}
	csr, _, err := conflict.Serializable(inst, m.Output)
	if err != nil {
		t.Fatal(err)
	}
	if !csr {
		t.Fatal("non-serializable committed schedule under concurrent backward validation")
	}
}
