package sim

// Coverage for the natively concurrent SGT and OCC schedulers driven by
// the real dispatch runtime: disjoint-workload state==replay self-checks
// of the lock-free paths, and contended CSR self-checks of the SGT's
// graph and the epoch-based validation. CI runs this file under
// -race -count=5 in the concurrency stress job.

import (
	"testing"

	"optcc/internal/check"
	"optcc/internal/core"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// TestConcurrentSGTDisjointStateMatchesReplay: native SGT under the shard
// decision latches with real storage on the conflict-free multi-shard
// workload. Every grant takes the zero-conflict lock-free path, every
// commit retires an edgeless singleton; the committed backend state must
// equal the committed replay. The single-threaded SGT under Mutexed is
// held to the same check.
func TestConcurrentSGTDisjointStateMatchesReplay(t *testing.T) {
	checkDisjointReplay(t, online.NewConcurrentSGTAborting(1), online.NewConcurrentSGTAborting(4),
		online.NewMutexed(online.NewSGTAborting()))
}

// checkDisjointReplay runs each scheduler on the conflict-free
// multi-shard workload over a KV of its own shard count and requires the
// committed backend state to equal the committed replay.
func checkDisjointReplay(t *testing.T, scheds ...online.ConcurrentScheduler) {
	t.Helper()
	const jobs, seed = 24, 42
	for _, sched := range scheds {
		inst := Instantiate(workload.Disjoint(jobs, 3), jobs)
		be := storage.NewKV(storage.Config{Shards: sched.NumShards(), ValueSize: 128})
		m, err := Run(Config{System: inst, Sched: sched, Backend: be, Users: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if m.Committed != jobs {
			t.Fatalf("%s: committed %d of %d", sched.Name(), m.Committed, jobs)
		}
		if err := check.Replay(inst, m.Output, be.State()); err != nil {
			t.Errorf("%s seed %d: %v", sched.Name(), seed, err)
		}
	}
}

// TestConcurrentSGTContendedSerializable: native SGT under real conflicts,
// both cycle modes, on the hotspot workload (many users, one big
// component) and on the pairwise-conflict multi-shard workload (many small
// components that link and drop concurrently), at 1 shard and 4.
// Everything must commit — delay mode leans
// on the parked-request kicks and the deadlock breaker's Victim call, abort
// mode on restarts — and the committed schedule must be
// conflict-serializable: the concurrent edge set equals the sequential
// SGT's, so acyclicity of the shared graph is exactly CSR of the committed
// log, exercised concurrently. Output must also keep the shard logs'
// per-variable order (checkMerge). The single-threaded SGT under Mutexed
// is held to the same check.
func TestConcurrentSGTContendedSerializable(t *testing.T) {
	const seed = 11
	templates := []*core.System{
		workload.Random(workload.RandomConfig{
			NumTxs: 24, MinSteps: 3, MaxSteps: 3, NumVars: 6, Hotspot: 1}, 7),
		workload.CrossPairs(8),
	}
	for _, template := range templates {
		jobs := template.NumTxs()
		for _, sched := range []online.Scheduler{
			online.NewConcurrentSGT(1), online.NewConcurrentSGTAborting(1),
			online.NewConcurrentSGT(4), online.NewConcurrentSGTAborting(4),
			online.NewMutexed(online.NewSGTAborting()),
		} {
			inst := Instantiate(template, jobs)
			m := runMerged(t, Config{System: inst, Sched: sched, Users: 8, Seed: seed, MaxRestarts: 10000})
			if m.Committed != jobs {
				t.Fatalf("%s on %s: committed %d of %d", sched.Name(), template.Name, m.Committed, jobs)
			}
			if err := check.CSR(inst, m.Output); err != nil {
				t.Errorf("%s on %s seed %d: %v", sched.Name(), template.Name, seed, err)
			}
		}
	}
}

// TestConcurrentOCCDisjointStateMatchesReplay: native OCC under the shard
// decision latches with real storage on the conflict-free multi-shard
// workload — the all-lock-free regime the epoch validation is built for —
// beside the single-threaded OCC under Mutexed.
func TestConcurrentOCCDisjointStateMatchesReplay(t *testing.T) {
	checkDisjointReplay(t, online.NewConcurrentOCC(1), online.NewConcurrentOCC(4), online.NewMutexed(online.NewOCC()))
}

// TestConcurrentOCCContendedSerializable: native OCC under real conflicts
// (hotspot workload, many users). Validation aborts restart until
// everything commits, and the committed schedule must be
// conflict-serializable — committed transactions are serialized by their
// validation epochs, exercised with genuinely concurrent validators.
// Output must also keep the shard logs' per-variable order (checkMerge).
// The single-threaded OCC under Mutexed is held to the same check. A
// failure prints the cycle and the seed.
func TestConcurrentOCCContendedSerializable(t *testing.T) {
	const jobs, seed = 24, 11
	template := workload.Random(workload.RandomConfig{
		NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 6, Hotspot: 1}, 7)
	for _, sched := range []online.ConcurrentScheduler{online.NewConcurrentOCC(4), online.NewMutexed(online.NewOCC())} {
		inst := Instantiate(template, jobs)
		m := runMerged(t, Config{System: inst, Sched: sched, Users: 8, Seed: seed, MaxRestarts: 10000})
		if m.Committed != jobs {
			t.Fatalf("%s: committed %d of %d", sched.Name(), m.Committed, jobs)
		}
		if err := check.CSR(inst, m.Output); err != nil {
			t.Errorf("%s seed %d: %v", sched.Name(), seed, err)
		}
	}
}
