package online

import (
	"runtime"
	"sync"
	"testing"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/txtab"
	"optcc/internal/workload"
)

// nativeCases names every natively concurrent scheduler with a factory.
func nativeCases() []struct {
	name    string
	factory func() Scheduler
} {
	return []struct {
		name    string
		factory func() Scheduler
	}{
		{"cto", func() Scheduler { return NewConcurrentTO(4) }},
		{"cto-thomas", func() Scheduler { return NewConcurrentTOThomas(4) }},
		{"mv", func() Scheduler { return NewConcurrentMV(4) }},
		{"csgt", func() Scheduler { return NewConcurrentSGTAborting(4) }},
		{"csgt-delay", func() Scheduler { return NewConcurrentSGT(4) }},
		{"cocc", func() Scheduler { return NewConcurrentOCC(4) }},
		{"c2pl", func() Scheduler { return NewConcurrentStrict2PL(lockmgr.WoundWait, 4) }},
	}
}

// BenchmarkNativeTry is the scheduler layer's own microbenchmark: ns per
// Try of each native scheduler, driven from one goroutine with no runtime
// around it. The transactions run one after another, every step granted,
// each followed by its Commit (one Commit per three Trys is inside the
// timed loop); after the last one the scheduler is re-begun over the same
// system outside the timer. Two systems: a variable of its own per
// transaction (Disjoint(36000,3), bench's disjoint shape: every entry is
// touched by one transaction) and the contended 16-variable hotspot mix
// (hot entries, few variables). The steady state allocates nothing except
// cocc's copy-on-write writer-mark publish on each transaction's first
// write of a variable (two allocations per transaction; see
// internal/sim's hot-path ceilings).
func BenchmarkNativeTry(b *testing.B) {
	systems := []struct {
		name string
		sys  *core.System
	}{
		{"disjoint36k", workload.Disjoint(36000, 3)},
		{"hotspot16", workload.Random(workload.RandomConfig{
			NumTxs: 36000, MinSteps: 3, MaxSteps: 3, NumVars: 16, Hotspot: 1}, 1)},
	}
	for _, sc := range systems {
		for _, c := range nativeCases() {
			b.Run(sc.name+"/"+c.name, func(b *testing.B) {
				sys, s := sc.sys, c.factory()
				s.Begin(sys)
				tx, idx := 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if d := s.Try(core.StepID{Tx: tx, Idx: idx}); d != Grant {
						b.Fatalf("T%d%d: %v on a serial drive", tx+1, idx+1, d)
					}
					if idx++; idx < len(sys.Txs[tx].Steps) {
						continue
					}
					s.Commit(tx)
					if tx, idx = tx+1, 0; tx == sys.NumTxs() {
						b.StopTimer()
						s.Begin(sys)
						tx = 0
						b.StartTimer()
					}
				}
			})
		}
	}
}

// benchLatch is one shard's decision mutex, a line apart from the next
// shard's as in the engine.
type benchLatch struct {
	mu sync.Mutex
	_  [txtab.LineSize - 8]byte
}

// BenchmarkNativeTryParallel is BenchmarkNativeTry with the engine's
// concurrency around it: P = GOMAXPROCS goroutines, each Try (and the
// Wounded poll after it) under its step's shard mutex, as the engine's
// decision latch takes it, and each transaction's Commit on its own
// goroutine after its last step, outside the mutex. Goroutine g drives
// transactions g, g+P, g+2P, … of Disjoint(36000,3), so neighbouring
// transactions' scheduler state is written from different processors, as
// the engine's job cursor hands them out. Every step is granted: the
// variables are disjoint. b.N counts Trys; after each pass over the
// system the scheduler is re-begun outside the timer.
func BenchmarkNativeTryParallel(b *testing.B) {
	sys := workload.Disjoint(36000, 3)
	const steps = 3
	procs := runtime.GOMAXPROCS(0)
	ids, vars := sys.VarIDs(), sys.Vars()
	for _, c := range nativeCases() {
		b.Run("disjoint36k/"+c.name, func(b *testing.B) {
			s := c.factory().(ConcurrentScheduler)
			latches := make([]benchLatch, s.NumShards())
			latchOf := make([]*sync.Mutex, len(vars))
			for i, v := range vars {
				latchOf[i] = &latches[s.ShardOf(v)].mu
			}
			s.Begin(sys)
			b.ReportAllocs()
			b.ResetTimer()
			for left := b.N; left > 0; {
				m := min(sys.NumTxs(), (left+steps-1)/steps)
				left -= m * steps
				var wg sync.WaitGroup
				failed := make(chan string, procs) // each goroutine sends at most once
				for g := range procs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for tx := g; tx < m; tx += procs {
							for idx := range steps {
								mu := latchOf[ids[tx][idx]]
								mu.Lock()
								d := s.Try(core.StepID{Tx: tx, Idx: idx})
								s.Wounded()
								mu.Unlock()
								if d != Grant {
									failed <- d.String()
									return
								}
							}
							s.Commit(tx)
						}
					}()
				}
				wg.Wait()
				select {
				case d := <-failed:
					b.Fatalf("%s on a conflict-free parallel drive", d)
				default:
				}
				b.StopTimer()
				s.Begin(sys)
				b.StartTimer()
			}
		})
	}
}
