package sim

import (
	"runtime"
	"testing"
	"time"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// BenchmarkRunSetup is the run set-up layer's own microbenchmark: it
// reports what one sim.Run spends outside its timed region — wall time
// minus Metrics.Elapsed: validation, scheduler Begin, backend Reset, the
// per-run buffers and the end-of-run projection — as setup-ns/op. Every
// iteration re-runs one System, as a caller measuring rounds over a fixed
// job set does; a first untimed run builds what is kept per System (its
// variable set and initial state, the scheduler's tables, the backend's
// store), so the figure is the per-run cost. A collection before each run
// keeps the previous run's garbage out of it.
func BenchmarkRunSetup(b *testing.B) {
	cases := []struct {
		name    string
		sys     func() *core.System
		sched   func() online.Scheduler
		backend func(b *testing.B) storage.Backend
	}{
		{"disjoint36k-cto-noop",
			func() *core.System { return workload.Disjoint(36000, 3) },
			func() online.Scheduler { return online.NewConcurrentTO(4) },
			func(*testing.B) storage.Backend { return storage.NewNoop() }},
		{"disjoint18k-2pl-disk",
			func() *core.System { return workload.Disjoint(18000, 3) },
			func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4) },
			func(b *testing.B) storage.Backend {
				d, err := storage.NewDisk(storage.Config{Dir: b.TempDir(), FS: freeSyncFS{}, Fsync: storage.FsyncGroup})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { d.Close() })
				return d
			}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := Config{System: c.sys(), Sched: c.sched(), Backend: c.backend(b), Users: 4, Seed: 1}
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
			var setup time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runtime.GC()
				start := time.Now()
				m, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				setup += time.Since(start) - m.Elapsed
			}
			b.ReportMetric(float64(setup.Nanoseconds())/float64(b.N), "setup-ns/op")
		})
	}
}
