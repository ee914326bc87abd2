package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/report"
	"optcc/internal/storage"
	"optcc/internal/tstable"
)

// Probes time one layer's public functions directly: single-goroutine
// loops of a fixed operation count, so the counts repeat exactly and only
// the time per operation varies. Each probe runs probeReps times and
// reports the median.

const (
	probeOps  = 4096 // operations per timed loop
	probeReps = 5
)

var probeSink int64 // keeps probe results alive

func probeVars(n int) []core.Var {
	vs := make([]core.Var, n)
	for i := range vs {
		vs[i] = core.Var(fmt.Sprintf("p%d", i))
	}
	return vs
}

// nsPerOp runs setup (untimed) then body (timed) probeReps times and
// returns the median time of one of body's ops operations.
func nsPerOp(ops int, setup, body func()) float64 {
	xs := make([]float64, probeReps)
	for r := range xs {
		if setup != nil {
			setup()
		}
		start := time.Now()
		body()
		xs[r] = float64(time.Since(start)) / float64(ops)
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

func incStep(v core.Var) core.Step {
	return core.Step{Var: v, Kind: core.Update, Fn: func(l []core.Value) core.Value { return l[len(l)-1] + 1 }}
}

func zeroDB(vars []core.Var) core.DB {
	db := make(core.DB, len(vars))
	for _, v := range vars {
		db[v] = 0
	}
	return db
}

// runProbes returns every probe metric by name. dir is scratch space for
// the WAL append probe.
func runProbes(dir string) (map[string]float64, error) {
	out := map[string]float64{}
	vars := probeVars(probeOps)

	// lockmgr: the lock-free fast path — one exclusive lock per fresh
	// transaction — and the release sweep that follows it.
	var lt *lockmgr.ShardedTable
	freshTable := func() {
		lt = lockmgr.NewShardedTable(lockmgr.WoundWait, 4)
		lt.Reserve(probeOps)
		for i := range vars {
			lt.Register(lockmgr.TxID(i))
		}
	}
	acquireAll := func() {
		for i, v := range vars {
			probeSink += int64(lt.Acquire(lockmgr.TxID(i), v, lockmgr.Exclusive).Status)
		}
	}
	out["lockmgr.acquire_fast_ns"] = nsPerOp(probeOps, freshTable, acquireAll)
	out["lockmgr.release_all_ns"] = nsPerOp(probeOps, func() { freshTable(); acquireAll() }, func() {
		for i := range vars {
			probeSink += int64(len(lt.ReleaseAll(lockmgr.TxID(i))))
		}
	})
	// The slow path: every variable is held by an older transaction, so a
	// younger requester escalates the slot, takes the shard mutex and
	// queues behind the holder.
	out["lockmgr.acquire_conflict_ns"] = nsPerOp(probeOps, func() {
		lt = lockmgr.NewShardedTable(lockmgr.WoundWait, 4)
		lt.Reserve(2 * probeOps)
		for i := 0; i < 2*probeOps; i++ {
			lt.Register(lockmgr.TxID(i))
		}
		acquireAll()
	}, func() {
		for i, v := range vars {
			probeSink += int64(lt.Acquire(lockmgr.TxID(probeOps+i), v, lockmgr.Exclusive).Status)
		}
	})
	reqs := make([]lockmgr.BatchReq, 8)
	var results []lockmgr.Result
	out["lockmgr.acquire_batch_ns_per_req"] = nsPerOp(probeOps, freshTable, func() {
		for i := 0; i < probeOps; i += len(reqs) {
			for k := range reqs {
				reqs[k] = lockmgr.BatchReq{Tx: lockmgr.TxID(i + k), Var: vars[i+k], Mode: lockmgr.Exclusive}
			}
			results = lt.AcquireBatchInto(results, reqs)
		}
	})
	// Deadlock detection over 64 two-transaction cycles: i holds a and
	// waits for b, its partner holds b and waits for a.
	const pairs = 64
	det := lockmgr.NewShardedTable(lockmgr.Detect, 4)
	for p := 0; p < pairs; p++ {
		a, b := vars[2*p], vars[2*p+1]
		t1, t2 := lockmgr.TxID(2*p), lockmgr.TxID(2*p+1)
		det.Acquire(t1, a, lockmgr.Exclusive)
		det.Acquire(t2, b, lockmgr.Exclusive)
		det.Acquire(t1, b, lockmgr.Exclusive)
		det.Acquire(t2, a, lockmgr.Exclusive)
	}
	const detectOps = 64
	found := true
	out["lockmgr.detect_deadlock_ns"] = nsPerOp(detectOps, nil, func() {
		for i := 0; i < detectOps; i++ {
			_, ok := det.DetectDeadlock()
			found = found && ok
		}
	})
	if !found {
		return nil, fmt.Errorf("probe: lockmgr.DetectDeadlock missed a two-transaction cycle")
	}

	// tstable: the immutable-map entry lookup and the CAS raise, with a
	// rising timestamp so every raise stores.
	tt := tstable.New(vars, 4)
	out["tstable.entry_lookup_ns"] = nsPerOp(probeOps, nil, func() {
		for _, v := range vars {
			probeSink += tt.Entry(v).ReadTS()
		}
	})
	e := tt.Entry(vars[0])
	ts := int64(0)
	out["tstable.max_raise_ns"] = nsPerOp(probeOps, nil, func() {
		for i := 0; i < probeOps; i++ {
			ts++
			e.MaxRead(ts)
		}
	})

	// storage.KV: one update step per fresh transaction at both record
	// sizes (commits are untimed), and pinned snapshot reads.
	for _, size := range []struct {
		name  string
		bytes int
	}{{"storage.kv.apply_256_ns", 256}, {"storage.kv.apply_4k_ns", 4096}} {
		kv := storage.NewKV(storage.Config{Shards: 4, ValueSize: size.bytes, Recycle: true})
		kv.Reset(zeroDB(vars))
		var err error
		out[size.name] = nsPerOp(probeOps, func() {
			for i := range vars {
				kv.Commit(i)
			}
		}, func() {
			for i, v := range vars {
				if e := kv.ApplyStep(i, incStep(v)); e != nil {
					err = e
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("probe: %s: %w", size.name, err)
		}
		if size.bytes == 256 {
			out["storage.kv.snapshot_read_ns"] = nsPerOp(probeOps, func() {
				for i := range vars {
					kv.Commit(i)
				}
			}, func() {
				snap := kv.SnapshotAcquire(0)
				for _, v := range vars {
					probeSink += int64(kv.SnapshotRead(0, v, snap))
				}
				kv.SnapshotRelease(0)
			})
		}
	}

	// storage.Disk: the eager update path appends one WAL record per
	// step; no GroupSync is called, so no fsync is in the loop.
	disk, err := storage.NewDisk(storage.Config{Dir: dir, FS: modelDevice{}, Fsync: storage.FsyncGroup, SegmentBytes: 8 << 20})
	if err != nil {
		return nil, fmt.Errorf("probe: disk: %w", err)
	}
	defer os.RemoveAll(dir)
	defer disk.Close()
	disk.Reset(zeroDB(vars))
	out["storage.disk.append_ns"] = nsPerOp(probeOps, func() {
		for i := range vars {
			disk.Commit(i)
		}
	}, func() {
		for i, v := range vars {
			if e := disk.ApplyStep(i, incStep(v)); e != nil {
				err = e
			}
		}
	})
	if err == nil {
		err = disk.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("probe: storage.disk.append_ns: %w", err)
	}

	// report: one presized histogram sample, the cost sim pays per request.
	var h report.Histogram
	out["report.hist_add_ns"] = nsPerOp(probeOps, func() { h = report.Histogram{}; h.Grow(probeOps) }, func() {
		for i := 0; i < probeOps; i++ {
			h.Add(float64(i))
		}
	})
	return out, nil
}
