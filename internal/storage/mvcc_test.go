package storage

// Multiversion storage tests: deterministic visibility of the version
// chains (snapshots read history, uncommitted versions stay invisible,
// the GC horizon respects pins) and the satellite race stress — readers
// pinning old snapshots while writers supersede versions and the GC
// recycles payloads underneath them. Any use-after-free of a recycled
// payload surfaces as a checksum panic, a race report, or a wrong value.

import (
	"fmt"
	"sync"
	"testing"

	"optcc/internal/core"
)

// commitInc runs one committed increment of v by tx.
func commitInc(t *testing.T, kv *KV, tx int, v core.Var) {
	t.Helper()
	if err := kv.ApplyStep(tx, incStep(v)); err != nil {
		t.Fatal(err)
	}
	kv.Commit(tx)
}

// TestVersionChainVisibility pins snapshots between commits and checks
// each one keeps reading its own cut of history: version begin/end
// stamps, the uncommitted mark, the pin-aware GC horizon and the
// version-collection counter, all through the public SnapshotBackend
// surface.
func TestVersionChainVisibility(t *testing.T) {
	kv := NewKV(Config{Shards: 2, ValueSize: 64, Recycle: true, SnapshotSlots: 8})
	kv.Reset(core.DB{"x": 0, "y": 10})

	if got := kv.SnapshotSlots(); got != 8 {
		t.Fatalf("SnapshotSlots = %d", got)
	}
	// The initial load is visible at snapshot 0.
	s0 := kv.SnapshotAcquire(0)
	if s0 != 0 {
		t.Fatalf("initial snapshot = %d", s0)
	}
	if got := kv.SnapshotRead(0, "x", s0); got != 0 {
		t.Fatalf("snap0 x = %d", got)
	}

	commitInc(t, kv, 1, "x") // commit ts 1: x=1
	// The old pin still reads x=0; a fresh pin reads x=1.
	if got := kv.SnapshotRead(0, "x", s0); got != 0 {
		t.Fatalf("snap0 x after commit = %d", got)
	}
	s1 := kv.SnapshotAcquire(1)
	if s1 != 1 {
		t.Fatalf("snapshot after first commit = %d", s1)
	}
	if got := kv.SnapshotRead(1, "x", s1); got != 1 {
		t.Fatalf("snap1 x = %d", got)
	}

	// An uncommitted write is invisible to snapshots and to other
	// transactions' Gets, but visible to its own writer.
	if err := kv.ApplyStep(2, incStep("x")); err != nil {
		t.Fatal(err)
	}
	if got := kv.SnapshotRead(1, "x", s1); got != 1 {
		t.Fatalf("snap1 x under uncommitted write = %d", got)
	}
	if got := kv.Get(3, "x"); got != 1 {
		t.Fatalf("other tx read under uncommitted write = %d", got)
	}
	if got := kv.Get(2, "x"); got != 2 {
		t.Fatalf("read-your-writes = %d", got)
	}
	kv.Rollback(2)
	if got := kv.Get(3, "x"); got != 1 {
		t.Fatalf("x after rollback = %d", got)
	}
	kv.Commit(3)

	// Commit ts 2 retires the x=1 version; the pin at snapshot 1 keeps it
	// alive, so nothing is collected yet.
	commitInc(t, kv, 2, "x") // x=2
	if got := kv.SnapshotRead(1, "x", s1); got != 1 {
		t.Fatalf("snap1 x after supersede = %d", got)
	}
	if got := kv.VersionsGCed(); got != 0 {
		t.Fatalf("collected %d versions under a pin", got)
	}

	// Releasing the old pins lets the next commit's GC pass collect every
	// version superseded at or below the new horizon — including the one
	// this very commit displaced, since no pin holds it.
	kv.SnapshotRelease(0)
	kv.SnapshotRelease(1)
	commitInc(t, kv, 1, "x") // commit ts 3: x=3, horizon now 3
	if got := kv.VersionsGCed(); got != 3 {
		t.Fatalf("collected %d versions after release, want 3", got)
	}
	s3 := kv.SnapshotAcquire(2)
	if got := kv.SnapshotRead(2, "x", s3); got != 3 {
		t.Fatalf("snap3 x = %d", got)
	}
	// y was never written: every snapshot reads the initial load.
	if got := kv.SnapshotRead(2, "y", s3); got != 10 {
		t.Fatalf("snap3 y = %d", got)
	}
	kv.SnapshotRelease(2)

	st := kv.Stats()
	if st.SnapshotReads != kv.SnapshotReads() || st.SnapshotReads == 0 {
		t.Fatalf("snapshot read accounting: %d vs %d", st.SnapshotReads, kv.SnapshotReads())
	}
	if st.VersionsGCed != 3 {
		t.Fatalf("stats VersionsGCed = %d", st.VersionsGCed)
	}
}

// TestSnapshotGCRace is the satellite -race stress: readers continuously
// pin snapshots and re-read every variable while per-variable writers
// commit supersessions that retire, collect and — with Recycle on —
// recycle the payloads of versions the readers may still be walking. The
// pin horizon must keep every visible version alive: a recycled payload
// reached through a pinned snapshot would fail its checksum (panic),
// trip the race detector, or return a torn value; and within one pinned
// snapshot two reads of the same variable must agree (repeatable read).
func TestSnapshotGCRace(t *testing.T) {
	const (
		writers = 6
		readers = 4
		rounds  = 300
	)
	kv := NewKV(Config{Shards: 2, ValueSize: 256, Recycle: true, SnapshotSlots: readers})
	init := core.DB{}
	vars := make([]core.Var, writers)
	for i := range vars {
		vars[i] = core.Var(fmt.Sprintf("w%d", i))
		init[vars[i]] = 0
	}
	kv.Reset(init)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := kv.ApplyStep(w, incStep(vars[w])); err != nil {
					panic(err)
				}
				kv.Commit(w)
			}
		}(w)
	}
	stop := make(chan struct{})
	var rdWg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rdWg.Add(1)
		go func(slot int) {
			defer rdWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := kv.SnapshotAcquire(slot)
				for _, v := range vars {
					a := kv.SnapshotRead(slot, v, snap)
					b := kv.SnapshotRead(slot, v, snap)
					if a != b {
						panic(fmt.Sprintf("snapshot %d: %s read %d then %d", snap, v, a, b))
					}
					if a < 0 || a > rounds {
						panic(fmt.Sprintf("snapshot %d: %s = %d out of range", snap, v, a))
					}
				}
				kv.SnapshotRelease(slot)
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	rdWg.Wait()

	// Collection only runs on commits, so a reader that held an early pin
	// through the whole write burst can legitimately leave everything
	// retired-but-uncollected. With every pin released, one more committed
	// round per variable must drain the backlog.
	for w, v := range vars {
		commitInc(t, kv, w, v)
	}
	for _, v := range vars {
		if got := kv.Get(0, v); got != rounds+1 {
			t.Fatalf("%s = %d, want %d", v, got, rounds+1)
		}
	}
	if gced := kv.VersionsGCed(); gced < writers*rounds {
		t.Fatalf("GC collected %d versions, want at least %d", gced, writers*rounds)
	}
}
