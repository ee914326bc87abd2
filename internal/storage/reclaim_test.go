package storage

// Version reclamation: a version that leaves its chain goes back to its
// shard's freelist, header and payload, only once no reader can hold it —
// no pin, a snapshot's or a live transaction's, below its horizon. The
// deterministic tests hold each case on its own; the race test runs
// read-committed readers against committing writers with no lock between
// them, the case a store that pins only snapshots gets wrong.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"optcc/internal/core"
)

// freeVersions is the number of versions on kv's freelists.
func freeVersions(kv *KV) int {
	n := 0
	for i := range kv.shards {
		kv.shards[i].mu.Lock()
		n += kv.shards[i].nfree
		kv.shards[i].mu.Unlock()
	}
	return n
}

// onFreelist reports whether ver is on one of kv's freelists.
func onFreelist(kv *KV, ver *version) bool {
	for i := range kv.shards {
		sh := &kv.shards[i]
		sh.mu.Lock()
		for f := sh.free; f != nil; f = f.next.Load() {
			if f == ver {
				sh.mu.Unlock()
				return true
			}
		}
		sh.mu.Unlock()
	}
	return false
}

// accounting checks that kv's versions are where they should be: none on a
// freelist twice, none both free and reachable from a chain head or both
// free and retired. With whole set, every version the shards carved is
// reachable from a head or free, and nothing waits retired.
func accounting(t *testing.T, kv *KV, whole bool) {
	t.Helper()
	free := map[*version]bool{}
	carved := 0
	for i := range kv.shards {
		sh := &kv.shards[i]
		carved += sh.carved
		for f := sh.free; f != nil; f = f.next.Load() {
			if free[f] {
				t.Fatal("a version is on a freelist twice")
			}
			free[f] = true
		}
		for _, r := range sh.retired {
			if free[r.ver] {
				t.Fatal("a retired version is already free")
			}
		}
		if whole && len(sh.retired) != 0 {
			t.Fatalf("shard %d has %d retired versions waiting", i, len(sh.retired))
		}
	}
	live := 0
	kv.vars.Range(func(v core.Var, ch *chain) bool {
		for ver := ch.head.Load(); ver != nil; ver = ver.next.Load() {
			if free[ver] {
				t.Fatalf("a free version is linked in %s's chain", v)
			}
			live++
		}
		return true
	})
	if whole && live+len(free) != carved {
		t.Fatalf("%d linked + %d free versions, %d carved", live, len(free), carved)
	}
}

// TestReclaimNonStrictWritesComeBack: the versions a non-strict
// interleaving leaves behind come back without a Reset: a write another
// transaction wrote over while it was uncommitted once its own writer
// commits, a rolled-back write buried under another transaction's write
// once that write commits, and the version below such a write with it.
func TestReclaimNonStrictWritesComeBack(t *testing.T) {
	kv := NewKV(Config{Shards: 1, ValueSize: 64})
	kv.Reset(core.DB{"x": 0, "y": 0})
	ch := kv.vars.Lookup("x")
	drain := func(tx int) { // commits elsewhere in the shard collect
		commitInc(t, kv, tx, "y")
		commitInc(t, kv, tx+1, "y")
	}

	v0 := ch.head.Load()
	mustApply(t, kv, 1, upd("x", inc)) // v1 over v0
	v1 := ch.head.Load()
	mustApply(t, kv, 2, upd("x", inc)) // v2 over the uncommitted v1
	kv.Commit(2)
	if onFreelist(kv, v1) {
		t.Fatal("a version was freed while its writer was live")
	}
	kv.Commit(1)
	drain(10)
	if !onFreelist(kv, v1) || !onFreelist(kv, v0) {
		t.Fatal("a write committed after the write over it did not come back, or the version under it")
	}
	accounting(t, kv, true)

	v2 := ch.head.Load()
	mustApply(t, kv, 3, upd("x", inc)) // v3 over v2
	v3 := ch.head.Load()
	mustApply(t, kv, 4, upd("x", inc)) // v4 over v3
	kv.Rollback(3)                     // v3 stays buried under v4
	if got := kv.Get(5, "x"); got != 1 {
		t.Fatalf("x = %d with a buried rollback, want the committed 1", got)
	}
	kv.Commit(5)
	kv.Commit(4)
	drain(20)
	if !onFreelist(kv, v3) || !onFreelist(kv, v2) {
		t.Fatal("a buried rollback did not come back, or the version under it")
	}
	accounting(t, kv, true)

	v4 := ch.head.Load()
	mustApply(t, kv, 6, upd("x", inc)) // v6 over v4
	v6 := ch.head.Load()
	mustApply(t, kv, 7, upd("x", inc)) // v7 over the uncommitted v6
	kv.Commit(7)
	kv.Rollback(6) // v6 buried under a committed write
	drain(30)
	if !onFreelist(kv, v6) || !onFreelist(kv, v4) {
		t.Fatal("a write rolled back under a committed one did not come back, or the version under it")
	}
	accounting(t, kv, true)
	if got := kv.Get(40, "x"); got != 3 {
		t.Fatalf("x = %d, want 3", got)
	}
}

// TestReclaimNonStrictRoundsAccountForEveryVersion: random non-strict
// rounds — transactions writing over each other's uncommitted versions,
// committing and rolling back in any order, beside pinned snapshots —
// never free a version twice or while it is linked, with a pin for every
// live transaction or with most of them overflowing four pins. A strict
// write and commit on every variable afterwards brings every version back;
// a Reset on its own always does. The rounds then carve nothing new.
func TestReclaimNonStrictRoundsAccountForEveryVersion(t *testing.T) {
	for _, pins := range []int{4, 64} {
		reclaimNonStrictRounds(t, pins)
	}
}

func reclaimNonStrictRounds(t *testing.T, pins int) {
	vars := []core.Var{"a", "b", "c", "d", "e"}
	init := core.DB{}
	for _, v := range vars {
		init[v] = 0
	}
	kv := NewKV(Config{Shards: 2, ValueSize: 32, SnapshotSlots: pins})
	round := func(seed int64, drain bool) {
		rng := rand.New(rand.NewSource(seed))
		kv.Reset(init)
		const txs = 40
		left := make([]int, txs) // steps each transaction has yet to take
		for tx := range left {
			left[tx] = 1 + rng.Intn(3)
		}
		live := txs
		for live > 0 {
			tx := rng.Intn(txs)
			switch {
			case left[tx] > 0:
				mustApply(t, kv, tx, upd(vars[rng.Intn(len(vars))], inc))
				left[tx]--
				if left[tx] > 0 {
					continue
				}
				left[tx] = -1 // written out: finish it later
			case left[tx] == -1:
				if rng.Intn(3) == 0 {
					kv.Rollback(tx)
				} else {
					kv.Commit(tx)
				}
				left[tx] = -2
				live--
			default:
				continue
			}
			if slot := rng.Intn(8); slot < 4 {
				if kv.slots[slot].ts.Load() < 0 {
					kv.SnapshotRead(slot, vars[rng.Intn(len(vars))], kv.SnapshotAcquire(slot))
				} else {
					kv.SnapshotRelease(slot)
				}
			}
			accounting(t, kv, false)
		}
		for slot := 0; slot < 4; slot++ {
			kv.SnapshotRelease(slot)
		}
		if drain {
			for i, v := range vars {
				commitInc(t, kv, txs+2*i, v)
				commitInc(t, kv, txs+2*i+1, v)
			}
			accounting(t, kv, true)
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		round(seed, seed%2 == 0)
		kv.Reset(init)
		accounting(t, kv, true)
	}
	carved := kv.shards[0].carved + kv.shards[1].carved
	for seed := int64(0); seed < 200; seed++ {
		round(seed, seed%2 == 0)
	}
	if got := kv.shards[0].carved + kv.shards[1].carved; got != carved {
		t.Fatalf("%d pins: repeated rounds carved %d versions, want the %d the first ones did", pins, got, carved)
	}
}

// TestReclaimOverflowHoldsBack: a transaction that finds every pin taken
// holds back reclamation in every shard, unlinking too, until it ends.
func TestReclaimOverflowHoldsBack(t *testing.T) {
	kv := NewKV(Config{Shards: 1, ValueSize: 64, SnapshotSlots: 1})
	kv.Reset(core.DB{"x": 0, "y": 0})
	ch := kv.vars.Lookup("x")
	old := ch.head.Load()
	kv.Get(8, "y") // transaction 8 holds the only pin
	kv.Get(9, "x")
	if kv.txs.Lookup(9).pin >= 0 {
		t.Fatal("a second transaction took the only pin")
	}
	kv.Commit(8)
	commitInc(t, kv, 1, "x")
	if ch.head.Load().next.Load() != old || onFreelist(kv, old) {
		t.Fatal("a version was unlinked or freed under a transaction without a pin")
	}
	kv.Commit(9)
	commitInc(t, kv, 2, "y")
	if !onFreelist(kv, old) {
		t.Fatal("the superseded version was not freed once the transaction ended")
	}
}

// TestReclaimWaitsForLiveTransactions: a live transaction holds what it
// may reach. Once it has read x, the version a later commit writes over x
// stays linked and off the freelist, though no snapshot is pinned; its
// Commit releases it, and so does its Rollback. A commit with no other
// reader live frees what it wrote over at once.
func TestReclaimWaitsForLiveTransactions(t *testing.T) {
	for _, end := range []string{"commit", "rollback"} {
		kv := NewKV(Config{Shards: 1, ValueSize: 64})
		kv.Reset(core.DB{"x": 0, "y": 0})
		ch := kv.vars.Lookup("x")
		old := ch.head.Load()

		if got := kv.Get(9, "x"); got != 0 {
			t.Fatalf("x = %d, want 0", got)
		}
		commitInc(t, kv, 1, "x")
		if ch.head.Load().next.Load() != old || onFreelist(kv, old) {
			t.Fatalf("%s: a version a live transaction may reach was unlinked or freed", end)
		}
		if end == "commit" {
			kv.Commit(9)
		} else {
			kv.Rollback(9)
		}
		commitInc(t, kv, 2, "y")
		if ch.head.Load().next.Load() != nil || !onFreelist(kv, old) {
			t.Fatalf("%s: the superseded version was not freed once the transaction ended", end)
		}
		mid := ch.head.Load()
		commitInc(t, kv, 3, "x")
		if !onFreelist(kv, mid) {
			t.Fatalf("%s: a commit with no reader live kept what it wrote over", end)
		}
		accounting(t, kv, true)
		if got := kv.Get(4, "x"); got != 2 {
			t.Fatalf("x = %d, want 2", got)
		}
	}
}

// TestReclaimRolledBackWaitsForPins: a rolled-back write may have been
// skipped by a pinned snapshot reader that now stands on it, so it is
// freed only once every pin is newer than the clock at its unlink; the
// next write then takes a freed version instead of carving one.
func TestReclaimRolledBackWaitsForPins(t *testing.T) {
	kv := NewKV(Config{Shards: 1, ValueSize: 64, SnapshotSlots: 2})
	kv.Reset(core.DB{"x": 0, "y": 0})
	snap := kv.SnapshotAcquire(0)
	mustApply(t, kv, 1, upd("x", inc))
	dying := kv.vars.Lookup("x").head.Load()
	kv.Rollback(1)
	commitInc(t, kv, 2, "y")
	if onFreelist(kv, dying) {
		t.Fatal("a rolled-back write was freed under a pin taken before its unlink")
	}
	if got := kv.SnapshotRead(0, "x", snap); got != 0 {
		t.Fatalf("pinned x = %d", got)
	}
	kv.SnapshotRelease(0)
	commitInc(t, kv, 3, "y")
	if !onFreelist(kv, dying) {
		t.Fatal("the rolled-back write was not freed once no pin could hold it")
	}
	free := freeVersions(kv)
	mustApply(t, kv, 4, upd("x", inc))
	if got := freeVersions(kv); got != free-1 {
		t.Fatalf("a write left %d free versions of %d, want one taken", got, free)
	}
	kv.Commit(4)
	if got := kv.Get(5, "x"); got != 1 {
		t.Fatalf("x = %d, want 1", got)
	}
}

// TestReclaimBuriedRollbackStays: under a non-strict interleaving a write
// can land on another transaction's uncommitted one. When the lower one
// rolls back, it stays in the chain, skipped by every reader (its own
// restart included), instead of relinking what lies below under the
// upper write; nothing is freed twice and the upper write's commit reads
// through.
func TestReclaimBuriedRollbackStays(t *testing.T) {
	kv := NewKV(Config{Shards: 1, ValueSize: 64})
	kv.Reset(core.DB{"x": 10})
	mustApply(t, kv, 1, upd("x", inc)) // x=11, uncommitted
	mustApply(t, kv, 2, upd("x", inc)) // reads the committed 10: x=11 over it
	kv.Rollback(1)
	if got := kv.Get(1, "x"); got != 10 {
		t.Fatalf("the rolled-back transaction's restart reads %d, want the committed 10", got)
	}
	kv.Commit(2)
	for tx := 3; tx < 8; tx++ {
		commitInc(t, kv, tx, "x")
	}
	if got := kv.Get(9, "x"); got != 16 {
		t.Fatalf("x = %d, want 16", got)
	}
	kv.Reset(core.DB{"x": 10})
	if got := kv.Get(9, "x"); got != 10 {
		t.Fatalf("x after Reset = %d", got)
	}
}

// TestKVSteadyStateAllocatesNothing: a round of commits, rollbacks and
// pinned snapshot reads between two Resets allocates nothing once the
// store has carved the versions a round needs.
func TestKVSteadyStateAllocatesNothing(t *testing.T) {
	const size = 4096
	init := resetInit()
	kv := NewKV(Config{Shards: 2, ValueSize: size, SnapshotSlots: 2})
	vars := make([]core.Var, 0, len(init))
	for v := range init {
		vars = append(vars, v)
	}
	steps := make([]core.Step, len(vars))
	for i, v := range vars {
		steps[i] = incStep(v)
	}
	round := func() {
		kv.Reset(init)
		for tx := 0; tx < 200; tx++ {
			if tx%10 == 0 {
				snap := kv.SnapshotAcquire(tx / 10 % 2)
				kv.SnapshotRead(tx/10%2, vars[tx%len(vars)], snap)
			}
			if tx%10 == 5 {
				kv.SnapshotRelease(tx / 10 % 2)
			}
			if err := kv.ApplyStep(tx, steps[tx%len(steps)]); err != nil {
				panic(err)
			}
			if tx%7 == 3 {
				kv.Rollback(tx)
			} else {
				kv.Commit(tx)
			}
		}
		kv.SnapshotRelease(0)
		kv.SnapshotRelease(1)
	}
	round()
	round()
	if n := testing.AllocsPerRun(5, round); n != 0 {
		t.Fatalf("a warm round allocates %.0f times", n)
	}
	if free := freeVersions(kv); free == 0 {
		t.Fatal("nothing came back to the freelists")
	}
}

// TestReclaimUnpinnedReadersRace: Gets outside any snapshot pin checksum
// every variable with no lock while one writer per variable commits (and
// now and then rolls back) superseding writes, all in one shard, so every
// commit's reclamation hands versions straight to another writer's next
// Put. Each reader ends its transaction after every pass, so reclamation
// goes on, and yields after it. A version freed under a reader shows up
// as a race report, a checksum panic, or a value outside the variable's
// own range (a header reused for another variable).
func TestReclaimUnpinnedReadersRace(t *testing.T) {
	const (
		writers = 6
		readers = 3
		rounds  = 300
		stride  = 1 << 20 // variable i's values start at i*stride
	)
	kv := NewKV(Config{Shards: 1, ValueSize: 256})
	init := core.DB{}
	vars := make([]core.Var, writers)
	for i := range vars {
		vars[i] = core.Var(fmt.Sprintf("u%d", i))
		init[vars[i]] = core.Value(i * stride)
	}
	kv.Reset(init)

	var wg sync.WaitGroup
	commits := make([]int, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := kv.ApplyStep(w, incStep(vars[w])); err != nil {
					panic(err)
				}
				if r%5 == 4 {
					kv.Rollback(w)
					continue
				}
				kv.Commit(w)
				commits[w]++
			}
		}(w)
	}
	stop := make(chan struct{})
	var rdWg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rdWg.Add(1)
		go func(r int) {
			defer rdWg.Done()
			last := make([]core.Value, writers)
			for i := range last {
				last[i] = core.Value(i * stride)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, v := range vars {
					got := kv.Get(writers+r, v)
					if got < last[i] || got > core.Value(i*stride+rounds) {
						panic(fmt.Sprintf("reader %d: %s read %d after %d", r, v, got, last[i]))
					}
					last[i] = got
				}
				kv.Commit(writers + r)
				// A reader descheduled while pinned holds back every
				// shard's reclamation. Yield only unpinned, so on one
				// processor the writers do not run out their rounds
				// inside one reader's pin.
				runtime.Gosched()
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	rdWg.Wait()

	for i, v := range vars {
		if got, want := kv.Get(0, v), core.Value(i*stride+commits[i]); got != want {
			t.Fatalf("%s = %d, want %d", v, got, want)
		}
	}
	if kv.VersionsGCed() == 0 {
		t.Fatal("no superseded version was collected")
	}
}
