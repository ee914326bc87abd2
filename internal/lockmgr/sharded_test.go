package lockmgr

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"optcc/internal/core"
)

func TestShardedFastPathExclusive(t *testing.T) {
	tab := NewShardedTable(Detect, 4)
	tab.Register(1)
	if r := tab.Acquire(1, "x", Exclusive); r.Status != Granted {
		t.Fatalf("fast X: %v", r.Status)
	}
	if m, ok := tab.HeldBy("x")[1]; !ok || m != Exclusive {
		t.Fatalf("HeldBy[1] = %v %v", m, ok)
	}
	// Reentrant fast-path acquire is a no-op grant.
	if r := tab.Acquire(1, "x", Exclusive); r.Status != Granted {
		t.Fatalf("reentrant fast X: %v", r.Status)
	}
	if got := tab.HeldBy("x"); len(got) != 1 || got[1] != Exclusive {
		t.Fatalf("HeldBy = %v", got)
	}
	tab.Release(1, "x")
	if _, ok := tab.HeldBy("x")[1]; ok {
		t.Fatal("still held after fast release")
	}
	// The variable never saw contention: a second owner goes fast too.
	tab.Register(2)
	if r := tab.Acquire(2, "x", Exclusive); r.Status != Granted {
		t.Fatalf("fast X by 2: %v", r.Status)
	}
	if err := tab.Invariant(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedEscalationOnContention(t *testing.T) {
	tab := NewShardedTable(Detect, 4)
	tab.Register(1)
	tab.Register(2)
	if r := tab.Acquire(1, "x", Exclusive); r.Status != Granted {
		t.Fatalf("fast X: %v", r.Status)
	}
	// Conflicting request escalates x into the slow path; tx 1's fast hold
	// must be adopted so tx 2 queues behind it.
	if r := tab.Acquire(2, "x", Exclusive); r.Status != Waiting {
		t.Fatalf("contender: %v", r.Status)
	}
	if tab.QueueLen("x") != 1 {
		t.Fatalf("queue = %d", tab.QueueLen("x"))
	}
	wf := tab.WaitsFor()
	if len(wf[2]) != 1 || wf[2][0] != 1 {
		t.Fatalf("waits-for = %v", wf)
	}
	// tx 1's release now goes through the slow path and admits tx 2.
	grants := tab.ReleaseAll(1)
	if len(grants) != 1 || grants[0].Tx != 2 || grants[0].Var != "x" {
		t.Fatalf("grants = %v", grants)
	}
	if m, ok := tab.HeldBy("x")[2]; !ok || m != Exclusive {
		t.Fatalf("tx 2 should hold x, got %v %v", m, ok)
	}
	if err := tab.Invariant(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedSharedGoesSlowPath(t *testing.T) {
	tab := NewShardedTable(Detect, 2)
	tab.Register(1)
	tab.Register(2)
	if r := tab.Acquire(1, "y", Shared); r.Status != Granted {
		t.Fatalf("S: %v", r.Status)
	}
	if r := tab.Acquire(2, "y", Shared); r.Status != Granted {
		t.Fatalf("second S: %v", r.Status)
	}
	// Upgrade with another holder present must wait.
	if r := tab.Acquire(1, "y", Exclusive); r.Status != Waiting {
		t.Fatalf("upgrade: %v", r.Status)
	}
	tab.ReleaseAll(2)
	if m, ok := tab.HeldBy("y")[1]; !ok || m != Exclusive {
		t.Fatalf("upgrade after release: %v %v", m, ok)
	}
}

func TestShardedCrossShardDeadlockDetection(t *testing.T) {
	// x and y live in different shards of a many-shard table with high
	// probability; force distinct shards by probing names.
	tab := NewShardedTable(Detect, 8)
	varA, varB := core.Var("x"), core.Var("")
	for i := 0; ; i++ {
		v := core.Var(fmt.Sprintf("y%d", i))
		if tab.ShardOf(v) != tab.ShardOf(varA) {
			varB = v
			break
		}
	}
	tab.Register(1)
	tab.Register(2)
	tab.Acquire(1, varA, Exclusive)
	tab.Acquire(2, varB, Exclusive)
	if r := tab.Acquire(1, varB, Exclusive); r.Status != Waiting {
		t.Fatalf("1 on %s: %v", varB, r.Status)
	}
	if r := tab.Acquire(2, varA, Exclusive); r.Status != Waiting {
		t.Fatalf("2 on %s: %v", varA, r.Status)
	}
	cycle, found := tab.DetectDeadlock()
	if !found {
		t.Fatal("cross-shard deadlock not detected")
	}
	if len(cycle) != 2 {
		t.Fatalf("cycle = %v", cycle)
	}
	if v := tab.ChooseVictim(cycle); v != 2 {
		t.Fatalf("victim = %d (want youngest = 2)", v)
	}
}

func TestShardedWoundWaitAcrossShards(t *testing.T) {
	tab := NewShardedTable(WoundWait, 8)
	tab.Register(1) // older
	tab.Register(2) // younger
	// Younger holds; older's conflicting request wounds it — priorities
	// must be consistent even when the variables live in different shards.
	tab.Acquire(2, "w", Exclusive)
	r := tab.Acquire(1, "w", Exclusive)
	if r.Status != Waiting || len(r.Wounded) != 1 || r.Wounded[0] != 2 {
		t.Fatalf("wound-wait: %+v", r)
	}
	// Older holds; younger waits (no wound).
	tab.Acquire(1, "z", Exclusive)
	r = tab.Acquire(2, "z", Exclusive)
	if r.Status != Waiting || len(r.Wounded) != 0 {
		t.Fatalf("younger should wait quietly: %+v", r)
	}
}

// TestShardedTableConcurrentHammer drives the table from many goroutines
// (one per transaction, no-wait policy so no goroutine ever blocks another
// indefinitely) over a mix of private variables (fast path) and a hot set
// (escalation, queues, aborts). It runs twice. "unreserved" uses ids the
// table was not pre-sized for and undeclared variables (transaction state
// made on first use, concurrently; vartab's fallback), one private
// variable per transaction. "reserved-declared" uses reserved ids and
// declared variables and a fresh private variable per round, and
// transactions sometimes request Shared on the private variable a peer is
// using right now, so escalation adopts fast holds while their owners
// release them. Run with -race this is the concurrency safety net for the
// sharded substrate.
func TestShardedTableConcurrentHammer(t *testing.T) {
	const (
		txs    = 24
		rounds = 200
	)
	for _, reserved := range []bool{false, true} {
		name := "unreserved"
		if reserved {
			name = "reserved-declared"
		}
		t.Run(name, func(t *testing.T) {
			tab := NewShardedTable(NoWait, 4)
			priv := func(tx TxID, round int) core.Var {
				if !reserved {
					return core.Var(fmt.Sprintf("priv%d", tx))
				}
				return core.Var(fmt.Sprintf("priv%d.%d", tx, round))
			}
			var all []core.Var
			for tx := TxID(0); tx < txs; tx++ {
				for i := 0; i < rounds; i++ {
					all = append(all, priv(tx, i))
				}
			}
			for i := 0; i < 3; i++ {
				all = append(all, core.Var(fmt.Sprintf("hot%d", i)))
			}
			if reserved {
				tab.Reserve(txs)
				tab.Declare(all)
			}
			var cur [txs]atomic.Int64 // each transaction's current round
			var wg sync.WaitGroup
			for tx := TxID(0); tx < txs; tx++ {
				wg.Add(1)
				go func(tx TxID) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(tx) * 31))
					tab.Register(tx)
					for i := 0; i < rounds; i++ {
						cur[tx].Store(int64(i))
						vars := []core.Var{priv(tx, i)}
						modes := []Mode{Exclusive}
						if reserved && rng.Intn(4) == 0 {
							peer := TxID(rng.Intn(txs))
							vars = append(vars, priv(peer, int(cur[peer].Load())))
							modes = append(modes, Shared)
						}
						for k := 0; k < 2; k++ {
							vars = append(vars, core.Var(fmt.Sprintf("hot%d", rng.Intn(3))))
							if rng.Intn(2) == 0 {
								modes = append(modes, Shared)
							} else {
								modes = append(modes, Exclusive)
							}
						}
						for j, v := range vars {
							if r := tab.Acquire(tx, v, modes[j]); r.Status == AbortSelf {
								break
							}
						}
						tab.ReleaseAll(tx)
					}
					tab.Forget(tx)
				}(tx)
			}
			wg.Wait()
			if err := tab.Invariant(); err != nil {
				t.Fatal(err)
			}
			// Everything must be released, and no shard Table may keep
			// held or queued state for any transaction.
			for _, v := range all {
				if held := tab.HeldBy(v); len(held) != 0 {
					t.Fatalf("%s still held by %v", v, held)
				}
			}
			for i := range tab.shards {
				st := tab.shards[i].t
				if len(st.held) != 0 || len(st.waitQ) != 0 {
					t.Fatalf("shard %d keeps state: held %v, queued %v", i, st.held, st.waitQ)
				}
			}
		})
	}
}

func TestShardedRegisterKeepsBirth(t *testing.T) {
	tab := NewShardedTable(WaitDie, 2)
	tab.Register(5)
	tab.Register(9)
	tab.Register(5) // re-register must keep the original (older) birth
	tab.Acquire(9, "q", Exclusive)
	// Older tx 5 may wait on younger tx 9 under wait-die.
	if r := tab.Acquire(5, "q", Exclusive); r.Status != Waiting {
		t.Fatalf("older should wait: %v", r.Status)
	}
	// Younger tx 9 requesting against older holder dies.
	tab.Acquire(5, "p", Exclusive)
	tab.Register(11)
	if r := tab.Acquire(11, "p", Exclusive); r.Status != AbortSelf {
		t.Fatalf("younger should die: %v", r.Status)
	}
}

// TestShardedReservedLazyEntry follows a reserved transaction through the
// touched-shard set: fast-path locks leave it empty (commit takes no shard
// mutex), an escalation that adopts a fast hold enters the owner into that
// shard's Table, and Forget empties the set again.
func TestShardedReservedLazyEntry(t *testing.T) {
	tab := NewShardedTable(WoundWait, 4)
	tab.Reserve(2)
	tab.Declare([]core.Var{"x", "y", "x"})
	tab.Register(0) // older
	tab.Register(1)
	touched := func(tx TxID) uint64 { return tab.state(tx).touched[0].Load() }
	tab.Acquire(1, "x", Exclusive)
	tab.Acquire(1, "y", Exclusive)
	if got := touched(1); got != 0 {
		t.Fatalf("fast-path locks touched shards %b", got)
	}
	tab.ReleaseAll(1)
	tab.Forget(1)
	tab.Acquire(1, "x", Exclusive)
	// The older transaction's Shared request escalates x, adopts tx 1's
	// fast hold, and wounds it — which needs tx 1's birth in x's shard.
	r := tab.Acquire(0, "x", Shared)
	if r.Status != Waiting || len(r.Wounded) != 1 || r.Wounded[0] != 1 {
		t.Fatalf("wound-wait across adoption: %+v", r)
	}
	bit := uint64(1) << tab.ShardOf("x")
	if touched(0) != bit || touched(1) != bit {
		t.Fatalf("touched = %b, %b, want %b", touched(0), touched(1), bit)
	}
	if err := tab.Invariant(); err != nil {
		t.Fatal(err)
	}
	if g := tab.ReleaseAll(1); len(g) != 1 || g[0].Tx != 0 {
		t.Fatalf("grants = %v", g)
	}
	tab.Forget(1)
	tab.ReleaseAll(0)
	tab.Forget(0)
	if touched(0) != 0 || touched(1) != 0 {
		t.Fatalf("touched after Forget = %b, %b", touched(0), touched(1))
	}
	if err := tab.Invariant(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedTouchedSetBeyond64Shards covers touched-shard sets wider than
// one word: shared locks spread over a 130-shard table are all released
// by ReleaseAll, which visits only the touched shards.
func TestShardedTouchedSetBeyond64Shards(t *testing.T) {
	tab := NewShardedTable(Detect, 130)
	var vars []core.Var
	seen := map[int]bool{}
	for i := 0; len(seen) < 130; i++ {
		v := core.Var(fmt.Sprintf("v%d", i))
		if !seen[tab.ShardOf(v)] {
			seen[tab.ShardOf(v)] = true
			vars = append(vars, v)
		}
	}
	tab.Reserve(2)
	tab.Declare(vars)
	tab.Register(0)
	tab.Register(1)
	for _, v := range vars {
		if r := tab.Acquire(0, v, Shared); r.Status != Granted {
			t.Fatalf("S on %s: %v", v, r.Status)
		}
	}
	if err := tab.Invariant(); err != nil {
		t.Fatal(err)
	}
	last := vars[len(vars)-1]
	if r := tab.Acquire(1, last, Exclusive); r.Status != Waiting {
		t.Fatalf("X behind S on %s: %v", last, r.Status)
	}
	if g := tab.ReleaseAll(0); len(g) != 1 || g[0].Tx != 1 || g[0].Var != last {
		t.Fatalf("grants = %v", g)
	}
	tab.Forget(0)
	for _, v := range vars[:len(vars)-1] {
		if held := tab.HeldBy(v); len(held) != 0 {
			t.Fatalf("%s (shard %d) still held by %v", v, tab.ShardOf(v), held)
		}
	}
	for w := range tab.state(0).touched {
		if b := tab.state(0).touched[w].Load(); b != 0 {
			t.Fatalf("tx 0 touched word %d = %b after Forget", w, b)
		}
	}
	if err := tab.Invariant(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedResetReturnsToDeclaredState leaves a table with escalated
// and fast-held variables, a queued waiter, wounds, births, touched bits
// and an id beyond the Reserve range, then resets it: it must keep its
// slots and decide like a freshly declared table.
func TestShardedResetReturnsToDeclaredState(t *testing.T) {
	tab := NewShardedTable(WoundWait, 4)
	tab.Reserve(3)
	tab.Declare([]core.Var{"x", "y", "z"})
	for tx := TxID(0); tx < 3; tx++ {
		tab.Register(tx)
	}
	slot := tab.vars.Slot("x")
	tab.Acquire(1, "x", Exclusive)
	if r := tab.Acquire(0, "x", Shared); r.Status != Waiting || len(r.Wounded) != 1 {
		t.Fatalf("setup: wound-wait on x: %+v", r)
	}
	tab.Acquire(2, "y", Exclusive)
	tab.Acquire(7, "z", Shared) // beyond the Reserve range: its slot is made on first use
	tab.Acquire(7, "late", Exclusive)

	tab.Reset()
	if tab.vars.Slot("x") != slot {
		t.Fatal("Reset rebuilt the declared slots")
	}
	for _, v := range []core.Var{"x", "y", "z", "late"} {
		if st := tab.vars.Slot(v).state.Load(); st != 0 {
			t.Fatalf("%s: fast slot state %d after Reset, want 0 (free, fast regime)", v, st)
		}
		if h := tab.HeldBy(v); len(h) != 0 || tab.QueueLen(v) != 0 {
			t.Fatalf("%s: held %v, %d queued after Reset", v, h, tab.QueueLen(v))
		}
	}
	for tx := TxID(0); tx < 3; tx++ {
		if b := tab.birthOf(tx); b != 0 {
			t.Fatalf("tx %d keeps birth %d after Reset", tx, b)
		}
		if fs := &tab.state(tx).fast; fs.n != 0 || len(fs.over) != 0 {
			t.Fatalf("tx %d keeps %d fast holds after Reset", tx, fs.n)
		}
		if w := tab.state(tx).touched[0].Load(); w != 0 {
			t.Fatalf("tx %d keeps touched shards %b after Reset", tx, w)
		}
	}
	if fs := &tab.state(7).fast; tab.birthOf(7) != 0 || fs.n != 0 || tab.state(7).touched[0].Load() != 0 {
		t.Fatal("Reset kept tx 7's birth, fast holds or touched shards")
	}
	for i := range tab.shards {
		if st := tab.shards[i].t; len(st.held) != 0 || len(st.birth) != 0 || len(st.locks) != 0 {
			t.Fatalf("shard %d keeps state after Reset: held %v, births %v", i, st.held, st.birth)
		}
	}
	if len(tab.WaitsFor()) != 0 {
		t.Fatalf("waits-for after Reset: %v", tab.WaitsFor())
	}
	if c := tab.clock.Load(); c != 0 {
		t.Fatalf("birth clock at %d after Reset, want 0", c)
	}

	// Births restart at 1: tx 2, registered first now, is the oldest.
	tab.Register(2)
	tab.Register(0)
	if r := tab.Acquire(0, "x", Exclusive); r.Status != Granted || tab.vars.Slot("x").state.Load() != encTx(0) {
		t.Fatalf("x after Reset: %+v, slot %d; want a fast-path grant", r, tab.vars.Slot("x").state.Load())
	}
	if r := tab.Acquire(2, "x", Exclusive); r.Status != Waiting || len(r.Wounded) != 1 || r.Wounded[0] != 0 {
		t.Fatalf("older tx 2 against tx 0 after Reset: %+v, want a wound", r)
	}
	if err := tab.Invariant(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedAcquireAtMatchesAcquire drives AcquireAt — the by-number path
// whose slot knows its name and shard — through the fast path, a
// reentrant grant, the slow path (a shared lock, then a conflicting
// request that escalates a fast hold) and ReleaseAll, and checks each
// state against the name-keyed view.
func TestShardedAcquireAtMatchesAcquire(t *testing.T) {
	vars := []core.Var{"a", "b", "c", "d"}
	tab := NewShardedTable(WoundWait, 4)
	tab.Reserve(2)
	tab.Declare(vars)
	tab.Register(0)
	tab.Register(1)
	for i, v := range vars {
		if sl := tab.vars.At(int32(i)); sl != tab.vars.Slot(v) || sl.v != v || int(sl.shard) != tab.ShardOf(v) {
			t.Fatalf("slot %d: name %q shard %d, want %q %d", i, sl.v, sl.shard, v, tab.ShardOf(v))
		}
	}
	if r := tab.AcquireAt(0, 0, Exclusive); r.Status != Granted {
		t.Fatalf("fast X on a: %+v", r)
	}
	if r := tab.AcquireAt(0, 0, Shared); r.Status != Granted {
		t.Fatalf("reentrant S on a: %+v", r)
	}
	if r := tab.AcquireAt(0, 1, Shared); r.Status != Granted {
		t.Fatalf("slow S on b: %+v", r)
	}
	if m, ok := tab.HeldBy("b")[0]; !ok || m != Shared || tab.vars.At(1).state.Load() != escalated {
		t.Fatalf("b: held %v, slot state %d", tab.HeldBy("b"), tab.vars.At(1).state.Load())
	}
	// The younger tx 1 waits for a: the fast hold is adopted into a's shard.
	if r := tab.AcquireAt(1, 0, Exclusive); r.Status != Waiting {
		t.Fatalf("conflicting X on a: %+v", r)
	}
	if tab.QueueLen("a") != 1 {
		t.Fatalf("a: %d queued, want 1", tab.QueueLen("a"))
	}
	if err := tab.Invariant(); err != nil {
		t.Fatal(err)
	}
	grants := tab.ReleaseAll(0)
	if len(grants) != 1 || grants[0].Tx != 1 || grants[0].Var != "a" {
		t.Fatalf("ReleaseAll(0) granted %+v, want tx 1 on a", grants)
	}
	tab.Forget(0)
	if r := tab.AcquireAt(1, 2, Exclusive); r.Status != Granted {
		t.Fatalf("fast X on c: %+v", r)
	}
	tab.ReleaseAll(1)
	for _, v := range vars {
		if h := tab.HeldBy(v); len(h) != 0 {
			t.Fatalf("%s still held by %v", v, h)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		tab.AcquireAt(0, 3, Exclusive)
		tab.ReleaseAll(0)
	}); n != 0 {
		t.Fatalf("an uncontended AcquireAt/ReleaseAll cycle allocates %.0f times", n)
	}
}
