// Package workload provides the canonical transaction systems of the paper
// and generators for synthetic ones.
//
// Canonical systems: the Section 2 banking example (transactions T1–T3 on
// accounts A, B with audit sum S and counter C), the Figure 1 system, the
// Theorem 2 adversary, and the small conflict patterns (cross, chain, lost
// update) used across experiments. Generators: seeded random systems with
// tunable contention, a hierarchical (tree) access workload for the
// Section 5.5 structured-data experiments, and the engine-stress shapes
// (hot-shard, disjoint, cross-shard pairs) the runtime experiments sweep.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
)

func last(l []core.Value) core.Value { return l[len(l)-1] }

// Banking returns the Section 2 example: V = {A, B, S, C}, format (3,2,4).
//
//	T1 transfers $100 from A to B if A has enough funds and B is below 100.
//	T2 withdraws $50 from B and increments the counter C if B has funds.
//	T3 audits: S ← A + B and C ← 0.
//
// The integrity constraints are A ≥ 0, B ≥ 0 and A + B = S − 50·C (every
// withdrawal since the last audit is accounted in C).
func Banking() *core.System {
	sys := &core.System{
		Name: "banking",
		Txs: []core.Transaction{
			{Name: "T1", Steps: []core.Step{
				{Var: "A", Kind: core.Read}, // t11 ← A
				{Var: "B", Kind: core.Update, Fn: func(l []core.Value) core.Value {
					if l[0] >= 100 && l[1] < 100 {
						return l[1] + 100
					}
					return l[1]
				}},
				{Var: "A", Kind: core.Update, Fn: func(l []core.Value) core.Value {
					if l[0] >= 100 && l[1] < 100 {
						return l[0] - 100
					}
					return l[2]
				}},
			}},
			{Name: "T2", Steps: []core.Step{
				{Var: "B", Kind: core.Update, Fn: func(l []core.Value) core.Value {
					if l[0] >= 50 {
						return l[0] - 50
					}
					return l[0]
				}},
				{Var: "C", Kind: core.Update, Fn: func(l []core.Value) core.Value {
					if l[0] >= 50 {
						return l[1] + 1
					}
					return l[1]
				}},
			}},
			{Name: "T3", Steps: []core.Step{
				{Var: "A", Kind: core.Read},
				{Var: "B", Kind: core.Read},
				{Var: "S", Kind: core.Write, Fn: func(l []core.Value) core.Value { return l[0] + l[1] }},
				{Var: "C", Kind: core.Write, Fn: func(l []core.Value) core.Value { return 0 }},
			}},
		},
		IC: &core.IC{
			Name: "A>=0 && B>=0 && A+B=S-50C",
			Check: func(db core.DB) bool {
				return db["A"] >= 0 && db["B"] >= 0 && db["A"]+db["B"] == db["S"]-50*db["C"]
			},
			Initials: func() []core.DB {
				return []core.DB{
					{"A": 150, "B": 50, "S": 200, "C": 0},
					{"A": 100, "B": 100, "S": 200, "C": 0},
					{"A": 200, "B": 0, "S": 250, "C": 1},
					{"A": 130, "B": 20, "S": 150, "C": 0},
					{"A": 0, "B": 0, "S": 0, "C": 0},
				}
			},
		},
	}
	return sys.Normalize()
}

// Figure1 returns the interpreted system of Figure 1: T1 = (x←x+1, x←2x),
// T2 = (x←x+1), with the integrity constraint x ≥ 0.
func Figure1() *core.System {
	sys := &core.System{
		Name: "figure1",
		Txs: []core.Transaction{
			{Name: "T1", Steps: []core.Step{
				{Var: "x", Kind: core.Update, Fn: func(l []core.Value) core.Value { return last(l) + 1 }},
				{Var: "x", Kind: core.Update, Fn: func(l []core.Value) core.Value { return 2 * last(l) }},
			}},
			{Name: "T2", Steps: []core.Step{
				{Var: "x", Kind: core.Update, Fn: func(l []core.Value) core.Value { return last(l) + 1 }},
			}},
		},
		IC: &core.IC{
			Name:     "x>=0",
			Check:    func(db core.DB) bool { return db["x"] >= 0 },
			Initials: func() []core.DB { return []core.DB{{"x": 0}, {"x": 1}, {"x": 5}} },
		},
	}
	return sys.Normalize()
}

// Theorem2Adversary returns the system used in the proof of Theorem 2:
// T1 = (x←x+1, x←x−1), T2 = (x←2x), IC = {x = 0}. Every transaction alone
// preserves the constraint, yet every non-serial schedule violates it.
func Theorem2Adversary() *core.System {
	sys := &core.System{
		Name: "theorem2",
		Txs: []core.Transaction{
			{Name: "T1", Steps: []core.Step{
				{Var: "x", Kind: core.Update, Fn: func(l []core.Value) core.Value { return last(l) + 1 }},
				{Var: "x", Kind: core.Update, Fn: func(l []core.Value) core.Value { return last(l) - 1 }},
			}},
			{Name: "T2", Steps: []core.Step{
				{Var: "x", Kind: core.Update, Fn: func(l []core.Value) core.Value { return 2 * last(l) }},
			}},
		},
		IC: &core.IC{
			Name:     "x=0",
			Check:    func(db core.DB) bool { return db["x"] == 0 },
			Initials: func() []core.DB { return []core.DB{{"x": 0}} },
		},
	}
	return sys.Normalize()
}

// Cross returns two transactions updating x and y in opposite orders: the
// deadlock-prone pattern of Figure 3 whose only serializable schedules are
// the serial ones.
func Cross() *core.System {
	return (&core.System{
		Name: "cross",
		Txs: []core.Transaction{
			{Name: "T1", Steps: []core.Step{
				{Var: "x", Kind: core.Update, Fn: func(l []core.Value) core.Value { return last(l) + 1 }},
				{Var: "y", Kind: core.Update, Fn: func(l []core.Value) core.Value { return last(l) + 3 }},
			}},
			{Name: "T2", Steps: []core.Step{
				{Var: "y", Kind: core.Update, Fn: func(l []core.Value) core.Value { return 2 * last(l) }},
				{Var: "x", Kind: core.Update, Fn: func(l []core.Value) core.Value { return 2 * last(l) }},
			}},
		},
	}).Normalize()
}

// Chain returns T1 = (x, z), T2 = (z): a system whose CSR set strictly
// exceeds its serial schedules — the smallest strict step of the fixpoint
// hierarchy.
func Chain() *core.System {
	return (&core.System{
		Name: "chain",
		Txs: []core.Transaction{
			{Name: "T1", Steps: []core.Step{
				{Var: "x", Kind: core.Update, Fn: func(l []core.Value) core.Value { return last(l) + 1 }},
				{Var: "z", Kind: core.Update, Fn: func(l []core.Value) core.Value { return last(l) + 1 }},
			}},
			{Name: "T2", Steps: []core.Step{
				{Var: "z", Kind: core.Update, Fn: func(l []core.Value) core.Value { return 2 * last(l) }},
			}},
		},
	}).Normalize()
}

// HotShard returns the lock-contended hot-shard pattern: one transaction
// shape hammering a two-variable hot set (h, then k, then h again), so when
// instantiated many times nearly every decision lands on the one or two
// shards owning h and k and requests park behind each other's locks.
// It is ccsim's -workload hotshard and the sim package's parking stress.
func HotShard() *core.System {
	return (&core.System{
		Name: "hotshard",
		Txs: []core.Transaction{
			{Name: "T1", Steps: []core.Step{
				{Var: "h", Kind: core.Update, Fn: func(l []core.Value) core.Value { return last(l) + 1 }},
				{Var: "k", Kind: core.Update, Fn: func(l []core.Value) core.Value { return last(l) + 2 }},
				{Var: "h", Kind: core.Update, Fn: func(l []core.Value) core.Value { return 2 * last(l) }},
			}},
		},
	}).Normalize()
}

// HotShardDisjoint returns the latch-contention complement of HotShard:
// jobs transactions, each updating its own private variable three times,
// with every variable chosen to hash to shard 0 of a shards-way partition
// (lockmgr.ShardOfVar — the partition function of the whole engine). Every
// decision is therefore made under one shard's latch while the lock table
// sees no conflicts at all: the serialised decision point, not the data,
// is the bottleneck, and nothing ever parks.
func HotShardDisjoint(jobs, shards int) *core.System {
	sys := &core.System{Name: "hotshard-disjoint"}
	inc := func(l []core.Value) core.Value { return last(l) + 1 }
	for v, made := 0, 0; made < jobs; v++ {
		name := core.Var(fmt.Sprintf("v%d", v))
		if lockmgr.ShardOfVar(name, shards) != 0 {
			continue
		}
		made++
		sys.Txs = append(sys.Txs, core.Transaction{Steps: []core.Step{
			{Var: name, Kind: core.Update, Fn: inc},
			{Var: name, Kind: core.Update, Fn: inc},
			{Var: name, Kind: core.Update, Fn: inc},
		}})
	}
	return sys.Normalize()
}

// Disjoint returns jobs transactions that each update a private variable
// `steps` times, with no shard forcing: the variables hash across every
// shard of any partition, so the decisions spread over every latch while
// the lock table, the timestamp table and the serialization graph see zero
// conflicts. This is the workload where a scheduler's per-step overhead is
// the whole cost, and where a non-strict scheduler's committed state must
// still equal the committed replay — the internal/sim tests run each
// natively concurrent scheduler on it beside its sequential original
// under Mutexed.
func Disjoint(jobs, steps int) *core.System {
	if steps < 1 {
		steps = 1
	}
	sys := &core.System{Name: fmt.Sprintf("disjoint-%dx%d", jobs, steps), Txs: make([]core.Transaction, max(jobs, 0))}
	inc := func(l []core.Value) core.Value { return last(l) + 1 }
	for i := range sys.Txs {
		name := core.Var("d" + strconv.Itoa(i))
		tx := &sys.Txs[i]
		tx.Steps = make([]core.Step, steps)
		for s := range tx.Steps {
			tx.Steps[s] = core.Step{Var: name, Kind: core.Update, Fn: inc}
		}
	}
	return sys.Normalize()
}

// CrossPairs returns `pairs` independent transaction pairs: the two
// transactions of pair i each update a private variable, then the pair's
// shared variable, then the private variable again. Every transaction
// spans shards (the private and shared variables hash independently) and
// conflicts only with its partner, so a conflict graph sees a steady
// stream of edges forming many small two-node components. This is the
// regime where striping a serialization graph by component should pay,
// yet measured in-process at 4 users one graph mutex beats a striped
// union-find graph here too (DESIGN.md "Native SGT and OCC").
// ConcurrentSGT's and ConcurrentMV's serializability tests and
// `ccsim -workload crosspairs` use it.
func CrossPairs(pairs int) *core.System {
	sys := &core.System{Name: fmt.Sprintf("crosspairs-%d", pairs)}
	inc := func(l []core.Value) core.Value { return last(l) + 1 }
	for i := 0; i < pairs; i++ {
		shared := core.Var(fmt.Sprintf("s%d", i))
		for j := 0; j < 2; j++ {
			private := core.Var(fmt.Sprintf("p%d_%d", i, j))
			sys.Txs = append(sys.Txs, core.Transaction{Steps: []core.Step{
				{Var: private, Kind: core.Update, Fn: inc},
				{Var: shared, Kind: core.Update, Fn: inc},
				{Var: private, Kind: core.Update, Fn: inc},
			}})
		}
	}
	return sys.Normalize()
}

// LostUpdate returns the classic read-then-write pair on one variable.
func LostUpdate() *core.System {
	mk := func() core.Transaction {
		return core.Transaction{Steps: []core.Step{
			{Var: "x", Kind: core.Read},
			{Var: "x", Kind: core.Write, Fn: func(l []core.Value) core.Value { return l[0] + 1 }},
		}}
	}
	return (&core.System{
		Name: "lostupdate",
		Txs:  []core.Transaction{mk(), mk()},
	}).Normalize()
}

// RandomConfig tunes the random-system generator.
type RandomConfig struct {
	// NumTxs is the number of transactions (default 3).
	NumTxs int
	// MinSteps/MaxSteps bound the per-transaction step count (defaults 1
	// and 3).
	MinSteps, MaxSteps int
	// NumVars is the size of the variable pool (default 3).
	NumVars int
	// ReadFrac and WriteFrac are the probabilities of Read and Write
	// kinds; the remainder are Updates (defaults 0.3 / 0.2).
	ReadFrac, WriteFrac float64
	// Hotspot skews variable choice: 0 is uniform; larger values
	// concentrate accesses on low-numbered variables with probability
	// proportional to 1/(rank+1)^Hotspot.
	Hotspot float64
}

func (c *RandomConfig) defaults() {
	if c.NumTxs == 0 {
		c.NumTxs = 3
	}
	if c.MinSteps == 0 {
		c.MinSteps = 1
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 3
	}
	if c.NumVars == 0 {
		c.NumVars = 3
	}
	if c.ReadFrac == 0 && c.WriteFrac == 0 {
		c.ReadFrac, c.WriteFrac = 0.3, 0.2
	}
}

// Random generates a seeded, executable random system with a trivial IC
// (its interest is SR/WSR/CSR structure, not consistency). Interpretations
// are drawn from a small affine algebra so weak-serializability probing
// stays exact on the default probe states.
func Random(cfg RandomConfig, seed int64) *core.System {
	cfg.defaults()
	rng := rand.New(rand.NewSource(seed))
	names := varNames(cfg.NumVars)
	// Weighted by 1/(rank+1)^Hotspot.
	weights := make([]float64, cfg.NumVars)
	total := 0.0
	for i := range weights {
		w := 1.0
		for k := 0.0; k < cfg.Hotspot; k++ {
			w /= float64(i + 1)
		}
		weights[i] = w
		total += w
	}
	pickVar := func() core.Var {
		if cfg.Hotspot <= 0 {
			return names[rng.Intn(cfg.NumVars)]
		}
		r := rng.Float64() * total
		for i, w := range weights {
			if r < w {
				return names[i]
			}
			r -= w
		}
		return names[cfg.NumVars-1]
	}
	txs := make([]core.Transaction, cfg.NumTxs)
	for i := range txs {
		m := cfg.MinSteps
		if cfg.MaxSteps > cfg.MinSteps {
			m += rng.Intn(cfg.MaxSteps - cfg.MinSteps + 1)
		}
		steps := make([]core.Step, m)
		for j := range steps {
			v := pickVar()
			r := rng.Float64()
			switch {
			case r < cfg.ReadFrac:
				steps[j] = core.Step{Var: v, Kind: core.Read}
			case r < cfg.ReadFrac+cfg.WriteFrac:
				k := core.Value(rng.Intn(7) - 3)
				steps[j] = core.Step{Var: v, Kind: core.Write,
					Fn: func(l []core.Value) core.Value { return k }}
			default:
				switch rng.Intn(3) {
				case 0:
					k := core.Value(1 + rng.Intn(3))
					steps[j] = core.Step{Var: v, Kind: core.Update,
						Fn: func(l []core.Value) core.Value { return last(l) + k }}
				case 1:
					steps[j] = core.Step{Var: v, Kind: core.Update,
						Fn: func(l []core.Value) core.Value { return 2 * last(l) }}
				default:
					k := core.Value(1 + rng.Intn(3))
					steps[j] = core.Step{Var: v, Kind: core.Update,
						Fn: func(l []core.Value) core.Value { return last(l) - k }}
				}
			}
		}
		txs[i] = core.Transaction{Steps: steps}
	}
	return (&core.System{Name: fmt.Sprintf("random-%d", seed), Txs: txs}).Normalize()
}

// ReadMostlyConfig tunes the read-mostly generator.
type ReadMostlyConfig struct {
	// Jobs is the number of transactions (default 64).
	Jobs int
	// Steps is the per-transaction step count (default 4).
	Steps int
	// ReadFrac is the fraction of transactions that are read-only — every
	// step a Read (default 0.9). The remainder are writers whose every
	// step is an increment Update, so writer execution is exact under
	// replay comparison.
	ReadFrac float64
	// Vars is the size of the variable pool (default 64).
	Vars int
	// HotFrac is the probability a step touches one of the HotVars
	// low-numbered variables instead of drawing uniformly from the pool
	// (defaults 0.8 over 4 hot variables). HotFrac 0 disables skew.
	HotFrac float64
	// HotVars is the size of the hot set (default 4, capped at Vars).
	HotVars int
}

func (c *ReadMostlyConfig) defaults() {
	if c.Jobs == 0 {
		c.Jobs = 64
	}
	if c.Steps == 0 {
		c.Steps = 4
	}
	if c.ReadFrac == 0 {
		c.ReadFrac = 0.9
	}
	if c.Vars == 0 {
		c.Vars = 64
	}
	if c.HotFrac == 0 && c.HotVars == 0 {
		c.HotFrac, c.HotVars = 0.8, 4
	}
	if c.HotVars > c.Vars {
		c.HotVars = c.Vars
	}
}

// ReadMostly generates the read-fraction sweep workload (the mv tests,
// bench's readmostly-mv-kv and ccsim's -readfrac flag): a seeded mix of read-only transactions (all
// steps Read) and writer transactions (all steps increment Updates), with
// optional hot-set skew so writers collide. Read-only transactions are
// what the multiversion runtime serves from snapshots; writers being pure
// increments keeps every interleaving of committed writers equal to the
// serial replay of the committed schedule, so the replay self-check stays
// exact at any read fraction.
func ReadMostly(cfg ReadMostlyConfig, seed int64) *core.System {
	cfg.defaults()
	rng := rand.New(rand.NewSource(seed))
	names := varNames(cfg.Vars)
	pickVar := func() core.Var {
		if cfg.HotFrac > 0 && rng.Float64() < cfg.HotFrac {
			return names[rng.Intn(cfg.HotVars)]
		}
		return names[rng.Intn(cfg.Vars)]
	}
	inc := func(l []core.Value) core.Value { return last(l) + 1 }
	readers := int(float64(cfg.Jobs)*cfg.ReadFrac + 0.5)
	txs := make([]core.Transaction, cfg.Jobs)
	for i := range txs {
		steps := make([]core.Step, cfg.Steps)
		for j := range steps {
			if i < readers {
				steps[j] = core.Step{Var: pickVar(), Kind: core.Read}
			} else {
				steps[j] = core.Step{Var: pickVar(), Kind: core.Update, Fn: inc}
			}
		}
		txs[i] = core.Transaction{Steps: steps}
	}
	// Interleave readers and writers by index so contiguous user
	// assignment doesn't hand all writers to one goroutine.
	rng.Shuffle(len(txs), func(a, b int) { txs[a], txs[b] = txs[b], txs[a] })
	return (&core.System{
		Name: fmt.Sprintf("readmostly-%.2f-%d", cfg.ReadFrac, seed),
		Txs:  txs,
	}).Normalize()
}

// varNames returns the pool variables v0..v<n-1>, named once so a
// generator drawing from the pool shares their strings.
func varNames(n int) []core.Var {
	names := make([]core.Var, n)
	for i := range names {
		names[i] = core.Var("v" + strconv.Itoa(i))
	}
	return names
}

// NodeVar names node i of the implicit binary tree used by the
// hierarchical workload: parent(i) = (i−1)/2, root is node 0.
func NodeVar(i int) core.Var { return core.Var(fmt.Sprintf("n%d", i)) }

// ParentOf returns the tree parent of node i and false for the root.
func ParentOf(i int) (int, bool) {
	if i <= 0 {
		return 0, false
	}
	return (i - 1) / 2, true
}

// PathWorkload generates a hierarchical-access system over a complete
// binary tree of the given depth (2^depth − 1 nodes): each transaction
// updates the variables on the root-to-leaf path to a random leaf, in
// root-first order. This is the structured-data setting of Section 5.5
// where tree locking beats 2PL.
func PathWorkload(depth, numTxs int, seed int64) *core.System {
	rng := rand.New(rand.NewSource(seed))
	nodes := 1<<depth - 1
	firstLeaf := 1<<(depth-1) - 1
	txs := make([]core.Transaction, numTxs)
	for i := range txs {
		leaf := firstLeaf + rng.Intn(nodes-firstLeaf)
		var path []int
		for n := leaf; ; {
			path = append([]int{n}, path...)
			p, ok := ParentOf(n)
			if !ok {
				break
			}
			n = p
		}
		steps := make([]core.Step, len(path))
		for j, n := range path {
			steps[j] = core.Step{Var: NodeVar(n), Kind: core.Update,
				Fn: func(l []core.Value) core.Value { return last(l) + 1 }}
		}
		txs[i] = core.Transaction{Steps: steps}
	}
	return (&core.System{Name: fmt.Sprintf("tree-d%d-%d", depth, numTxs), Txs: txs}).Normalize()
}
