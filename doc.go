// Package optcc reproduces H. T. Kung and C. H. Papadimitriou, "An
// Optimality Theory of Concurrency Control for Databases" (SIGMOD 1979),
// as a runnable Go library.
//
// The implementation lives in the internal packages (one per subsystem;
// see DESIGN.md for the inventory):
//
//	internal/core        transaction systems, states, execution, C(T)
//	internal/schedule    the schedule space H: counting, enumeration, sampling
//	internal/herbrand    Herbrand semantics and SR(T)            (Theorem 3)
//	internal/conflict    conflict graphs and CSR
//	internal/wsr         weak serializability WSR(T)             (Theorem 4)
//	internal/info        information levels and optimal schedulers (Theorems 1–2)
//	internal/fixpoint    hierarchy classification and |P|/|H|
//	internal/lockmgr     lock tables (monolithic + sharded with lock-free fast path), deadlock policies
//	internal/locking     locking policies: 2PL, 2PL′, selective; LRS (Section 5)
//	internal/geometry    progress space, blocks, deadlock region, homotopy (Section 5.3)
//	internal/online      online schedulers: serial, 2PL variants, SGT, TO, OCC, tree locking;
//	                     the concurrent contract (ConcurrentScheduler), Mutexed (any
//	                     sequential scheduler behind one mutex, one shard) and one native
//	                     concurrent scheduler per family (ConcurrentStrict2PL/TO/MV/SGT/OCC)
//	internal/storage     storage layer: the Backend interface and the sharded in-memory
//	                     KV store (copy-on-write records, checksummed payloads,
//	                     per-transaction undo logs for abort rollback)
//	internal/sim         goroutine-per-user simulator of the Section 6 environment:
//	                     centralized scheduler goroutine, or users deciding their own
//	                     steps under per-shard decision latches (run-to-completion),
//	                     executing granted steps against the storage backend
//	internal/workload    canonical systems (banking, Figure 1, …), generators and
//	                     payload sizers
//	internal/experiments every experiment of DESIGN.md's index, each a fixed-scale
//	                     self-checking run
//
// Binaries: cmd/ccbench (experiments), cmd/ccviz (figures), cmd/ccsim
// (simulator). Runnable examples are under examples/.
//
// bench_test.go times each experiment and holds the per-layer
// microbenchmarks; end-to-end numbers come from bench/:
//
//	go test -run '^$' -bench=. -benchmem
package optcc
