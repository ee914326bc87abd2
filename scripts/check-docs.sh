#!/usr/bin/env bash
# Docs drift gate: README.md and DESIGN.md must reference every Go package
# directory in the tree (internal/* and cmd/*), and every package path they
# mention must still exist. Run from anywhere; CI runs it on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# Every package directory must be referenced by both docs.
for d in internal/*/ cmd/*/; do
  p="${d%/}"
  for doc in README.md DESIGN.md; do
    if ! grep -q "$p" "$doc"; then
      echo "check-docs: $doc does not reference package $p"
      fail=1
    fi
  done
done

# Every package path the docs mention must exist.
for doc in README.md DESIGN.md; do
  for p in $(grep -oE '(internal|cmd)/[a-z0-9]+' "$doc" | sort -u); do
    if [ ! -d "$p" ]; then
      echo "check-docs: $doc references nonexistent package $p"
      fail=1
    fi
  done
done

# owns TEST FILE: the test that owns a surface's engine property (state
# == replay, schedule CSR, recovered == replay through internal/check)
# must still exist in its file.
owns() {
  if ! grep -q "^func $1(" "$2"; then
    echo "check-docs: $2 lost $1, the test that owns a documented engine property"
    fail=1
  fi
}

# The native-TO surface must stay documented and checked: the cto
# scheduler in both docs and its replay and CSR tests.
for doc in README.md DESIGN.md; do
  if ! grep -q 'cto' "$doc"; then
    echo "check-docs: $doc does not document the cto scheduler"
    fail=1
  fi
done
owns TestConcurrentTODisjointStateMatchesReplay internal/sim/nativeto_test.go
owns TestConcurrentTOContendedSerializable internal/sim/nativeto_test.go

# The multiversion surface must stay documented and checked: the mv
# scheduler, the -readfrac flag, DESIGN.md's storage section covering
# visibility and GC safety, and mv's replay test.
for doc in README.md DESIGN.md; do
  if ! grep -qe '-readfrac' "$doc"; then
    echo "check-docs: $doc does not document the -readfrac flag"
    fail=1
  fi
  if ! grep -qE '\bmv\b' "$doc"; then
    echo "check-docs: $doc does not document the mv scheduler"
    fail=1
  fi
done
if ! grep -q '"readfrac"' cmd/ccsim/main.go; then
  echo "check-docs: cmd/ccsim/main.go lost its -readfrac flag"
  fail=1
fi
owns TestConcurrentMVReadMostlyStateMatchesReplay internal/sim/mv_test.go
# Version reclamation's one rule (every reader holds the horizon) is owned
# by the race of read-committed readers against committing writers.
owns TestReclaimUnpinnedReadersRace internal/storage/reclaim_test.go
if ! grep -q 'Multiversion storage' DESIGN.md; then
  echo "check-docs: DESIGN.md lost its Multiversion storage section"
  fail=1
fi

# The durability surface must stay documented and checked: the disk
# backend, the -fsync flag, DESIGN.md's Durability section covering the
# log format, recovery and the fault-injection catalogue, and the
# live == replay == recovered test.
for doc in README.md DESIGN.md; do
  if ! grep -qe '-fsync' "$doc"; then
    echo "check-docs: $doc does not document the -fsync flag"
    fail=1
  fi
  if ! grep -qE '\bdisk\b' "$doc"; then
    echo "check-docs: $doc does not document the disk backend"
    fail=1
  fi
done
if ! grep -q '"fsync"' cmd/ccsim/main.go; then
  echo "check-docs: cmd/ccsim/main.go lost its -fsync flag"
  fail=1
fi
owns TestDiskBackendReplayAndRecovery internal/sim/durable_test.go
if ! grep -q 'disk' internal/storage/storage.go; then
  echo "check-docs: storage registry lost the disk backend"
  fail=1
fi
if ! grep -q 'Durability' DESIGN.md; then
  echo "check-docs: DESIGN.md lost its Durability section"
  fail=1
fi

# The profiling / allocation-measurement surface must stay documented:
# the ccbench profiling flags and the memory discipline section that
# states the zero-allocation invariant.
for f in -cpuprofile -memprofile -allocstats; do
  if ! grep -qe "$f" README.md; then
    echo "check-docs: README.md does not document the ccbench $f flag"
    fail=1
  fi
done
for name in cpuprofile memprofile allocstats; do
  if ! grep -q "\"$name\"" cmd/ccbench/main.go; then
    echo "check-docs: cmd/ccbench lost its -$name flag"
    fail=1
  fi
done
if ! grep -q 'Memory discipline' DESIGN.md; then
  echo "check-docs: DESIGN.md lost its Memory discipline section"
  fail=1
fi
if ! grep -q 'noop' internal/storage/storage.go; then
  echo "check-docs: storage registry lost the noop backend"
  fail=1
fi

# The static-analysis surface must stay documented and wired: the lint
# target, the cclint driver, DESIGN.md's analyzer ↔ invariant map with the
# directive conventions, and the five analyzers registered in the suite.
for doc in README.md DESIGN.md; do
  if ! grep -q 'cclint' "$doc"; then
    echo "check-docs: $doc does not document cclint"
    fail=1
  fi
done
if ! grep -q 'Static analysis' DESIGN.md; then
  echo "check-docs: DESIGN.md lost its Static analysis section"
  fail=1
fi
for d in 'optcc:hotpath' 'optcc:release' 'cclint:ignore'; do
  if ! grep -q "$d" DESIGN.md; then
    echo "check-docs: DESIGN.md does not document the //$d directive"
    fail=1
  fi
done
if ! grep -q '^lint:' Makefile; then
  echo "check-docs: Makefile lost its lint target"
  fail=1
fi
if ! grep -q 'make lint' .github/workflows/ci.yml; then
  echo "check-docs: CI lost its lint job"
  fail=1
fi
for a in lockorder hotpath recycle atomiconly gojoin; do
  if ! grep -qri "name: \"$a\"" internal/lint/*.go 2>/dev/null && \
     ! grep -q "Name: \"$a\"" internal/lint/*.go; then
    echo "check-docs: analyzer $a is no longer registered in internal/lint"
    fail=1
  fi
  if ! grep -q "$a" DESIGN.md; then
    echo "check-docs: DESIGN.md does not document the $a analyzer"
    fail=1
  fi
done

# The checkpointing surface must stay documented and checked: the ccsim
# -checkpoint flag, DESIGN.md's Checkpointing section covering the marker
# protocol and segment retirement, and the background-checkpointer test.
for doc in README.md DESIGN.md; do
  if ! grep -qe '-checkpoint' "$doc"; then
    echo "check-docs: $doc does not document the -checkpoint flag"
    fail=1
  fi
done
if ! grep -q '"checkpoint"' cmd/ccsim/main.go; then
  echo "check-docs: cmd/ccsim/main.go lost its -checkpoint flag"
  fail=1
fi
owns TestCheckpointBackgroundThreshold internal/storage/checkpoint_test.go
if ! grep -q 'Checkpointing' DESIGN.md; then
  echo "check-docs: DESIGN.md lost its Checkpointing section"
  fail=1
fi

# The native SGT/OCC surface must stay documented and checked: the
# csgt/cocc schedulers in both docs and the ccsim scheduler surface,
# DESIGN.md's section on the one-mutex SGT graph + epoch validation
# invariants, and their replay and CSR tests.
for doc in README.md DESIGN.md; do
  if ! grep -q 'csgt' "$doc"; then
    echo "check-docs: $doc does not document the csgt scheduler"
    fail=1
  fi
  if ! grep -q 'cocc' "$doc"; then
    echo "check-docs: $doc does not document the cocc scheduler"
    fail=1
  fi
done
if ! grep -q 'csgt' cmd/ccsim/main.go || ! grep -q 'cocc' cmd/ccsim/main.go; then
  echo "check-docs: cmd/ccsim/main.go lost its csgt/cocc schedulers"
  fail=1
fi
for tst in TestConcurrentSGTDisjointStateMatchesReplay TestConcurrentSGTContendedSerializable \
    TestConcurrentOCCDisjointStateMatchesReplay TestConcurrentOCCContendedSerializable; do
  owns "$tst" internal/sim/nativesgtocc_test.go
done
if ! grep -q 'Native SGT and OCC' DESIGN.md; then
  echo "check-docs: DESIGN.md lost its Native SGT and OCC section"
  fail=1
fi

# Stale-name gate: the Sharded combinator with its ordering rail, the v1
# measurement stack (BENCH_PR*.json, cmd/benchdiff, make bench-json), the
# experiment sweep knobs with their Quick twins, E8, E10, ccbench -md and
# its EXPERIMENTS.md, the end-to-end root benchmarks, and the disk
# backend's eager redo+undo execution mode with its Config switch and
# torture env var, the concurrent engine's run-global grant stamp and its
# every-commit-through-a-lane rule, and decision batching (the central
# loop's adaptive intake coalescing, the batched parked retry and ccsim's
# -batch flag), the engine's clock read around every stage of every
# step, the group committer's lanes partitioned by transaction id, and the
# concurrent engine's run-global in-flight/committing counters with its
# unconditional yield at every job end, and the per-shard variable maps
# (one immutable map per shard in each per-variable table, now one
# internal/vartab map) and the group committer's yield before every group
# (it now yields only when the queue runs empty), and the engine
# self-check cells E9 and E11–E15 (now tests that call internal/check), and
# the hand-rolled per-transaction stores (the KV's context map, mutex and
# pool, the disk backend's context stripes, the lock table's flat reserved
# arrays and its sync.Map fallbacks; all now internal/txtab slots) are
# gone; nothing that documents or drives the current tree may name them:
# not the docs and commands, and not a non-test Go file under internal/,
# whose comments must not cite a deleted cell either (E8–E15 by id; the
# pattern cannot match the live cells E1–E7).
files=()
for f in README.md DESIGN.md doc.go cmd/*/main.go Makefile internal/report/report.go .claude/skills/verify/SKILL.md; do
  [ -f "$f" ] || continue
  files+=("$f")
done
while IFS= read -r f; do
  files+=("$f")
done < <(find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | sort)
for f in "${files[@]}"; do
  if grep -qE '\bE(8|9|1[0-5])\b' "$f"; then
    echo "check-docs: $f still cites a deleted experiment cell: $(grep -noE '\bE(8|9|1[0-5])\b' "$f" | head -1)"
    fail=1
  fi
  for stale in 'railstripes' 'NewSharded(' 'Sharded combinator' 'ordering rail' 'benchdiff' 'bench-json' 'BENCH_PR' \
      'E8Config' 'E10Config' 'E8Quick' 'ccbench -md' 'EXPERIMENTS.md' '-exp E8' '-exp E10' \
      'BenchmarkShardedVsCentral' 'BenchmarkNativeVsMutexed' \
      'Config.Buffered' 'Buffered:' 'redo+undo' 'eager redo' 'disk(buffered)' 'OPTCC_TORTURE_BUFFERED' \
      'merged by stamp' 'stamped from one' 'every commit flows through' \
      'batchSizer' 'decideBatch' 'intake coalescing' '2 + 2k times' \
      'group-commit lanes' 'partitioned across lanes' \
      'run-global `inFlight`/`committing`' 'yields (`runtime.Gosched`) between' \
      'one plain map per shard' 'immutable per-shard maps' 'before sealing each group' \
      'E9StorageBackend' 'E11NativeTimestampOrdering' 'E12MultiversionReadScaling' 'E13DurableCommit' \
      'E14CheckpointedWAL' 'E15NativeSGTOCC' 'nativeVsMutexedTables' 'ccbench -exp E11' \
      '-exp E9' '-exp E12' '-exp E13' '-exp E14' '-exp E15' 'E11–E15' \
      'diskStripe' 'ctxOfLocked' 'recycleLocked' 'resetStripes' 'diskCtx' 'txCtx' 'ctxOf(' \
      'ctxPool' 'ctxMu' 'releaseCtx' 'birthArr' 'fastArr' 'fastSetOf' 'fastSetIfAny' \
      'watchdogPeriod' 'watchdog tick'; do
    if grep -qF -- "$stale" "$f"; then
      echo "check-docs: $f still names the removed '$stale'"
      fail=1
    fi
  done
  # The flag, not words like "per-batch".
  if grep -qE -- '(^|[^[:alnum:]-])-batch([^[:alnum:]-]|$)' "$f" || grep -qF '"batch"' "$f"; then
    echo "check-docs: $f still names the removed -batch flag"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "check-docs: FAIL"
  exit 1
fi
echo "check-docs: OK"
