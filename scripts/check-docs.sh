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

# The native-TO surface must stay documented: experiment E11 and the cto
# scheduler in both docs.
for doc in README.md DESIGN.md; do
  if ! grep -q 'E11' "$doc"; then
    echo "check-docs: $doc does not document experiment E11"
    fail=1
  fi
  if ! grep -q 'cto' "$doc"; then
    echo "check-docs: $doc does not document the cto scheduler"
    fail=1
  fi
done
if ! grep -q 'E11' internal/experiments/experiments.go; then
  echo "check-docs: experiments registry lost E11"
  fail=1
fi

# The multiversion surface must stay documented: experiment E12, the mv
# scheduler, the -readfrac flag and DESIGN.md's storage section covering
# visibility and GC safety.
for doc in README.md DESIGN.md; do
  if ! grep -q 'E12' "$doc"; then
    echo "check-docs: $doc does not document experiment E12"
    fail=1
  fi
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
if ! grep -q 'E12' internal/experiments/experiments.go; then
  echo "check-docs: experiments registry lost E12"
  fail=1
fi
if ! grep -q 'Multiversion storage' DESIGN.md; then
  echo "check-docs: DESIGN.md lost its Multiversion storage section"
  fail=1
fi

# The durability surface must stay documented: experiment E13, the disk
# backend, the -fsync flag and DESIGN.md's Durability section covering the
# log format, recovery and the fault-injection catalogue.
for doc in README.md DESIGN.md; do
  if ! grep -q 'E13' "$doc"; then
    echo "check-docs: $doc does not document experiment E13"
    fail=1
  fi
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
if ! grep -q 'E13' internal/experiments/experiments.go; then
  echo "check-docs: experiments registry lost E13"
  fail=1
fi
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

# The checkpointing surface must stay documented: experiment E14, the
# ccsim -checkpoint flag and DESIGN.md's Checkpointing section
# covering the marker protocol and segment retirement.
for doc in README.md DESIGN.md; do
  if ! grep -q 'E14' "$doc"; then
    echo "check-docs: $doc does not document experiment E14"
    fail=1
  fi
  if ! grep -qe '-checkpoint' "$doc"; then
    echo "check-docs: $doc does not document the -checkpoint flag"
    fail=1
  fi
done
if ! grep -q '"checkpoint"' cmd/ccsim/main.go; then
  echo "check-docs: cmd/ccsim/main.go lost its -checkpoint flag"
  fail=1
fi
if ! grep -q 'E14' internal/experiments/experiments.go; then
  echo "check-docs: experiments registry lost E14"
  fail=1
fi
if ! grep -q 'Checkpointing' DESIGN.md; then
  echo "check-docs: DESIGN.md lost its Checkpointing section"
  fail=1
fi

# The native SGT/OCC surface must stay documented: experiment E15, the
# csgt/cocc schedulers in both docs and the ccsim scheduler surface, and
# DESIGN.md's section on the one-mutex SGT graph + epoch validation invariants.
for doc in README.md DESIGN.md; do
  if ! grep -q 'E15' "$doc"; then
    echo "check-docs: $doc does not document experiment E15"
    fail=1
  fi
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
if ! grep -q 'E15' internal/experiments/experiments.go; then
  echo "check-docs: experiments registry lost E15"
  fail=1
fi
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
# (it now yields only when the queue runs empty) are gone; nothing that
# documents or drives the current tree may name them.
for f in README.md DESIGN.md doc.go cmd/*/main.go Makefile internal/report/report.go .claude/skills/verify/SKILL.md; do
  [ -f "$f" ] || continue
  for stale in 'railstripes' 'NewSharded(' 'Sharded combinator' 'ordering rail' 'benchdiff' 'bench-json' 'BENCH_PR' \
      'E8Config' 'E10Config' 'E8Quick' 'ccbench -md' 'EXPERIMENTS.md' '-exp E8' '-exp E10' \
      'BenchmarkShardedVsCentral' 'BenchmarkNativeVsMutexed' \
      'Config.Buffered' 'Buffered:' 'redo+undo' 'eager redo' 'disk(buffered)' 'OPTCC_TORTURE_BUFFERED' \
      'merged by stamp' 'stamped from one' 'every commit flows through' \
      'batchSizer' 'decideBatch' 'intake coalescing' '2 + 2k times' \
      'group-commit lanes' 'partitioned across lanes' \
      'run-global `inFlight`/`committing`' 'yields (`runtime.Gosched`) between' \
      'one plain map per shard' 'immutable per-shard maps' 'before sealing each group'; do
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
