# Convenience targets around the plain-go workflow (everything also works
# with bare `go` commands; see README.md).

GO ?= go

# The extended vet set: standalone `go vet` runs its full analyzer
# registry (atomic, copylocks, loopclosure, lostcancel, unsafeptr,
# unreachable, unusedresult, ...), a strict superset of the small
# high-confidence subset `go test` applies automatically. Passing -NAME
# flags would RESTRICT vet to only those analyzers, so VETFLAGS stays
# empty by default; use it to disable a pass (-NAME=false) if one ever
# misfires.
VETFLAGS :=

.PHONY: build test race bench check-docs lint ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark smoke: one iteration of everything, as CI runs it.
bench:
	$(GO) test -run xxx -bench=. -benchtime=1x ./...

# Before/after performance comparisons go through Bench v2, a module of
# its own: `bash bench/run.sh` and `bash bench/run.sh compare` (see
# bench/README.md).

check-docs:
	./scripts/check-docs.sh

# Static analysis: gofmt, the extended vet set, and cclint — the
# project-specific analyzer suite (lock hierarchy, zero-alloc hot path,
# buffer recycling, atomics discipline, goroutine joins; see DESIGN.md
# "Static analysis") — over the root module and the nested benchmark
# module bench/, which `./...` at the root does not reach. staticcheck runs when installed (CI installs a pinned
# version; locally `go install honnef.co/go/tools/cmd/staticcheck@2025.1.1`).
lint:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt: needs formatting:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet $(VETFLAGS) ./...
	$(GO) -C bench vet $(VETFLAGS) ./...
	$(GO) run ./cmd/cclint ./...
	$(GO) -C bench run optcc/cmd/cclint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

ci: check-docs lint build race bench
