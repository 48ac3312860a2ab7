# aggview build/test targets. Pure Go, stdlib only.

GO ?= go

.PHONY: build vet staticcheck test race stress crash fuzz-short bench bench-diff gobench docs-check check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH (CI installs it; local runs
# without it skip with a notice rather than fail — the repo adds no module
# dependency for it).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stress runs the engine-level concurrency suite (mixed-mode queries,
# budget isolation, racing cursors, DDL vs readers, snapshot-pinned
# cursors under committing writers, and multi-statement transactions)
# twice under the race detector, so flaky interleavings get a second
# chance to surface.
stress:
	$(GO) test -race -count=2 -run 'TestConcurrent|TestSnapshot|TestTxn|TestReadsProceed' .

# crash runs the durability suite at full resolution: the WAL-level crash
# sweep plus the engine-level sweeps that kill the log at every write
# offset (clean and torn) and assert exact recovery. `go test ./...` runs
# the same tests; this target pins them by name so a sweep regression
# fails loudly even if someone narrows the default test run.
crash:
	$(GO) test -run 'TestCrash|TestTorn|TestRecovery|TestBulkLoadCrashPrefix|TestPlanCacheInvalidationAcrossRecovery|TestDurable' ./internal/wal .

# fuzz-short runs the key-encoding fuzz target for a few seconds beyond its
# seed corpus (internal/types/testdata/fuzz): AppendKey bytes must be equal
# exactly when the values are Equal, the contract every hash join, hash
# aggregate and index relies on.
fuzz-short:
	$(GO) test -run '^$$' -fuzz=FuzzAppendKey -fuzztime=10s ./internal/types

# bench emits a machine-readable benchmark snapshot: the paper's example
# queries per optimizer mode, estimated cost next to measured cold page IO.
# Committing the dated file makes plan-quality regressions show up as diffs.
bench:
	$(GO) run ./cmd/aggbench -snapshot BENCH_$(shell date +%Y%m%d).json

# bench-diff compares the two most recent committed snapshots: throughput
# and prepared qps deltas plus any per-query IO/plan drift. Override OLD
# and NEW to compare specific files.
OLD ?= $(lastword $(filter-out $(lastword $(sort $(wildcard BENCH_*.json))),$(sort $(wildcard BENCH_*.json))))
NEW ?= $(lastword $(sort $(wildcard BENCH_*.json)))
bench-diff:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "need two BENCH_*.json files (or pass OLD=... NEW=...)"; exit 2; }
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

# gobench runs the Go micro/macro benchmarks only (-run '^$$' skips the
# tests), e.g. BenchmarkBlockNLJoin for the join probe layer.
gobench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# docs-check keeps the documentation honest without adding dependencies:
# every relative Markdown link and every backticked internal/cmd/examples
# path must resolve (cmd/docscheck), and the example programs the docs
# point at must build and vet cleanly even when docs-check runs alone.
docs-check:
	$(GO) run ./cmd/docscheck
	$(GO) vet ./examples/...

# check is the tier-1 gate: static analysis plus the full test suite
# (including the chaos fault sweeps) under the race detector, then the
# doubled concurrency stress pass, the full-resolution crash sweep, a
# short run of the key-encoding fuzz target, and the documentation
# link/reference check.
check: vet staticcheck race stress crash fuzz-short docs-check
