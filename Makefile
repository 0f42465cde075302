# Tier-1 gate: everything a PR must keep green. `make check` is the
# canonical pre-merge command (build, vet, full tests, the race
# detector over the packages that share state across goroutines —
# the CEGAR worker pool, the solver cache, the dataflow query
# caches behind a shared Slicer, and the obs metrics/trace layer —
# and the docs checker).

GO ?= go

RACE_PKGS = ./internal/cegar/ ./internal/cfa/ ./internal/client/ ./internal/core/ ./internal/dataflow/ ./internal/faults/ ./internal/interp/ ./internal/logic/ ./internal/obs/ ./internal/oracle/ ./internal/service/ ./internal/smt/

.PHONY: check build vet test race fuzz oracle docs-check serve-smoke chaos-smoke bench bench-json bench-diff farm experiments

check: build vet test race fuzz oracle docs-check serve-smoke chaos-smoke bench-diff farm

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Short native-fuzzing smoke over the byte-input boundaries (the MiniC
# parser — sequential and threaded grammars — the smt linearizer, and
# the PSTRC02 concurrent-trace decoder); `make FUZZTIME=5m fuzz` digs
# deeper.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/lang/parser/ -run '^$$' -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lang/parser/ -run '^$$' -fuzz FuzzParseThreads -fuzztime $(FUZZTIME)
	$(GO) test ./internal/smt/ -run '^$$' -fuzz FuzzLinearize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cfa/ -run '^$$' -fuzz FuzzConcurrentTrace -fuzztime $(FUZZTIME)

# Differential/metamorphic oracle campaign over generated programs
# (docs/TESTING.md): >=500 slicer verdicts cross-checked against the
# concrete interpreter, a brute-force reference slicer, and a stateless
# solver, plus the planted-bug self-test. Deterministic, ~1s.
oracle:
	$(GO) test -run Oracle -count=1 .

# Fails on broken relative links in *.md and on `pkg.Ident` doc
# references that no longer name an exported identifier.
docs-check:
	$(GO) run ./cmd/doccheck

# End-to-end smoke of the slicerd daemon (docs/DEPLOYMENT.md): builds
# and launches the real binary with a tiny admission limit and a 100%
# solver-stall fault rate, bursts past the limit, and asserts the
# typed load-shed contract plus the slicerd_* series on /metrics.
serve-smoke:
	@mkdir -p bin
	$(GO) build -o bin/slicerd ./cmd/slicerd
	$(GO) run ./cmd/servesmoke -slicerd bin/slicerd

# Network-level chaos campaign (docs/ROBUSTNESS.md): a real slicerd
# behind the deterministic faulty proxy (connection resets, stalls,
# partial writes, byte corruption), driven by the retrying client
# through SIGTERM drains, SIGKILL crashes, and a deliberately corrupted
# snapshot. Asserts zero wrong verdicts and eventual success.
chaos-smoke:
	@mkdir -p bin
	$(GO) build -o bin/slicerd ./cmd/slicerd
	$(GO) run ./cmd/chaossmoke -slicerd bin/slicerd

bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable performance artifact (suite wall time, solver-call
# counts, early-unsat-stop speedup, the gcc-class summary sweep, oracle
# corpus statistics). Not part of `make check` — it records numbers;
# `make bench-diff` gates on them.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_PR10.json

# Gate: compares the two newest checked-in BENCH_PR*.json artifacts and
# fails on a >20% regression of any deterministic metric (wall times
# only when the host fingerprints match), and on the summary sweep
# losing its sublinear walked-edge curve. Part of `make check`.
bench-diff:
	$(GO) run ./cmd/benchdiff

# Time-budgeted verification farm (docs/PERFORMANCE.md): a planted-
# regression benchdiff self-test, then iterations of the oracle
# campaign and both fuzz targets; with
# a budget past ~90s each loop also regenerates BENCH_PR10.json in a
# scratch workspace and benchdiff-gates it against the committed
# baseline. `make farm FARMTIME=30m` for a soak; the default short
# burst is part of `make check`.
FARMTIME ?= 60s
farm:
	$(GO) run ./cmd/farm -time $(FARMTIME)

experiments:
	$(GO) run ./cmd/experiments
