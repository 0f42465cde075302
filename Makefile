# Tier-1 gate: everything a PR must keep green. `make check` is the
# canonical pre-merge command: build, vet, gofmt, the full tests (the
# deterministic performance gates of the root TestPerformanceGates
# among them), the race detector over the packages that share state
# across goroutines (the solver cache shared by parallel CEGAR checks
# and slicerd sessions, the dataflow query caches behind a shared
# Slicer, and the obs metrics/trace layer), the benchmark module's vet
# and short tests, the fuzz smoke, the oracle, the docs checker, the
# daemon smokes and a short farm burst.

GO ?= go

RACE_PKGS = ./internal/cegar/ ./internal/cfa/ ./internal/client/ ./internal/core/ ./internal/dataflow/ ./internal/faults/ ./internal/interp/ ./internal/logic/ ./internal/obs/ ./internal/oracle/ ./internal/service/ ./internal/smt/

.PHONY: check build vet fmt test race perfbench fuzz oracle docs-check serve-smoke chaos-smoke bench farm experiments

check: build vet fmt test race perfbench fuzz oracle docs-check serve-smoke chaos-smoke farm

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when gofmt would reformat any tracked .go file.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# perfbench (BENCHMARK.json's benchmark) is its own module, so the root
# build and test steps skip it: vet and test it here, so a change to an
# identifier it uses fails before the benchmark runs.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# Short native-fuzzing smoke over the byte-input boundaries (the MiniC
# parser — sequential and threaded grammars — the smt linearizer, the
# solver's exact number type at the int64 word boundary, its grouped
# unsat-core filter against the plain one, the cache key, one-variable
# substitution and conjunction builder of package logic against the
# code they replaced, refinement's orientation of a mined atom and its
# negation, and the PSTRC02 concurrent-trace decoder);
# `make FUZZTIME=5m fuzz` digs deeper.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/lang/parser/ -run '^$$' -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lang/parser/ -run '^$$' -fuzz FuzzParseThreads -fuzztime $(FUZZTIME)
	$(GO) test ./internal/smt/ -run '^$$' -fuzz FuzzLinearize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/smt/ -run '^$$' -fuzz FuzzNum -fuzztime $(FUZZTIME)
	$(GO) test ./internal/smt/ -run '^$$' -fuzz FuzzUnsatCore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/logic/ -run '^$$' -fuzz FuzzKeySubst1 -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cegar/ -run '^$$' -fuzz FuzzOrient -fuzztime $(FUZZTIME)
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

# Time-budgeted verification farm (docs/PERFORMANCE.md): iterations
# of the oracle campaign, each with a fresh seed, and of the parser and
# solver fuzz targets. `make farm FARMTIME=30m` for a soak; the default
# short burst is part of `make check`.
FARMTIME ?= 60s
farm:
	$(GO) run ./cmd/farm -time $(FARMTIME)

experiments:
	$(GO) run ./cmd/experiments
