GO ?= go

.PHONY: build test race vet fmt exports check fuzz-smoke fuzz-native chaos chaos-store serve-smoke cluster-smoke bench bench-sat bench-sweep bench-sweep-smoke bench-cluster baseline bench-gate bench-gate-quick bench-compare loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate: every tracked Go file, perfbench/ included, must be
# gofmt-clean. The offending files are listed on failure.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); test -z "$$out" || { echo "not gofmt-clean:"; echo "$$out"; exit 1; }

# Export ratchet: every exported func or method in a non-test .go file under
# internal/ must be named (grep -w) by some .go file outside its package
# directory — tests, perfbench/, cmd/ and examples/ all count as callers.
# Methods that satisfy standard interfaces are exempt. The scan undercounts:
# a common name (Solve, String, Add) matches any mention of that word
# anywhere, so it finds only the names that appear nowhere else.
EXPORTS_EXEMPT = MarshalJSON UnmarshalJSON MarshalBinary UnmarshalBinary Unwrap
exports:
	@files=$$(git ls-files -co --exclude-standard '*.go'); bad=0; \
	for f in $$(echo "$$files" | grep '^internal/' | grep -v '_test\.go$$'); do \
		d=$$(dirname $$f); others=$$(echo "$$files" | grep -v "^$$d/[^/]*$$"); \
		for n in $$(sed -n 's/^func \(([^)]*) \)\{0,1\}\([A-Z][A-Za-z0-9_]*\).*/\2/p' $$f); do \
			case " $(EXPORTS_EXEMPT) " in *" $$n "*) continue;; esac; \
			grep -qw "$$n" $$others || { echo "exported but not called outside its package: $$f: $$n"; bad=1; }; \
		done; \
	done; exit $$bad

# Race-check the packages with concurrent code paths, and the AIG, SAT and
# oracle layers every concurrently running engine is built on (the job
# scheduler/portfolio and the expand engine racing inside it, the fault-injection plumbing they
# share, the daemon's HTTP handlers, the certificate checker the portfolio
# arms consult concurrently, the ingestion/PQE layers the daemon calls
# from its handler goroutines, the cluster coordinator fanning cube
# subproblems across workers, and the trace recorder that portfolio arms
# emit into concurrently).
race:
	$(GO) test -race ./internal/sat ./internal/aig ./internal/cert ./internal/oracle ./internal/core ./internal/expand ./internal/service ./internal/store ./internal/faults ./internal/leakcheck ./internal/problem ./internal/pqe ./internal/httpapi ./internal/cluster ./internal/cube ./internal/trace ./cmd/hqsd

# Differential fuzzing smoke run: 200 random instances, every solver
# configuration against the brute-force reference, with Skolem certificate
# extraction and checking on every HQS SAT answer. The seed is pinned so the
# gate checks the same corpus on every run.
fuzz-smoke:
	$(GO) run ./cmd/dqbffuzz -n 200 -seed 1 -cert

# Native go-fuzz harnesses, run briefly from the committed corpora: the
# DQDIMACS reader (no panics; the same formula or error text as the
# reference line reader; accepted input round-trips), the one AIGER
# parser (no panics; accepted input normalizes to a read/write fixpoint)
# and the problem encoding over it, the certificate wire decoder (no panics;
# Encode→Decode→Encode fixpoint; Check returns), the certificate checker's
# two deciders (same verdict on every decoded certificate for Example 1),
# the AIG compose/cofactor identities the certificate extractor relies on,
# the universal expansion (every accepted input is valid; the full
# grounding's SAT verdict equals brute force), the cone-scoped SAT solve on
# byte-built Tseitin AND-graphs (its verdict equals an unscoped and a fresh
# solver's; a Sat model is consistent inside the scope and extends by
# evaluating the gates), the AIG sweep (the function is unchanged; a cone
# of at most 9 inputs makes no SAT call), the exhaustive enumerator on
# byte-built AIGs of 12 inputs (Graph.Exhaustive's verdict and first
# falsifier, and a pair's first differing assignment, equal Eval's), CNF
# preprocessing (no failure; every clause left is sorted, duplicate-free
# and non-tautological; the verdict equals brute force), and HQS's linear
# phase on byte-built QBFs, with and without the final SAT call (the verdict
# equals brute force; every SAT certificate checks), and the trace
# recorder's packed log (byte-built events decode to exactly what was
# emitted).
fuzz-native:
	$(GO) test ./internal/dqbf -run '^$$' -fuzz FuzzDQDIMACSReader -fuzztime 10s
	$(GO) test ./internal/dqbf -run '^$$' -fuzz '^FuzzGround$$' -fuzztime 10s
	$(GO) test ./internal/aig -run '^$$' -fuzz '^FuzzAIGERReader$$' -fuzztime 10s
	$(GO) test ./internal/problem -run '^$$' -fuzz FuzzAIGERReader -fuzztime 10s
	$(GO) test ./internal/cert -run '^$$' -fuzz FuzzCertDecode -fuzztime 10s
	$(GO) test ./internal/cert -run '^$$' -fuzz '^FuzzCertCheck$$' -fuzztime 10s
	$(GO) test ./internal/aig -run '^$$' -fuzz '^FuzzAIGCompose$$' -fuzztime 10s
	$(GO) test ./internal/sat -run '^$$' -fuzz '^FuzzSolveWithin$$' -fuzztime 10s
	$(GO) test ./internal/aig -run '^$$' -fuzz '^FuzzSweep$$' -fuzztime 10s
	$(GO) test ./internal/aig -run '^$$' -fuzz '^FuzzExhaustive$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzPreprocess$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzLinearPhase$$' -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzRecorder$$' -fuzztime 10s

# Chaos drill under the race detector: fault-injected panics, errors, and
# spurious Unknowns against the scheduler with concurrent submits, cancels,
# and drains, and two schedulers with different plans side by side.
chaos:
	$(GO) test -race -run 'TestChaos|TestDrainRace' -v ./internal/service

# Disk-fault chaos drill for the persistent store, also under the race
# detector: kill-and-restart durability, torn writes, truncations, bit
# flips, journal tails torn mid-append, concurrent readers/writers, and the
# store.read/store.write/store.corrupt fault points driven against a live
# scheduler (verdicts must never change, only hit rates).
chaos-store:
	$(GO) test -race -run 'TestStore|TestEntry|TestSchedulerStore' -v ./internal/store ./internal/service

# The PR gate: vet, the gofmt check, the export ratchet, the full test suite, the race pass, the certified fuzz
# smoke, the native fuzz harnesses, both chaos drills, the daemon and cluster
# smokes, one iteration of each sweep benchmark, the nested benchmark module
# (so an internal API change that breaks perfbench/ fails here), and the
# quick bench gate. Each step is defined once, by its own target.
check: vet fmt exports test race fuzz-smoke fuzz-native chaos chaos-store serve-smoke cluster-smoke bench-sweep-smoke
	cd perfbench && $(GO) vet . && $(GO) test .
	$(MAKE) bench-gate-quick

# End-to-end service smoke tests: build hqsd, start it, solve the example
# instance over HTTP in portfolio mode, drain gracefully via SIGTERM; then
# the persistence drill — solve with -store, kill -9, restart, and the
# result must be served from disk with its certificate re-verified; then the
# -faults drill — one plan from the flag fails the first dispatch and the
# first engine attempt of the next job, which the retry answers, and a plan
# naming an unregistered point is refused; then hqs itself refuses a retired
# engine name with the unknown-engine error, and hqs -stats names the
# deciding pass and counts the main loop's unit/pure eliminations.
serve-smoke:
	$(GO) test -tags smoke -run 'TestServeSmoke|TestStoreKillRecoverySmoke|TestServeFaultsSmoke' -v ./cmd/hqsd
	$(GO) test -tags smoke -run 'TestHQSRetiredEngineSmoke|TestHQSStatsSmoke' -v ./cmd/hqs

# End-to-end cluster smoke: build hqsd and hqsc, start two workers under a
# coordinator, solve the example through the cluster with a certificate,
# SIGKILL one worker (the kill-one drill — the survivor must keep answering
# and /stats must mark the victim unreachable), then drain gracefully.
cluster-smoke:
	$(GO) test -tags smoke -run TestClusterSmoke -v ./cmd/hqsc

# SAT-core microbenchmarks (propagation throughput, clause arena behavior).
bench-sat:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sat

# Sweep wall-clock: a redundant cone, a cone of false candidates, and
# consecutive sweeps on one oracle pool.
bench-sweep:
	$(GO) test -run '^$$' -bench 'BenchmarkSweep' -benchmem ./internal/aig

# One iteration of each sweep benchmark, so their guards (every cone merges,
# reaches SAT, or refutes by simulation, as it was built to) run in the gate.
bench-sweep-smoke:
	$(GO) test -run '^$$' -bench BenchmarkSweep -benchtime 1x ./internal/aig

# Coordinator layer: a plain forward and a k=2 cube fan over two in-process
# single-slot workers, reporting worker-reqs/op (HTTP round trips to the
# workers per solve) next to ns/op.
bench-cluster:
	$(GO) test -run '^$$' -bench BenchmarkClusterSolve -benchmem ./internal/cluster

# End-to-end paper evaluation benchmarks (Table I, Fig. 4, ablations).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Write a new benchmark baseline on the PEC families plus the BENCH-ingested
# adder-miter circuit family to BENCH_pr$(PR).json, never over an older one:
#   make baseline PR=N
baseline:
	@test -n "$(PR)" || { echo "usage: make baseline PR=<number>" >&2; exit 2; }
	$(GO) run ./cmd/dqbfbench -family adder,bitcell,pec_xor,circuit -count 6 -baseline BENCH_pr$(PR).json

# Newest committed baseline by PR number. `sort -V` (version sort), not make's
# lexical $(lastword): pr10 must beat pr6.
LATEST_BASELINE = $$(ls BENCH_pr*.json | sort -V | tail -1)

# Regression gate: rerun the baseline campaign and fail if any family solves
# fewer instances or its wall time grows >10% over the newest committed
# BENCH_prN.json. Run on the baseline host; thresholds assume an idle machine.
bench-gate:
	$(GO) run ./cmd/dqbfbench -family adder,bitcell,pec_xor,circuit -count 6 -gate $(LATEST_BASELINE)

# Quick-mode smoke for `make check`: same campaign, generous +100% threshold —
# catches solved-count losses and order-of-magnitude slowdowns without CI
# timing noise failing the build.
bench-gate-quick:
	$(GO) run ./cmd/dqbfbench -family adder,bitcell,pec_xor,circuit -count 6 -gate $(LATEST_BASELINE) -gate-threshold 1.0

# Diff two committed baselines: make bench-compare OLD=BENCH_pr1.json NEW=BENCH_pr6.json
bench-compare:
	$(GO) run ./cmd/dqbfbench -compare $(OLD),$(NEW)

# Size of the design: non-test Go lines (perfbench/ excluded) and the
# exported func/method count of every package under internal/, with the
# total first.
loc:
	@echo "non-test Go lines: $$(cat $$(git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/') | wc -l)"
	@total=0; lines=""; for d in $$($(GO) list -f '{{.Dir}}' ./internal/...); do \
		p=$${d#$$PWD/}; n=$$($(GO) doc -all ./$$p | grep -c '^func'); \
		total=$$((total + n)); lines="$$lines$$p $$n\n"; done; \
		echo "exported funcs/methods under internal/: $$total"; printf "$$lines" | sed 's/^/  /'

