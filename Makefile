GO ?= go
GOFMT ?= gofmt

.PHONY: check build fmt vet lint test race bench results serve-check conformance fuzz-smoke

# check is the CI gate: compile everything, require gofmt-clean sources, vet,
# run the module's own static analysis suite (cmd/ctcplint), then the full
# test suite under the race detector (the runner stress tests exercise it
# meaningfully). The conformance corpus runs inside `race` already (it is a
# normal test package); `conformance` exists as a focused re-run, and
# `fuzz-smoke` is deliberately NOT part of check — a timed fuzz run is too
# slow and too nondeterministic for the commit gate, so CI runs it as its
# own job.
check: build fmt vet lint race

build:
	$(GO) build ./...

# fmt fails when gofmt would rewrite any Go file in the repository, listing
# the files (gofmt -w <file> fixes one).
fmt:
	@files=$$($(GOFMT) -l .); \
	if [ -n "$$files" ]; then echo "gofmt -l lists unformatted files:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs ctcplint, the stdlib-only analyzer suite in internal/lint that
# enforces the simulator's determinism and hot-path invariants (map iteration
# order, //ctcp:hotpath allocations, wall clock/ambient randomness, float
# equality, Config.Validate coverage, unchecked artifact/response writes) and
# the service tier's lock invariant on a CFG/call-graph layer: lockheld (no
# blocking I/O and no second lock while a mutex is held). A suppression
# audit rides along: stale //ctcp:lint-ok waivers fail the lint like real
# findings. Goroutine leaks are a test-time check
# (internal/leakcheck), not a lint rule.
lint:
	$(GO) run ./cmd/ctcplint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# results regenerates results_full.txt, every paper artifact (each table and
# figure plus the §5.3 ablation) at a 200k-instruction budget. The design
# sweeps are not paper artifacts and stay out (ctcpbench -exp sweeps runs
# them). The simulator is deterministic, so on an unchanged tree every number must
# reproduce exactly (only the wall-clock "[... regenerated in ...]" lines
# vary); a numeric diff after a model change is the change's measured effect
# on the paper-style results and belongs in the same commit.
results:
	$(GO) run ./cmd/ctcpbench -insts 200000 > results_full.txt

# serve-check runs the ctcpd service suite under the race detector: the
# exactly-once dedup guarantee (asserted from the outside via /metrics),
# restart-reuse from the result store, restart-replay of queued and
# interrupted jobs from their <fp>.req files, the crash windows around those
# files (TestServeDropsAnsweredRequest, TestServeReplaysHandWrittenRequest,
# TestServeIgnoresTornRequest), refusal of an older server's queue journal
# (TestServeRefusesQueueJournal), failed-fingerprint retry, FIFO dispatch
# order within and across restarts (TestServeFIFODispatch,
# TestServeFIFOAcrossRestarts), the progress event stream, job retention,
# stale-fingerprint resimulation, backpressure, the shutdown drain, and a
# ctcpbench -resume directory served as the store.
serve-check:
	$(GO) test -race -count=1 ./internal/serve/

# conformance runs the ISA conformance corpus under the race detector: every
# corpus program against its golden architectural result, emulator/pipeline
# retirement agreement under all strategies, opcode coverage, and the
# mutation-engine invariants. Golden updates: go test ./internal/conformance
# -run TestCorpusGolden -update (commit the numeric diff with its cause).
conformance:
	$(GO) test -race -count=1 ./internal/conformance/

# fuzz-smoke is the short differential-fuzz pass CI runs on every push: 30s
# of emulator-vs-timing-model cross-checking over mutated corpus programs,
# 10s of predecoded-interpreter-vs-reference lockstep over random programs,
# plus 10s of assembler roundtrip fuzzing. Divergence repros land in
# $$CTCP_REPRO_DIR (default: $$TMPDIR/ctcp-divergence) as replayable .s files.
fuzz-smoke:
	$(GO) test ./internal/conformance/ -run '^$$' -fuzz FuzzDifferential -fuzztime 30s
	$(GO) test ./internal/emu/ -run '^$$' -fuzz FuzzPredecodeMatchesReference -fuzztime 10s
	$(GO) test ./internal/asm/ -run '^$$' -fuzz FuzzAssembleRoundtrip -fuzztime 10s

# bench runs the emulator, fill-unit (BenchmarkAssign, ns/trace) and
# cycle-model benchmarks, then the repository's benchmark (cmd/ctcpperf, see
# its README) on the all-kernels FDRT workload.
bench:
	$(GO) test ./internal/emu ./internal/core ./internal/pipeline -run='^$$' -bench=. -benchmem -benchtime=1s
	bash cmd/ctcpperf/run.sh --workload kernels-fdrt --seed 1 --seconds 14 --trace 0
