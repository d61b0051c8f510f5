# CI entry points. `make ci` is the full gate: vet, gofmt, build, the whole
# test suite, and the race-detector pass over the concurrent packages
# (the parallel pool, the harness cell fan-out, and the simulators whose
# Run contracts promise read-only program sharing). `make bench-micro`
# runs every layer's own microbenchmarks; `make bench-ab` is the A/B gate
# of the repository benchmark.

GO ?= go

.PHONY: ci check vet fmt-check build test test-short memopt-wide smoke loc tier1-time profile-sim profile-compile bench-test race race-compile soak bench bench-ledger bench-ab bench-micro fuzz fuzz-diff corpus

ci: vet fmt-check build test race

# check is the fast pre-commit gate: vet + gofmt + build + tests (no full race
# pass — the simulator engine itself runs on one goroutine; `make race`
# covers the harness -j fan-out and the service), plus the compile path's
# stages and the short service soak under -race, a corpus-differential fuzz
# smoke, the benchmark module's own smoke tests, a run of the examples
# and the compile / run / simulate commands, the suite under -short, and
# the memory tier against its reference on the wide corpus.
check: vet fmt-check build test test-short memopt-wide smoke bench-test race-compile soak fuzz-diff

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would rewrite any file of either module.
fmt-check:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/'); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-short runs the suite as `go test -short` does: the smaller program
# sets several tests fall back to must still exercise what they check. Part
# of `make check`; not part of tier-1.
test-short:
	$(GO) test -short ./...

# memopt-wide holds the memory tier to its map-based reference (the passes
# as first written, kept in internal/cfgir/reference_test.go) on 1,022
# builds: CorpusSpecs(300, 1), CorpusSpecs(200, 7), the kernels and a wide
# block, each at unroll 1 and 4 — IR text and every MemOptStats counter.
# Tier-1 runs the same test on the kernels and CorpusSpecs(100, 1). Part of
# `make check`.
memopt-wide:
	$(GO) test -count=1 -run '^TestOptimizeMemoryMatchesMapReference$$' ./internal/cfgir -memopt-wide

# smoke starts what `go test` cannot, because it has no test files: the five
# examples, and wavec -stats, wavec -select -dot main, waverun, wavesim
# -baseline -metrics and wavesim -mem spec -trace -trace-chrome on a small
# wsl program, then waverun on its binary printed by wavec -unroll 1
# (scripts/smoke.sh). Any non-zero exit fails it. Part of `make check`; not
# part of tier-1.
smoke:
	GO=$(GO) bash scripts/smoke.sh

# loc prints the line counts of the tracked Go files outside bench/: the
# non-test files, then the tests, then the non-test lines of each package
# (directory), largest first. The ROADMAP's state paragraph quotes the first
# number; a simplicity change's before and after is one run on each commit.
loc:
	@git ls-files -z '*.go' ':!bench/' ':!*_test.go' | xargs -0 cat | wc -l | sed 's/^/non-test Go lines: /'
	@git ls-files -z '*_test.go' ':!bench/' | xargs -0 cat | wc -l | sed 's/^/test Go lines:     /'
	@echo 'non-test Go lines by package:'
	@git ls-files -z '*.go' ':!bench/' ':!*_test.go' | xargs -0 wc -l | \
		awk '$$2 != "total" { d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1 } END { for (d in n) printf "%7d  %s\n", n[d], d }' | \
		sort -k1,1nr -k2,2

# tier1-time is the instrument for what the tier-1 suite costs, not part of
# it: one uncached `go test -json` pass over the module with every test
# binary started through scripts/tier1time.py, which reads the binary's
# user+sys CPU seconds from rusage. It prints the 20 slowest tests and, per
# package, wall and CPU seconds; the raw stream stays in $(T1DIR). Compare
# two commits by running it on each, alternating — the host drifts.
T1DIR ?= .bench_build/tier1

tier1-time:
	rm -rf $(T1DIR) && mkdir -p $(T1DIR)
	$(GO) test -json -count=1 -exec 'python3 $(abspath scripts/tier1time.py) exec $(abspath $(T1DIR))/rusage.tsv' ./... > $(T1DIR)/test.json; \
		status=$$?; \
		python3 scripts/tier1time.py report $(T1DIR)/test.json $(T1DIR)/rusage.tsv; \
		exit $$status

# profile-sim is the instrument an engine change opens with, not part of
# tier-1: a CPU profile of the simulator core alone —
# BenchmarkRunKernel/wave-ordered, mcf on a warm 4x4 arena — written under
# $(PROFDIR) beside the test binary it needs, then pprof's flat top, so the
# change can name the profile share of what it targets.
PROFDIR ?= .bench_build/profile

profile-sim:
	mkdir -p $(PROFDIR)
	$(GO) test -run '^$$' -bench '^BenchmarkRunKernel$$/^wave-ordered$$' -benchtime 3s \
		-cpuprofile $(abspath $(PROFDIR))/sim.cpu.out -o $(abspath $(PROFDIR))/wavecache.test ./internal/wavecache
	$(GO) tool pprof -top -nodecount 40 $(PROFDIR)/wavecache.test $(PROFDIR)/sim.cpu.out

# profile-compile is profile-sim's twin for the compile path, not part of
# tier-1: a CPU profile of BenchmarkCompileSource (every binary and the
# reference runs at both optimizer tiers) and pprof's flat top, the share
# a compile host-speed change opens with.
profile-compile:
	mkdir -p $(PROFDIR)
	$(GO) test -run '^$$' -bench '^BenchmarkCompileSource$$' -benchtime 2s \
		-cpuprofile $(abspath $(PROFDIR))/compile.cpu.out -o $(abspath $(PROFDIR))/harness.test ./internal/harness
	$(GO) tool pprof -top -nodecount 40 $(PROFDIR)/harness.test $(PROFDIR)/compile.cpu.out

# bench/ is its own module (replace wavescalar => ../), so the root
# `go vet ./...` and `go test ./...` do not reach it: this is the fence
# that keeps it compiling against the packages it imports.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The harness package alone runs ~10 minutes under the race detector (the
# full experiment suite at race-instrumented speed), so the pass needs more
# than go test's default 10-minute per-package timeout.
race:
	$(GO) test -race -timeout 30m ./internal/parallel ./internal/harness ./internal/wavecache ./internal/ooo ./internal/fault ./internal/noc ./internal/waveorder ./internal/trace ./internal/tagtable ./internal/serve ./internal/cfgir ./internal/placemodel ./internal/lang ./internal/wavec ./internal/linear

# race-compile is the part of the race pass that belongs in the pre-commit
# gate: one CompileSource runs its stages — evaluator, emulator, the
# lowerings — on goroutines of their own, so the tests that drive it, the
# passes it overlaps and waved's compile cache run under the detector on
# every check (well under a minute; the full harness pass above is ten).
race-compile:
	$(GO) test -race -run 'TestCompileSource|TestIfConvert|TestEvaluatorsShareAFile|TestCompileCache' ./internal/harness ./internal/cfgir ./internal/lang ./internal/serve

# soak hammers the waved service layer under the race detector: hundreds
# of concurrent mixed requests across multiple tenants against an
# undersized server, asserting byte-identical results, structured
# shedding, prompt deadline cancellation, a clean drain, and no goroutine
# leaks (see internal/serve/soak_test.go). SOAKFLAGS=-short runs the
# abbreviated version.
SOAKFLAGS ?=

soak:
	$(GO) test -race -run 'TestSoak' -v $(SOAKFLAGS) ./internal/serve

# fuzz runs the native fuzz targets for a short burst — a smoke pass, not
# a soak; crashes land in testdata/fuzz/ as usual. FuzzServeRequests sends
# arbitrary bodies to waved's three POST endpoints; FuzzLoadAndRun runs
# whatever assembly the loader accepts on the interpreter and in the four
# WaveCache memory modes, each under a small bound. FUZZMIN bounds the
# minimization of each new interesting input, which at Go's default of 60s
# can spend the whole burst on a handful of inputs.
FUZZTIME ?= 10s
FUZZMIN ?= 2s

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN) ./internal/asm
	$(GO) test -run='^$$' -fuzz=FuzzServeRequests -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN) ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzLoadAndRun -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN) .

# fuzz-diff is the corpus-differential smoke: generated programs across
# all workload families, each checked for agreement across the seven
# engines of harness.Engines (see
# internal/testprogs/differential_fuzz_test.go) — and then arbitrary bytes
# as a cell-cache segment: open never fails and a Get that hits is vouched
# for by its record (internal/harness/cellcache_test.go).
DIFFFUZZTIME ?= 20s
CACHEFUZZTIME ?= 10s

fuzz-diff:
	$(GO) test -run='^$$' -fuzz=FuzzDifferential -fuzztime=$(DIFFFUZZTIME) ./internal/testprogs
	$(GO) test -run='^$$' -fuzz=FuzzCellCacheOpen -fuzztime=$(CACHEFUZZTIME) ./internal/harness

# corpus runs the E13 sweep in miniature: 250 generated programs (50
# seeds per family). The full acceptance sweep is
#   go run ./cmd/waveexp -corpus 500 -corpus-seed 1
# and CORPUS/CORPUSFLAGS parameterize either (e.g.
#   make corpus CORPUSFLAGS='-cache-dir .corpus-cache -resume').
CORPUS ?= 250
CORPUSFLAGS ?=

corpus:
	$(GO) run ./cmd/waveexp -corpus $(CORPUS) -corpus-seed 1 $(CORPUSFLAGS)

# bench regenerates every experiment table on the reduced configuration
# (BenchmarkExperiment/<ID>, one sub-benchmark per harness.Experiments
# entry) and the harness worker-pool wall-clock comparison
# (BenchmarkHarnessCells{Sequential,Parallel}).
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-micro runs the microbenchmarks the layers keep beside their tests
# (compiler passes against their references, AST evaluator, IR clone, the
# linear emulator untraced (the compile path's checksum run) and traced (the
# out-of-order model's front end), tag
# table, wave-order buffer, operand network, the cache hierarchy's access
# and its Reset with and without a grid change, the simulator's event
# queue, arenas and one kernel per memory mode, interpreters, what a run
# pays each placement policy
# (construction plus every instruction's first Assign), the placement
# model's Evaluate on one kernel layout, waved's cold / warm / replay
# request over loopback and the live heap its compile cache retains for
# 200 steer binaries, the whole CompileSource — every binary, and the
# steer binary alone as waved's cold path asks for it — and the cell
# cache's Put
# and Get at an iteration count that seals several segments, so their
# fsyncs are in the number) — one command for "each stage has its own
# benchmark". For -count, -benchtime or
# -cpuprofile run `go test` on the package directly.
bench-micro:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/lang ./internal/cfgir ./internal/wavec ./internal/linear ./internal/tagtable ./internal/waveorder ./internal/noc ./internal/mem ./internal/wavecache ./internal/interp ./internal/ooo ./internal/placement ./internal/placemodel ./internal/serve
	$(GO) test -run '^$$' -bench 'BenchmarkCompileSource$$' -benchmem ./internal/harness
	$(GO) test -run '^$$' -bench 'BenchmarkCellCache' -benchtime 20000x -benchmem ./internal/harness

# bench-ledger runs the repository benchmark (BENCHMARK.json, bench/) end
# to end: every workload once untraced (the end-to-end metrics) and once
# traced (the per-layer metrics), appended to $(LEDGER) as run records,
# then summarised. The .jsonl is scratch output; commit a summary.
BENCHWORKLOADS ?= sim-kernels sim-memmodes compile-corpus exp-suite serve-mix
BENCHSEED ?= 1
LEDGER ?= bench.ledger.jsonl

bench-ledger:
	rm -f $(LEDGER)
	for w in $(BENCHWORKLOADS); do \
		for t in 0 1; do \
			bash bench/run.sh --workload $$w --seed $(BENCHSEED) --seconds 15 --trace $$t -out $(LEDGER) || exit 1; \
		done; \
	done
	cd bench && $(GO) run ./cmd/compare -manifest $(abspath BENCHMARK.json) -summary $(abspath $(LEDGER))

# bench-ab is the A/B gate for a performance change: export the parent
# commit, build both benchmark binaries once, and let bench/cmd/compare run
# them in interleaved pairs (alternating which side goes first — the host
# drifts, so back-to-back medians would measure the drift). It prints the
# per-metric verdicts, exits non-zero when an end-to-end metric is worse
# than its bound, and leaves the run records and the BENCH_<n>.json record
# rendered from them (scripts/benchjson.py; GOMAXPROCS under "host")
# in $(ABDIR).
#   make bench-ab PARENT=HEAD~1 [ABN=10] [ABWORKLOADS=compile-corpus,serve-mix] [ABDESC='what changed']
PARENT ?= HEAD~1
ABN ?= 10
ABWORKLOADS ?=
ABDIR ?= .bench_build/ab
ABDESC ?= $(PARENT) (parent) vs the working tree (change)

bench-ab:
	rm -rf $(ABDIR) && mkdir -p $(ABDIR)/parent
	git archive $(PARENT) | tar -x -C $(ABDIR)/parent
	cd $(ABDIR)/parent/bench && $(GO) build -o $(abspath $(ABDIR))/wsbench.parent .
	cd bench && $(GO) build -o $(abspath $(ABDIR))/wsbench.change . && $(GO) build -o $(abspath $(ABDIR))/compare ./cmd/compare
	$(ABDIR)/compare -exec -a $(ABDIR)/wsbench.parent -b $(ABDIR)/wsbench.change -n $(ABN) -seed $(BENCHSEED) -dir $(ABDIR) -workloads '$(ABWORKLOADS)'; \
		status=$$?; \
		python3 scripts/benchjson.py $(ABDIR)/a.jsonl $(ABDIR)/b.jsonl "$(ABDESC)" \
			"make bench-ab PARENT=$(PARENT) ABN=$(ABN) BENCHSEED=$(BENCHSEED) ABWORKLOADS=$(ABWORKLOADS) (bench/cmd/compare -exec: prebuilt binaries, interleaved pairs, alternating order)" \
			> $(ABDIR)/BENCH.json && echo wrote $(ABDIR)/BENCH.json; \
		exit $$status
