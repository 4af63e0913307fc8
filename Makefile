# Build/verify targets for the ObfusMem reproduction.
#
#   make check   - tier-1 verify: build + full test suite, then vet and
#                  test the bench/ module (it imports internal packages of
#                  this module, so an API change must keep it compiling)
#   make vet     - static analysis: go vet, then fails when gofmt -l
#                  lists any tracked non-testdata .go file
#   make race    - test suite under the race detector in -short mode
#                  (runSuite's parallel fan-out, the shared metrics registry,
#                  and every concurrent test path; -short keeps CI runtime
#                  bounded and skips wall-clock assertions that race
#                  instrumentation would distort)
#   make race-full - the complete suite under the race detector
#   make bench-smoke - fast perf gate: the zero-alloc guards (event engine,
#                  obfus leg, AES pads, MD5 MAC, metrics instruments, xrand
#                  draws, every hot-path backend with metrics attached, and
#                  an obfusmem-auth machine with a wrapped span log: span,
#                  instant and request-envelope recording plus traced
#                  reads and writes),
#                  the fixed-allocation guard of the Chrome trace export,
#                  the span-log guard (at most 32 bytes per retained span
#                  on a traced obfusmem-auth run's span mix, before and
#                  after the log wraps),
#                  the chunked-log guards (a log allocates nothing before
#                  its first append and once per chunk after; over 100k
#                  records the bus tap allocates at most 44 bytes per
#                  40-byte packet record, the leakage probe at most 52 per
#                  issued request with one Issued() copy, and the
#                  attribution at most 56 per sample; the open loop's lane
#                  logs fill whole chunks and merge across them),
#                  the open-loop guard (an 8-lane run's allocations must
#                  not grow with its request count), the closed-loop guard
#                  (a cpu.Run's allocations must not grow with its request
#                  count), the read-ahead guards (a warm cpu.Run reuses an
#                  idle request pipeline and allocates less than one
#                  request block; the drive loop reads exactly the
#                  stream's requests; a producer panic reaches the caller
#                  and a budget trip stops the producer),
#                  the machine-build guard (system.New of every backend
#                  allocates under 32 KB), the page-counter guard (a
#                  ctrmode run's K extra distinct pages cost about K/64
#                  allocations, not K),
#                  the lazy-crypto guard (a bare bus, which skips command
#                  pads and MACs, matches an observed one and one with a
#                  pass-through tamperer, and each still detects counter
#                  desync), plus
#                  short benchmarks of the event engine, the AES pads, the
#                  MD5 MAC, the obfus datapath, the trace export and whole
#                  8-lane open-loop runs (ns/req and events/op), then
#                  campaign-smoke;
#                  fails if the alloc guards regress (runs in CI)
#   make fuzz-smoke - 20 s of FuzzChromeExport (the streaming Chrome
#                  export, its time order included, against the
#                  encoding/json reference exporter), then 10 s each of
#                  the external-input fuzzers FuzzParseManifest,
#                  FuzzJournalLoad and FuzzReadTrace, of
#                  FuzzEngineOrder (the event engine's firing rule) and of
#                  FuzzSummarizeWire (the open loop's loser-tree wire merge,
#                  digest and gap entropy, against a stable sort); one
#                  go test -fuzz call per target, since -fuzz takes one
#                  target, with minimization capped at 1 s a corpus entry;
#                  fails when a target's last progress line reports
#                  0 execs/s (scripts/fuzz_smoke.sh; runs in CI)
#   make campaign-smoke - end-to-end crash/resume gate: runs a small real
#                  campaign, SIGKILLs it mid-grid, resumes, and fails unless
#                  the merged results are byte-identical to an uninterrupted
#                  run (runs in CI; see EXPERIMENTS.md "Running campaigns")
#   make profile - full-suite run with pprof CPU + heap profiles written to
#                  cpu.pprof / mem.pprof (see EXPERIMENTS.md "Profiling and
#                  benchmarking" for how to read them)
#   make lint    - obfuslint: the repo's own static-analysis pass,
#                  determinism (map order; see DESIGN.md
#                  "Machine-checked invariants"), plus golangci-lint and
#                  govulncheck when installed (both skipped, not failed,
#                  when absent so the frozen toolchain image still lints)
#   make lint-fix - gofmt the tree, then re-lint
#   make ci      - everything CI runs: lint + vet + check + race +
#                  bench-smoke + fuzz-smoke
#   make linedelta BASE=<rev> - added, removed and net non-test Go lines
#                  between <rev> and the working tree (tracked files and
#                  untracked, not ignored ones, which it marks intent-to-add
#                  in a throwaway copy of the index, never the real one;
#                  _test.go files and testdata excluded): the per-change
#                  line delta ROADMAP.md asks every change to report
#   make reach   - reachability: builds the four commands (obfuslint
#                  included) and the five examples with coverage over the
#                  module, runs their product paths
#                  (scripts/reach.sh lists them), and prints every non-test
#                  function outside bench/ that never ran, with the count,
#                  then each package's share of statements reached;
#                  uses only the Go toolchain and a mktemp -d directory
#                  (not part of check or ci)
#   make trace-demo - traced run of the milc profile: Chrome trace JSON
#                  (load trace.json in Perfetto), attribution report, and
#                  a 5us metrics time series (see EXPERIMENTS.md "Tracing
#                  a run")

GO ?= go

.PHONY: check vet lint lint-fix race race-full bench-smoke fuzz-smoke campaign-smoke profile ci trace-demo linedelta reach

check:
	$(GO) build ./...
	$(GO) test ./...
	$(GO) -C bench vet .
	$(GO) -C bench test .

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go' | grep -v testdata)); \
	if [ -n "$$unformatted" ]; then \
		echo "vet: not gofmt-clean (run make lint-fix):" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

lint:
	$(GO) build ./...
	$(GO) run ./cmd/obfuslint ./...
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "lint: golangci-lint not installed; skipping (CI installs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (CI installs it)"; \
	fi

lint-fix:
	gofmt -w $$(git ls-files '*.go' | grep -v testdata)
	$(MAKE) lint

race:
	$(GO) test -race -short ./...

race-full:
	$(GO) test -race ./...

bench-smoke:
	$(GO) test -run 'TestScheduleFireZeroAllocs|TestReadWriteLegZeroAllocs|TestLazyCryptoMatchesEager|TestCTRZeroAllocs|TestComputeZeroAllocs' \
		-bench 'BenchmarkEngineChurn|BenchmarkReadWriteLeg|BenchmarkEncryptBlock64|BenchmarkCompute' \
		-benchtime 200ms -benchmem ./internal/sim ./internal/obfus ./internal/aes ./internal/md5sim
	$(GO) test -run 'TestInstrumentsZeroAllocs|TestDrawsZeroAllocs|TestDriveAllocsIndependentOfRequests|TestWarmRunAllocatesNoBlocks|TestReadAheadMatchesStream|TestProducerPanicReraised|TestSimBudgetTrips|TestPageCountersAllocatePerChunk' \
		./internal/metrics ./internal/xrand ./internal/cpu ./internal/ctrmode
	$(GO) test -run 'TestChromeExportAllocs|TestSpanLogBytesPerSpan|TestAttribBytesPerSample' -bench 'BenchmarkWriteChromeTrace' \
		-benchtime 200ms -benchmem ./internal/trace
	$(GO) test -run 'TestLogOrderAcrossChunks|TestLogAllocatesPerChunk|TestObserverBytesPerPacket|TestProbeBytesPerRequest' \
		./internal/chunklog ./internal/attack ./internal/leakage
	$(GO) test -run 'TestHotPathZeroAllocs|TestTracedHotPathZeroAllocs|TestNoSilentlyLostRequests|TestOpenLoopAllocsIndependentOfRequests|TestOpenLoopChunkedMerge|TestNewAllocBytes' \
		./internal/backend ./internal/system
	$(GO) test -run '^$$' -bench 'BenchmarkRunOpenLoop' -benchtime 200ms -benchmem ./internal/system
	$(GO) run ./cmd/obfsim -exp backends -requests 1500 > /dev/null
	$(GO) run ./cmd/obfsim -exp leakage -requests 1500 > /dev/null
	$(MAKE) campaign-smoke

fuzz-smoke:
	GO=$(GO) sh scripts/fuzz_smoke.sh

campaign-smoke:
	sh scripts/campaign_smoke.sh

profile:
	$(GO) run ./cmd/obfsim -exp all -requests 5000 \
		-cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "profiles written; inspect with: $(GO) tool pprof -top cpu.pprof"

ci: lint vet check race bench-smoke fuzz-smoke

trace-demo:
	$(GO) run ./cmd/obfsim -exp none -requests 4000 \
		-trace-out trace.json -attrib-out attrib.json \
		-sample-every 5 -sample-out samples.csv

linedelta:
	@test -n "$(BASE)" || { echo "usage: make linedelta BASE=<rev>" >&2; exit 2; }
	@idx=$$(mktemp) && trap 'rm -f "$$idx"' EXIT && \
	cp "$$(git rev-parse --git-path index)" "$$idx" && \
	GIT_INDEX_FILE="$$idx" git add -N -- '*.go' && \
	GIT_INDEX_FILE="$$idx" git diff --numstat $(BASE) -- '*.go' ':(exclude)*_test.go' ':(exclude)*/testdata/*' | \
		awk '{a += $$1; r += $$2} END {printf "non-test Go lines: +%d -%d net %+d\n", a, r, a - r}'

reach:
	sh scripts/reach.sh
