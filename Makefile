# Developer entry points mirroring .github/workflows/ci.yml.

GO ?= go
FUZZTIME ?= 10s

# Pinned external linter versions — keep in sync with ci.yml.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

# Pipeline benchmarks recorded by bench-baseline into BENCH_pipeline.json.
# The three simulate rows stay on the normal tolerance: each iteration
# runs its own seed, so their allocs/op moves by a count or two with b.N.
PIPELINE_BENCH = ^Benchmark(SimulateRun|SimulateRunNSA|SimulateToPipeline|Emit|StreamParse|StreamParseObserved|ParseReuse|ParseToPipeline|StreamCorruptParse|Extract|StreamDetect|JournalAppend)$$

# Benchmarks whose allocs/op regressions fail bench-compare at ANY
# growth: the parse rows parse one fixed capture — the corrupt-parse row
# one capture damaged with one fixed fault seed, which pins the lenient
# parser's fallback paths — and the extract and detect rows fold and
# scan one fixed run, so their allocation count is exactly reproducible
# and pins its figure with no tolerance window to hide in.
STRICT_ALLOC_BENCH = ^Benchmark(StreamParse|StreamParseObserved|ParseReuse|ParseToPipeline|StreamCorruptParse|Extract|StreamDetect)$$

.PHONY: all build lint loopvet loopvet-stats staticcheck vulncheck test bench-module crash-resume fuzz bench bench-baseline bench-compare clean

all: build lint test bench-module

build:
	$(GO) build ./...

# lint runs the in-repo suite plus go vet and the gofmt gate;
# staticcheck/govulncheck are separate targets because they download
# tools on first use.
lint: loopvet
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

# The budget bounds any single analyzer's wall time (the callgraph
# build counts as its own entry); a breach fails the target like a
# finding would. Keep in sync with ci.yml.
LOOPVET_BUDGET ?= 30s

loopvet:
	$(GO) run ./cmd/loopvet -budget $(LOOPVET_BUDGET) ./...

# loopvet-stats writes the machine-readable per-analyzer cost/yield
# report CI uploads as an artifact.
loopvet-stats:
	$(GO) run ./cmd/loopvet -budget $(LOOPVET_BUDGET) -json ./... > loopvet-stats.json

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

test:
	$(GO) test -race ./...

# bench-module vets and tests loopbench. bench/ is its own Go module, so
# the root ./... never compiles it; without this a change to an API the
# benchmark calls would pass the gates above and break loopbench. Its
# tests include a -smoke run of every workload.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# crash-resume runs the resilience suite: checkpoint journal salvage,
# the engine's kill-and-resume tests (the every-interruption-point
# resume property among them), and the cmd/campaign SIGTERM
# kill-and-resume e2e against the pinned goldens.
crash-resume:
	$(GO) test -race ./internal/checkpoint
	$(GO) test -race -run '^(TestPropertyResumeFromEveryInterruptionPoint|TestCrossWorkerResume|TestRepeatedCrashesConverge|TestCrashAtJournalSize)$$' ./internal/campaign
	$(GO) test -race -run 'TestCheckpointedRunMatchesGolden|TestSinkStreamsDecodableRecords|TestSIGTERMKillAndResume' ./cmd/campaign

fuzz:
	$(GO) test -run=NONE -fuzz=FuzzSetEqual$$ -fuzztime=$(FUZZTIME) ./internal/cell
	$(GO) test -run=NONE -fuzz=FuzzParse$$ -fuzztime=$(FUZZTIME) ./internal/sig
	$(GO) test -run=NONE -fuzz=FuzzParseLenient$$ -fuzztime=$(FUZZTIME) ./internal/sig
	$(GO) test -run=NONE -fuzz=FuzzStreamParity$$ -fuzztime=$(FUZZTIME) ./internal/sig
	$(GO) test -run=NONE -fuzz=FuzzParseBytes$$ -fuzztime=$(FUZZTIME) ./internal/sig
	$(GO) test -run=NONE -fuzz=FuzzAppendFloat1$$ -fuzztime=$(FUZZTIME) ./internal/sig
	$(GO) test -run=NONE -fuzz=FuzzInjectorParity$$ -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run=NONE -fuzz=FuzzHeaderTime$$ -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run=NONE -fuzz=FuzzStreamDetectParity$$ -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzDecodeRecord$$ -fuzztime=$(FUZZTIME) ./internal/campaign
	$(GO) test -run=NONE -fuzz=FuzzScan$$ -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run=NONE -fuzz=FuzzJournalLineParity$$ -fuzztime=$(FUZZTIME) ./internal/checkpoint

# bench is the smoke run CI performs: every benchmark compiles and
# executes once; full-study benchmarks skip themselves under -short.
bench:
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./...

# bench-baseline refreshes the committed pipeline benchmark baseline.
# Run it on a quiet machine; the JSON carries no timestamps, so the diff
# shows only real performance movement.
bench-baseline:
	$(GO) test -run='^$$' -bench='$(PIPELINE_BENCH)' -benchmem -count=1 . \
		| $(GO) run ./cmd/benchjson > BENCH_pipeline.json

# bench-compare reruns the pipeline benchmarks and diffs them against
# the committed baseline: B/op or allocs/op growth beyond 2% fails,
# ns/op drift is informational (wall time is machine-dependent), and
# the parse benchmarks get zero allocs/op tolerance (-strict-allocs).
bench-compare:
	$(GO) test -run='^$$' -bench='$(PIPELINE_BENCH)' -benchmem -count=1 . \
		| $(GO) run ./cmd/benchjson -compare BENCH_pipeline.json \
			-strict-allocs '$(STRICT_ALLOC_BENCH)'

clean:
	$(GO) clean ./...
