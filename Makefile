# Developer entry points mirroring .github/workflows/ci.yml.

GO ?= go
FUZZTIME ?= 10s

# Pinned external linter versions — keep in sync with ci.yml.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

# Pipeline benchmarks recorded by bench-baseline into BENCH_pipeline.json.
# The three simulate rows stay on the normal tolerance: each iteration
# runs its own seed, so their allocs/op moves by a count or two with b.N.
PIPELINE_BENCH = ^Benchmark(SimulateRun|SimulateRunNSA|SimulateToPipeline|Emit|Inject|StreamParse|StreamParseObserved|ParseReuse|ParseToPipeline|StreamCorruptParse|Extract|StreamDetect|JournalAppend|EncodeRecord|DecodeRecord|JournalOpen|Throughput)$$

# Benchmarks whose allocs/op regressions fail bench-compare at ANY
# growth: the parse rows parse one fixed capture — the corrupt-parse row
# one capture damaged with one fixed fault seed, which pins the lenient
# parser's fallback paths — the inject row corrupts one fixed capture
# with one fixed fault seed, the extract and detect rows fold and scan
# one fixed run, the encode and decode rows encode and decode one
# fixed record, and the journal-open row opens one fixed journal, so
# their allocation count is exactly reproducible and pins its figure
# with no tolerance window to hide in.
STRICT_ALLOC_BENCH = ^Benchmark(Inject|StreamParse|StreamParseObserved|ParseReuse|ParseToPipeline|StreamCorruptParse|Extract|StreamDetect|EncodeRecord|DecodeRecord|JournalOpen)$$

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

# Minimization is bounded to 50 execs per new input: at Go's default
# 60 s, a worker minimizing an input derived from a large seed stalls a
# target for the rest of its FUZZTIME. A target also fails below 100
# execs/s, its final execs over its final elapsed time, so one that
# stalls anyway (in minimization or in gathering baseline coverage)
# fails instead of passing on a handful of inputs.
fuzz:
	@for t in \
		./internal/cell:FuzzSetEqual \
		./internal/sig:FuzzParse \
		./internal/sig:FuzzParseLenient \
		./internal/sig:FuzzStreamParity \
		./internal/sig:FuzzParseBytes \
		./internal/sig:FuzzLineShape \
		./internal/sig:FuzzAppendFloat1 \
		./internal/faults:FuzzInjectorParity \
		./internal/faults:FuzzHeaderTime \
		./internal/core:FuzzStreamDetectParity \
		./internal/campaign:FuzzEncodeRecord \
		./internal/campaign:FuzzDecodeRecord \
		./internal/checkpoint:FuzzScan \
		./internal/checkpoint:FuzzValidJSON \
		./internal/checkpoint:FuzzJournalLineParity; do \
		pkg=$${t%:*} name=$${t#*:}; \
		echo "$(GO) test -run=NONE -fuzz=$$name\$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x $$pkg"; \
		{ $(GO) test -run=NONE -fuzz="$$name\$$" -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x $$pkg 2>&1; echo "fuzz-exit $$?"; } | \
		awk -v name=$$name '/^fuzz-exit [0-9]+$$/ { status = $$2; next } { print } \
			/^fuzz: elapsed: / { elapsed = $$3 } /^fuzz: elapsed: .*execs: / { execs = $$5 } \
			END { \
				secs = 0; \
				while (match(elapsed, /^[0-9]+[hms]/)) { \
					unit = substr(elapsed, RLENGTH, 1); \
					secs += substr(elapsed, 1, RLENGTH - 1) * (unit == "h" ? 3600 : unit == "m" ? 60 : 1); \
					elapsed = substr(elapsed, RLENGTH + 1); \
				} \
				rate = execs / (secs > 0 ? secs : 1); \
				if (status != 0) exit status; \
				if (rate < 100) { printf "%s: %d execs in %ds is %.1f execs/s, below the floor of 100\n", name, execs, secs, rate; exit 1 } \
			}' || exit 1; \
	done

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
