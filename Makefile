GO ?= go

# Benchmarks covered by `make bench` — the relay/routing fast path.
BENCH_HOT = BenchmarkDistributorRelay$$|BenchmarkDistributorRelayLarge|BenchmarkDistributorRelayParallel|BenchmarkURLTableLookup|BenchmarkHTTPParse|BenchmarkConnPool|BenchmarkMappingTable

# Response-cache benchmarks, archived separately (BENCH_cache.json): hit,
# cold miss, and coalesced miss through the live distributor.
BENCH_CACHE = BenchmarkDistributorCacheHit|BenchmarkDistributorCacheColdMiss|BenchmarkDistributorCacheCoalescedMiss

# Telemetry benchmarks (BENCH_telemetry.json): the lock-free metrics core
# and the fully-traced relay, which must add 0 allocs/op over the
# untraced relay.
BENCH_TELEMETRY = BenchmarkTelemetryObserve|BenchmarkDistributorRelayTraced|BenchmarkJournalRecord

# Admission benchmarks (BENCH_admission.json): the per-request overload
# decision, which must stay at 0 allocs/op.
BENCH_ADMISSION = BenchmarkAdmissionDecision

# Management-plane benchmarks (BENCH_mgmt.json): one console insert on two
# nodes through both wire hops, and one replica move between two nodes;
# their MB/s is what the frame codec and the copy-once data path bought.
BENCH_MGMT = BenchmarkMgmtInsert|BenchmarkMgmtReplicate

.PHONY: all vet lint lint-audit build test race stress chaos sim bench bench-check allocguard loc ci

all: ci

vet:
	$(GO) vet ./...

# Static analysis: the repo's own distlint suite always runs; staticcheck
# and govulncheck run when installed (CI pins their versions; locally
# they are optional so a bare toolchain can still lint).
lint:
	$(GO) run ./cmd/distlint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping"; \
	fi

# The lint audit (DESIGN.md §15): every analyzer distlint keeps must still
# report the mutations that earned it its place. A bar for the next
# analyzer proposed, too: it joins the suite with rows of its own that no
# test, -race, stress or allocguard run catches.
lint-audit:
	$(GO) test -count=1 -run TestLintAudit ./internal/lint/distlint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Local race lane: -short keeps the slow simulation tests out of the
# edit-compile loop. CI's dedicated race job runs the full suite
# (`go test -race ./...`) without -short.
race:
	$(GO) test -race -short ./...

# Lifecycle stress: the networked packages five times over on two
# threads, where shutdown races (a connection registering after Close has
# swept the set) show up as a hung Close instead of passing by luck.
# internal/lifecycle is the one accept loop and connection set, and
# TestServerLifecycle (root) holds its seven users to its contract;
# internal/core is in because Cluster.Close and NodeHandle.Close are the
# shutdown order of the deployed binaries; internal/mgmt because a broker
# holds client connections to its peers as well as serving its own.
stress:
	GOMAXPROCS=2 $(GO) test -count=5 ./internal/lifecycle ./internal/backend ./internal/distributor ./internal/conntrack ./internal/core ./internal/mgmt ./internal/nfs ./internal/l4router ./internal/monitor
	GOMAXPROCS=2 $(GO) test -count=5 -run TestServerLifecycle .

# Non-test Go outside bench/ and testdata/: the figure the ROADMAP's
# deletion target and every simplicity PR's before/after are quoted in.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l

# Just the chaos suite. Override the scenario seeds with
# CHAOS_SEED=<n> make chaos to replay a failing schedule.
chaos:
	$(GO) test -race -run 'TestChaos' -v .

# Scenario smoke: the compressed flash-crowd recovery check plus the
# byte-determinism replay, both under the race detector. The day-long
# acceptance run stays in plain `make test` (it needs no -race).
sim:
	$(GO) test -race -run 'TestScenarioDeterministicReplay|TestScenarioFlashCrowdRecovery|TestExampleScenarioFilesMatchBuiltins' -v .

# Hot-path benchmarks with allocation counts, archived as JSON so runs can
# be diffed across commits (BENCH_relay.json and BENCH_cache.json are the
# current snapshots).
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_HOT)' -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_relay.json
	@cat BENCH_relay.json
	$(GO) test -run '^$$' -bench '$(BENCH_CACHE)' -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_cache.json
	@cat BENCH_cache.json
	$(GO) test -run '^$$' -bench '$(BENCH_TELEMETRY)' -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_telemetry.json
	@cat BENCH_telemetry.json
	$(GO) test -run '^$$' -bench '$(BENCH_ADMISSION)' -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_admission.json
	@cat BENCH_admission.json
	$(GO) test -run '^$$' -bench '$(BENCH_MGMT)' -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_mgmt.json
	@cat BENCH_mgmt.json

# Regression gates. A fast -benchtime=100x pass is enough for the
# allocs/op gate because allocation counts are deterministic; the
# throughput (MB/s) gate on the large-body relay runs at the default
# benchtime so the number is meaningful, and fails when mb_per_sec drops
# more than 10% below the archived snapshot. The management insert
# crosses six sockets and two more goroutine hand-offs per operation
# (the replica move, four and two), so on a shared box their MB/s
# swings 3x between a quiet minute and a busy one; the gate is
# therefore wide (fail below 15% of the snapshot). What it exists to
# catch — file bytes going back into the JSON envelope — is a 13x drop
# at 1 MiB.
allocguard:
	$(GO) test -run '^$$' -bench 'BenchmarkDistributorRelay$$' -benchtime=100x -benchmem . \
		| $(GO) run ./cmd/benchguard -snapshot BENCH_relay.json
	$(GO) test -run '^$$' -bench 'BenchmarkDistributorRelayTraced$$' -benchtime=100x -benchmem . \
		| $(GO) run ./cmd/benchguard -snapshot BENCH_telemetry.json
	$(GO) test -run '^$$' -bench 'BenchmarkDistributorRelayLarge' -benchmem . \
		| $(GO) run ./cmd/benchguard -snapshot BENCH_relay.json
	$(GO) test -run '^$$' -bench 'BenchmarkAdmissionDecision$$' -benchtime=100x -benchmem . \
		| $(GO) run ./cmd/benchguard -snapshot BENCH_admission.json -tolerance 0
	$(GO) test -run '^$$' -bench 'BenchmarkJournalRecord$$' -benchtime=100x -benchmem . \
		| $(GO) run ./cmd/benchguard -snapshot BENCH_telemetry.json -tolerance 0
	$(GO) test -run '^$$' -bench '$(BENCH_MGMT)' -benchmem . \
		| $(GO) run ./cmd/benchguard -snapshot BENCH_mgmt.json -tolerance 8 -mbps-tolerance 0.85

# The end-to-end harness in bench/ is its own module and compiles against
# this one's packages, so nothing above builds it. Vet and test it with
# the build cache and temporary files where bench/run.sh keeps them.
bench-check: export GOCACHE = $(CURDIR)/.bench_build/gocache
bench-check: export GOTMPDIR = $(CURDIR)/.bench_build/tmp
bench-check:
	mkdir -p $(GOCACHE) $(GOTMPDIR)
	cd bench && $(GO) vet ./... && $(GO) test ./...

ci: vet lint lint-audit build test bench-check race allocguard
