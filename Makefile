GO ?= go

.PHONY: build test vet race check chaostest gwchaostest difftest fuzz fuzzsmoke leakcheck benchcheck layercheck loc benchmark benchpair benchguard benchbaseline bench serve loadtest

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

## race: the concurrency gate — the concurrent RuleSet scanner and the
## streaming reader tests all run under the race detector.
race:
	$(GO) test -race ./...

## check: the full local CI gate — vet, everything under the race
## detector (including the goroutine-leak assertions in the fault
## matrix), the differential battery, the seeded chaos suite, then a
## short fuzz pass over the differential fuzzers, plus the benchmark
## module's own vet and tests and the import-layering check; the gate
## walk's microbenchmark runs once so it cannot rot.
check: vet race difftest leakcheck chaostest gwchaostest fuzzsmoke benchcheck layercheck
	$(GO) test -run '^$$' -bench BenchmarkLazyFirstAccept -benchtime 1x ./internal/automata

## benchcheck: the benchmark is a Go module of its own (benchmark/go.mod),
## so `go build ./... && go test ./...` at the root never compiles it;
## this keeps an API rename in core or stream from surfacing only as a
## failed benchmark run.
benchcheck:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

## layercheck: the layering the design leans on. The scale-out engine
## is the paper's §6 model and knows no skip tier — core.Engine hands it
## one per-chunk predicate — and the simulator sits below the engine
## glue and the serving shell. The serving shell itself exists once:
## the accept loop, the framing-fault half-close and the write deadline
## live in one file of server + gateway (server/shell.go), and the typed
## client ops in one file of the client (client/ops.go), so neither
## front end nor Pool can grow its own copy back. The pull-mode stream
## driver exists once too: stream.Window's Fill has one caller under
## internal/ (RuleSet.ScanReaderCtx, which an Engine's reader scans run
## through), so a second pull loop cannot grow back beside it. And no
## per-request context grows back on the routing path: the backend
## client's reused attempt timer is the one bound on a shard leg, so
## context.WithTimeout/WithDeadline occur in non-test gateway and client
## code only for the health prober's ping. Nor is a session chunk ever
## copied into a body on the client or relay path: both write a head
## they encoded once ahead of the chunk, so EncodeSessionData( occurs in
## no non-test gateway or client code.
SHELL_SRC  = $(filter-out %_test.go,$(wildcard internal/server/*.go internal/gateway/*.go))
CLIENT_SRC = $(filter-out %_test.go,$(wildcard internal/server/client/*.go))
ROUTE_SRC  = $(filter-out %_test.go,$(wildcard internal/gateway/*.go internal/server/client/*.go))
layercheck:
	@! $(GO) list -deps ./internal/multicore | grep -E '^alveare/internal/(approx|automata|prefilter)$$' \
		|| { echo "layercheck: internal/multicore must not import a skip tier"; exit 1; }
	@! $(GO) list -deps ./internal/arch | grep -E '^alveare/internal/(core|server|gateway)(/|$$)' \
		|| { echo "layercheck: internal/arch must not import core, server or gateway"; exit 1; }
	@for pat in '.Accept()' 'CloseWrite()' 'SetWriteDeadline('; do \
		n=$$(grep -lF -- "$$pat" $(SHELL_SRC) | wc -l); [ $$n -eq 1 ] \
			|| { echo "layercheck: $$pat occurs in $$n non-test files of internal/server + internal/gateway, want exactly 1"; exit 1; }; \
	done
	@n=$$(grep -lF -- 'server.DecodeMatches(' $(CLIENT_SRC) | wc -l); [ $$n -eq 1 ] \
		|| { echo "layercheck: server.DecodeMatches( occurs in $$n non-test files of internal/server/client, want exactly 1"; exit 1; }
	@n=$$(grep -rF --include='*.go' --exclude='*_test.go' -- '.Fill(' internal | wc -l); [ $$n -eq 1 ] \
		|| { echo "layercheck: .Fill( has $$n non-test callers under internal/, want exactly 1 (the one pull-mode driver)"; exit 1; }
	@hits=$$(grep -nE 'context\.With(Timeout|Deadline)\(' $(ROUTE_SRC) | grep -vF 'context.WithTimeout(context.Background(), bs.probeEvery)'); [ -z "$$hits" ] \
		|| { echo "layercheck: a per-request context in non-test gateway/client code (the attempt timer bounds a shard leg):"; echo "$$hits"; exit 1; }
	@hits=$$(grep -nF 'EncodeSessionData(' $(ROUTE_SRC)); [ -z "$$hits" ] \
		|| { echo "layercheck: EncodeSessionData( in non-test gateway/client code (a chunk follows its session head, never copied into a body):"; echo "$$hits"; exit 1; }

## loc: the north-star statistic of ROADMAP aim 2 — non-test Go code
## lines (blank and //-only lines excluded) of the serving shell beside
## those of the paper's subject and of the engine glue that wires the
## subject's tiers into scans, one line per package plus each group's sum.
LOC_SHELL   = internal/server internal/gateway internal/server/client
LOC_SUBJECT = internal/isa internal/syntax internal/ir internal/backend internal/arch
LOC_GLUE    = internal/core internal/stream
loc:
	@for group in "serving shell:$(LOC_SHELL)" "paper's subject:$(LOC_SUBJECT)" "engine glue:$(LOC_GLUE)"; do \
		sum=0; \
		for pkg in $${group#*:}; do \
			n=$$(ls $$pkg/*.go | grep -v _test.go | xargs cat | grep -cvE '^[[:space:]]*(//.*)?$$'); \
			printf '%6d  %s\n' $$n $$pkg; sum=$$((sum + n)); \
		done; \
		printf '%6d  %s\n' $$sum "$${group%%:*} (sum)"; \
	done

## benchmark: the scan fleet's one benchmark (benchmark/README.md) — all
## five workloads, every answer checked against the oracle. BENCH_FLAGS
## passes through, e.g. `make benchmark BENCH_FLAGS="--workload gw-scan
## --out A.jsonl"`, then `BENCH_FLAGS="--compare A.jsonl B.jsonl"`.
BENCH_FLAGS ?=
benchmark:
	bash benchmark/run.sh $(BENCH_FLAGS)

## benchpair: what a perf PR measures itself with — PAIRS alternated
## runs of PARENT's benchmark and this checkout's, same seeds (2025 …),
## then `--compare` and the per-pair win count (scripts/benchpair.sh).
## `make benchpair PARENT=HEAD~1 WORKLOADS="srv-records" SECONDS=24`.
## Not part of `check`: nothing timed runs in CI.
PAIRS     ?= 10
WORKLOADS ?= lib-screened gw-scan srv-records gw-session
SECONDS   ?= 24
benchpair:
	PARENT="$(PARENT)" PAIRS="$(PAIRS)" WORKLOADS="$(WORKLOADS)" WINDOW="$(SECONDS)" bash scripts/benchpair.sh

## difftest: the three-way differential battery under -race — the
## lazy-DFA fast path, the exact slow path and Go's regexp (plus the
## byte-level Pike-VM/backtracker oracles) must agree span-for-span on
## the seeded corpora, including the adversarial cache-thrash /
## chunk-straddle / prefix-literal families.
difftest:
	$(GO) test -race -count=1 -run 'Differential' .

## chaostest: the resilience gate — the seeded chaos e2e (real servers
## behind deterministic netchaos proxies, a failover Pool completing
## 100% of idempotent traffic through resets/truncation/a dead
## backend, breaker open-and-recover) plus the client, pool and
## netchaos unit suites, all under -race. Every random decision is
## seeded; failing runs print the seed to replay.
chaostest:
	$(GO) test -race -count=1 ./internal/faultinject/netchaos/ ./internal/server/client/
	$(GO) test -race -count=1 -run 'TestChaos|TestServerFastPathChaos|TestServerReloadSwapsPrefilter|TestServerDrainWithMidFrameResets|TestWriteTimeout' ./internal/server/

## gwchaostest: the fleet resilience gate — the gateway unit suites
## (consistent-hash ring, per-tenant quotas, weighted fair queue,
## scatter-gather, TENANT protocol goldens) plus the kill-a-shard
## chaos e2e (3 shards behind deterministic netchaos proxies, one
## severed mid-traffic: every admitted request completes byte-identical
## or SHEDs, the ring routes around the open breaker, revival closes it
## again, no goroutine leaks), and the breaker half-open probe-slot
## race battery — all under -race.
gwchaostest:
	$(GO) test -race -count=1 ./internal/gateway/
	$(GO) test -race -count=1 -run 'TestGoldenTenantFrames|TestTenant|TestDecodeTenant|TestEncodeTenant|TestMatchesPartial|TestDecodeMatchesPartial|TestShedReason' ./internal/server/
	$(GO) test -race -count=1 -run 'TestBreaker|TestBackends' ./internal/server/client/

## fuzz: cross-check the chunked reader scan against one-shot FindAll.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzStreamChunking -fuzztime 30s .

## fuzzsmoke: 30-second smoke of each fuzzer — the chunking
## differential, the fault-injection offset/prefix invariants, the
## lazy-DFA fast-vs-slow cross-check, the service protocol
## (SCAN-BATCH item isolation, session framing vs one-shot scans plus
## garbage-frame robustness), the checkpoint handoff (SESSION-RESTORE
## of valid, corrupted and arbitrary checkpoints — no dup/lost match,
## no desync), the approx admission never-miss property (filter
## soundness plus screened-vs-unscreened identity), and the wire codec
## (every body a decoder accepts re-encodes to a fixed point; a relayed
## SESSION-MATCHES, kept as wire records, re-encodes to the same bytes).
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz FuzzStreamChunking -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzFaultInjection -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzLazyDFA -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzScanBatch -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzSessionFraming -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzSessionRestore -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzApproxAdmission -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzCodec -fuzztime 30s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzSessionMatchesRelay -fuzztime 30s ./internal/server/

## leakcheck: the guardrail tests carry goroutine-leak assertions
## (leakCheck in faultmatrix_test.go and the scan-service drain tests);
## run just those under -race so a stuck worker, an undrained pool or a
## leaked server goroutine fails loudly.
leakcheck:
	$(GO) test -race -run 'TestFaultMatrix|TestFastPathFaultSeam|TestCancelMidScan|TestRuleSetEarlyStopDrains|TestRuleSetFaultIsolation' .
	$(GO) test -race -run 'TestServer' ./internal/server/...

## serve: run the scan service on the Snort-style example rules
## (RULES/ADDR overridable: make serve RULES=my.rules ADDR=:9000).
RULES ?= examples/server.rules
ADDR ?= :7171
serve:
	$(GO) run ./cmd/alvearesrv -rules $(RULES) -addr $(ADDR)

## loadtest: drive a running scan service with the closed-loop load
## generator (LOAD_ADDR/LOAD_FLAGS overridable).
LOAD_ADDR ?= 127.0.0.1:7171
LOAD_FLAGS ?= -conns 4 -inflight 4 -duration 10s
loadtest:
	$(GO) run ./cmd/alveareload -addr $(LOAD_ADDR) $(LOAD_FLAGS)

## bench: the enabled-vs-disabled observability benchmarks and the
## lazy-DFA gate walk, ns per byte per rule (the rest of the benchmark
## suite lives under `go test -bench=.`).
bench:
	$(GO) test -run '^$$' -bench BenchmarkMetricsOverhead -benchmem .
	$(GO) test -run '^$$' -bench BenchmarkLazyFirstAccept -cpu 1 ./internal/automata

## benchguard: fail if the metrics-DISABLED hot path regresses more
## than 3% against the committed wall-clock baseline
## (testdata/bench_guard_baseline.txt, one key: disabled_ns_per_op).
## Machine-specific by nature — regenerate the baseline with
## `make benchbaseline` on a new machine or after an intentional
## hot-path change. Every other hot path is refereed by `make benchmark`.
benchguard:
	ALVEARE_BENCHGUARD=1 $(GO) test -run TestBenchGuard -v .

## benchbaseline: re-measure the disabled hot path and rewrite the
## committed baseline benchguard compares against.
benchbaseline:
	ALVEARE_BENCHGUARD=update $(GO) test -run TestBenchGuard -v .
