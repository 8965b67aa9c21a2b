GO ?= go

# The Asia network as BIF (pinned to evprop.Asia() by cmd/evserve's
# TestAsiaFixture): the model the smoke targets serve and replay against.
ASIA_DIR = cmd/evserve/testdata/asia

.PHONY: build test race cross-arch flake-guard census vet staticcheck fmt-check bench bench-serving bench-load bench-envelope bench-kernels bench-module bench-e2e bench-check smoke-kernels fuzz-smoke smoke-evtop smoke-multimodel smoke-replay smoke-trace smoke-examples check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck is optional locally (it is not vendored); CI installs and runs
# it. Skips with a notice when the binary is absent.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# The plan kernels have two builds (internal/potential/leaves*.go): SSE2
# assembly on amd64, the Go loops everywhere else and under -race. Vet every
# package with GOARCH set to each 64-bit arch that builds the Go loops, and to
# 386, where an int has 32 bits — vet compiles what it checks, so a package
# that does not build there fails — then test the two kernel packages without -race, the build that runs the
# assembly, which `make race` does not.
cross-arch:
	@for a in arm64 ppc64le s390x riscv64 386; do echo "go vet GOARCH=$$a"; GOARCH=$$a $(GO) vet ./... || exit 1; done
	$(GO) test -count=1 ./internal/potential ./internal/taskgraph

# The tests whose verdict once depended, or could depend, on how a run happens
# to be scheduled — the Fig. 8 overhead share of a real pool run, the bits a
# partitioned sum leaves behind, and the bits partitioned runs leave when the
# pooled message and partial buffers serve tables sliced on one evidence after
# another — forty times over, without the race detector (whose slowdown hides
# them), plus the two deterministic reproducers of the span arena's recycle
# window, the admission contract — a batch or a herd of identical queries on a
# never-seen signature costs exactly two propagations however its goroutines
# interleave, one on a seen signature, none on a cached one — the executor
# and the bits of a run that has company — held open on a channel, never timed
# — and the process's one worker pool: how many goroutines three engines start,
# and the bits of sixteen runs of two engines interleaved on its lists — and
# the joints of concurrent readers of one cache entry, each from a run of its
# own, against an uncached engine's bits — and the bits of engines whose
# CPT-free model tables are poisoned, pooled and cut, against unpoisoned ones
# — and a registry model hot-swapped under eight querying clients, which must
# lose no query and answer every one with one version's bits, its clients
# held until two swaps have completed rather than for a fixed count — and the
# goroutines a pool starts, counted by goroutine ID because a worker of an
# earlier test's closed pool may still be exiting when the count is taken —
# and a worker woken to an empty list, which must take a busy peer's queued
# item rather than park again, a wake whose item a spinning peer took — and
# the heap bytes of runs cut at a small δ against Split's, whose pools a
# collection between warm-up and measurement once emptied.
# A flake here is a bug, not noise. CI's flake-guard job runs this target.
flake-guard:
	$(GO) test -count=40 -run 'TestFromSchedRealRun|TestPartitionedRunsBitIdentical|TestPartitionedRunsAcrossSlicings|TestScratchReuseAcrossSlicings|TestStaleHandleRefusedWhileRecycling|TestEndedHandleInertWhileRecycling|TestBatchIdenticalSubQueriesCollapse|TestPinOnSecondSight|TestColdHerdCostsTwo|TestLoadAwareExecutor|TestLoadedInlineBitIdentical|TestOnePoolPerProcess|TestTwoEnginesShareThePool|TestAllocateTieStaysHome|TestSpinEndsWithRun|TestNoSpinWhenCoresClaimed|TestWokenWorkerPollsPeers|TestProcessPool|TestCachedTableReadCompletesPrivately|TestUnitTablesNeverRead|TestHotSwapRace|TestSmallDeltaBounded' ./internal/obs ./internal/obs/trace ./internal/sched ./internal/core ./internal/registry ./cmd/evserve .

# The dead-code census (census_test.go, behind the census build tag): type-check
# the non-test files of this module and benchmark/, and fail naming every
# function declared in internal/ that no non-test file references, bar those
# the test's allowlist keeps, each with its reason (~4 s, offline).
census:
	$(GO) test -tags census -run '^TestCensus$$' -count=1 .

bench:
	$(GO) test -run xxx -bench . -benchtime 1s .

bench-serving:
	$(GO) test -run xxx -bench 'BenchmarkConcurrentQuery|BenchmarkMutexSerializedQuery|BenchmarkCachedQuery|BenchmarkSingleflightStorm|BenchmarkPropagateSmall' -benchtime 2s -cpu 4 .

# The run under load without HTTP (EXPERIMENTS.md, "The run under load"):
# wide60 with 4 observed over never-repeating evidence, Workers {1, 2} ×
# callers {1, 2} × cache {0, 32}; ns/op, B/op and pool_runs/op, which says
# where the granularity rule sent the runs. Every query is the first sight of
# its evidence, so the cache=32 rows cache nothing and must read as the cache=0
# rows do. 3000 operations per row, the count EXPERIMENTS.md's tables used.
# Then the hit side: 128 wide60 evidence sets cached at evserve's default 1024
# entries, entry_B and heap_MB what one entry and all of them hold.
# Then the same with two models over one set of workers: a wide60 and a mid60
# engine queried together, one or two callers each, Workers {2, 4}; pool_runs/op
# again, and the goroutines the process holds.
bench-load:
	$(GO) test -run xxx -bench 'BenchmarkPropagateWideLoad|BenchmarkPropagateWideHits|BenchmarkPropagateTwoModels' -benchtime 3000x -cpu 2 .

# The HTTP query path without a listener (cmd/evserve BenchmarkQueryPath): a
# small40 cache hit and small40 misses, traced as evserve traces by default,
# the access log to io.Discard; ns/op and allocs/op, and a CPU profile of the
# two rows in /tmp/evprop-envelope.cpu.prof (go tool pprof -top it). The test
# binary is kept beside it, which pprof needs to name the hit path's frames.
bench-envelope:
	$(GO) test -run xxx -bench BenchmarkQueryPath -benchmem -cpuprofile /tmp/evprop-envelope.cpu.prof -o /tmp/evprop-envelope.test ./cmd/evserve

# Per-primitive kernel timings (internal/potential's BenchmarkKernel*: compiled
# plan vs run-only plan vs scalar, ns/entry, on long-run shapes and on the
# drop-one-variable shapes of the benchmark's junction trees), five counts in
# Go's benchmark format — benchstat reads it — under the commit and Go version,
# in BENCH_kernels.txt. The README perf table comes from this file. The regex
# takes in BenchmarkKernelShortRuns, so the record is written only when no
# short-run shape costs more than twice the long-run one. 250 ms a row keeps
# the 600 rows (~4 min) under go test's 10-minute timeout.
bench-kernels:
	@{ echo "commit: $$(git describe --always --dirty --abbrev=40)"; echo "go: $$($(GO) env GOVERSION)"; \
		$(GO) test -run '^$$' -bench BenchmarkKernel -benchtime 250ms -count 5 ./internal/potential; } > /tmp/evprop-kernels.txt \
		|| { cat /tmp/evprop-kernels.txt; exit 1; }
	@mv /tmp/evprop-kernels.txt BENCH_kernels.txt

# benchmark/ is its own module (so tier-1 `go test ./...` never sees it) that
# compiles against this module's internal packages: vet and test it with the
# repo, or an internal rename breaks the load benchmark silently.
bench-module:
	$(GO) vet -C benchmark ./... && $(GO) test -C benchmark ./...

# The end-to-end load benchmark (benchmark/README.md): all four workloads,
# the end-to-end run and the traced per-layer run of each, written with
# provenance to BENCH_e2e.json — generated, never edited (~5 min). -C makes
# benchmark/ the working directory, hence the absolute output path.
bench-e2e:
	$(GO) run -C benchmark . --workload all --seed 1 --out $(CURDIR)/BENCH_e2e.json

# The regression gate: a fresh run of the same compared, metric by metric
# and workload by workload, with the committed BENCH_e2e.json under each
# end-to-end metric's bound (exit 1 on a worse row, 2 on an invalid run).
# Timings are relative to the benchmark's reference server, so the gate
# holds across this host's speed swings, not across different hosts.
bench-check:
	$(GO) run -C benchmark . --workload all --seed 1 --out /tmp/evprop-bench-e2e.json
	$(GO) run -C benchmark . --compare $(CURDIR)/BENCH_e2e.json /tmp/evprop-bench-e2e.json

# The timed half of the short-run property (internal/potential's
# BenchmarkKernelShortRuns, run once): for each primitive a message executes,
# extend excepted, the plan on a short-run shape costs at most twice the plan
# on the long-run shape of the same size, w17-drop-mid — the median ratio of
# interleaved rounds. The counted half is TestRunPlanInvariants, in go test.
smoke-kernels:
	@$(GO) test -run '^$$' -bench BenchmarkKernelShortRuns -benchtime 1x ./internal/potential >/tmp/evprop-smoke-kernels.txt \
		|| { cat /tmp/evprop-smoke-kernels.txt; echo "smoke-kernels: failed"; exit 1; }
	@echo "smoke-kernels: ok"

# Short fuzz runs (the same smoke steps CI runs); go test -fuzz accepts one
# fuzz target per invocation.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzEvidenceSignature -fuzztime 10s ./internal/cache
	$(GO) test -run xxx -fuzz FuzzKernelBlockedVsScalar -fuzztime 10s ./internal/potential
	$(GO) test -run xxx -fuzz FuzzSlice -fuzztime 10s ./internal/potential
	$(GO) test -run xxx -fuzz FuzzPosteriorVsMarginal -fuzztime 10s ./internal/taskgraph
	$(GO) test -run xxx -fuzz FuzzLazyVsEager -fuzztime 10s .
	$(GO) test -run xxx -fuzz FuzzTargetedVsFull -fuzztime 10s .
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime 10s ./internal/bif
	$(GO) test -run xxx -fuzz FuzzQueryBody -fuzztime 10s ./cmd/evserve
	$(GO) test -run xxx -fuzz FuzzQueryResponse -fuzztime 10s ./cmd/evserve
	$(GO) test -run xxx -fuzz FuzzAccessLine -fuzztime 10s ./cmd/evserve

# Smoke-test the live dashboard end to end, on a server with no model named
# "default": boot evserve with -models-dir on the two testdata models, query
# each three times (a first sight, the pinned run, a hit), render one evtop
# frame against its /v1/stream, then shut down. The frame must name both
# models, and neither may read "cache off" — every block is its own model's —
# under the one line for the process's two workers.
smoke-evtop:
	@$(GO) build -o /tmp/evserve-smoke ./cmd/evserve
	@$(GO) build -o /tmp/evtop-smoke ./cmd/evtop
	@/tmp/evserve-smoke -models-dir cmd/evserve/testdata/models -workers 2 -cache-size 32 -addr 127.0.0.1:18098 >/dev/null 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:18098/v1/readyz >/dev/null 2>&1; then break; fi; \
		sleep 0.1; done; \
	for m in rainA rainB rainA rainB rainA rainB; do \
		curl -sf -o /dev/null -X POST http://127.0.0.1:18098/v1/models/$$m/query \
			-d '{"evidence":{"Wet":1}}'; done; \
	/tmp/evtop-smoke -url http://127.0.0.1:18098 -once > /tmp/evtop-smoke.frame; \
	kill $$pid; wait $$pid 2>/dev/null; \
	for want in "evtop —" "2 models" "queries 6" "workers 2   active runs 0" "rainA" "rainB" "window reqs 3" "cache 1/32 entries"; do \
		grep -q "$$want" /tmp/evtop-smoke.frame || { echo "smoke-evtop: frame lacks '$$want'"; cat /tmp/evtop-smoke.frame; exit 1; }; done; \
	if grep -q "cache off" /tmp/evtop-smoke.frame; then echo "smoke-evtop: frame says cache off"; cat /tmp/evtop-smoke.frame; exit 1; fi; \
	echo "smoke-evtop: ok"

# Smoke-test multi-model serving end to end: boot evserve with two models
# from -models-dir, query both, hot-reload one mid-traffic (expecting a
# version bump and zero failed queries), and check the per-model stats.
smoke-multimodel:
	@$(GO) build -o /tmp/evserve-smoke ./cmd/evserve
	@dir=$$(mktemp -d); trap 'rm -rf '"$$dir" EXIT; \
	cp cmd/evserve/testdata/models/rainA.bif $$dir/wet.bif; \
	cp cmd/evserve/testdata/models/rainB.bif $$dir/dry.bif; \
	/tmp/evserve-smoke -models-dir $$dir -addr 127.0.0.1:18099 >/dev/null 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:18099/v1/readyz >/dev/null 2>&1; then break; fi; \
		sleep 0.1; done; \
	fail=0; \
	curl -sf -X POST http://127.0.0.1:18099/v1/models/wet/query \
		-d '{"evidence":{"Wet":1},"query":["Rain"]}' | grep -q p_evidence || fail=1; \
	curl -sf -X POST http://127.0.0.1:18099/v1/models/dry/query \
		-d '{"evidence":{"Wet":1},"query":["Rain"]}' | grep -q p_evidence || fail=2; \
	( for i in $$(seq 1 60); do \
		curl -sf -X POST http://127.0.0.1:18099/v1/models/wet/query \
			-d '{"evidence":{"Wet":1},"query":["Rain"]}' >/dev/null || echo fail >> $$dir/errs; \
	done ) & traffic=$$!; \
	cp cmd/evserve/testdata/models/rainB.bif $$dir/wet.bif; \
	curl -sf -X POST "http://127.0.0.1:18099/v1/models/wet/reload?wait=1" \
		| grep -q '"version":2' || fail=3; \
	wait $$traffic; \
	[ ! -e $$dir/errs ] || fail=4; \
	curl -sf http://127.0.0.1:18099/v1/models/wet/stats | grep -q '"queries"' || fail=5; \
	curl -sf http://127.0.0.1:18099/v1/stats | grep -q '"models"' || fail=6; \
	curl -sf http://127.0.0.1:18099/v1/readyz >/dev/null || fail=7; \
	kill $$pid; wait $$pid 2>/dev/null; \
	if [ $$fail -ne 0 ]; then echo "smoke-multimodel: step $$fail failed"; exit 1; fi; \
	echo "smoke-multimodel: ok"

# Smoke-test the durable audit pipeline end to end: boot evserve with
# -audit-dir on the Asia fixture, drive queries and an MPE at
# /v1/models/asia/…, shut down cleanly, then replay the recorded segments with
# evreplay — the chain must verify, a differential replay on an engine
# compiled from the same fixture must reproduce every answer bit for bit, and
# a one-byte corruption must be detected. The second leg records the same
# traffic with the server of the commit this change sits on — REPLAY_BASE,
# HEAD~1 unless set (HEAD for an uncommitted tree), built from `git archive`
# in the temp dir — and replays it on this build: an answer's bits belong to
# its evidence and fingerprint, not to the build, so zero mismatches, MPE
# included. Where that commit has another evprop.CompileScheme, its records
# carry another fingerprint and evreplay must refuse them instead — exit 2,
# naming the recorded scheme. The leg is skipped with a notice where that
# commit is not to be had (a shallow clone).
# The third leg replays the first log against a server at -workers 3: its
# fingerprint (evprop.Fingerprint) differs from the recorded one, so evreplay
# must refuse before replaying anything — exit 2, naming the fingerprint.
smoke-replay:
	@$(GO) build -o /tmp/evserve-smoke ./cmd/evserve
	@$(GO) build -o /tmp/evreplay-smoke ./cmd/evreplay
	@dir=$$(mktemp -d); trap 'rm -rf '"$$dir" EXIT; \
	boot() { \
		for i in $$(seq 1 50); do \
			if curl -sf http://127.0.0.1:$$1/v1/readyz >/dev/null 2>&1; then break; fi; \
			sleep 0.1; done; }; \
	drive() { rc=0; m=http://127.0.0.1:$$1/v1/models/asia; \
		for i in $$(seq 1 10); do \
			curl -sf -X POST $$m/query \
				-d '{"evidence":{"XRay":1},"query":["Lung"]}' >/dev/null || rc=1; \
			curl -sf -X POST $$m/query \
				-d "{\"evidence\":{\"Smoke\":$$((i % 2))}}" >/dev/null || rc=1; \
		done; \
		curl -sf -X POST $$m/mpe \
			-d '{"evidence":{"XRay":1}}' >/dev/null || rc=2; \
		return $$rc; }; \
	/tmp/evserve-smoke -models-dir $(ASIA_DIR) -addr 127.0.0.1:18097 -workers 2 -audit-dir $$dir/audit -audit-batch 8 >/dev/null 2>&1 & \
	pid=$$!; \
	boot 18097; \
	fail=0; \
	drive 18097 || fail=$$?; \
	curl -sf -X POST http://127.0.0.1:18097/v1/models/asia/query \
		-d '{"evidence":{"NoSuchVar":1}}' >/dev/null; \
	curl -sf http://127.0.0.1:18097/v1/audit | grep -q '"enabled":true' || fail=3; \
	kill $$pid; wait $$pid 2>/dev/null; \
	/tmp/evreplay-smoke -dir $$dir/audit -mode verify >/dev/null || fail=4; \
	/tmp/evreplay-smoke -dir $$dir/audit -mode diff -bif $(ASIA_DIR)/asia.bif >/dev/null || fail=5; \
	base=$${REPLAY_BASE:-HEAD~1}; \
	if git rev-parse -q --verify "$$base^{commit}" >/dev/null 2>&1; then \
		mkdir $$dir/base; git archive $$base | tar -x -C $$dir/base; \
		$(GO) build -C $$dir/base -o $$dir/evserve-base ./cmd/evserve || fail=10; \
		$$dir/evserve-base -models-dir $(ASIA_DIR) -addr 127.0.0.1:18094 -audit-dir $$dir/base-audit -audit-batch 8 >/dev/null 2>&1 & \
		bpid=$$!; \
		boot 18094; \
		drive 18094 || fail=10; \
		kill $$bpid; wait $$bpid 2>/dev/null; \
		bscheme=$$(sed -n 's/^const CompileScheme = //p' $$dir/base/fingerprint.go); \
		if [ "$$bscheme" = "$$(sed -n 's/^const CompileScheme = //p' fingerprint.go)" ]; then \
			/tmp/evreplay-smoke -dir $$dir/base-audit -mode diff -bif $(ASIA_DIR)/asia.bif >/dev/null || fail=11; \
		else \
			/tmp/evreplay-smoke -dir $$dir/base-audit -mode diff -bif $(ASIA_DIR)/asia.bif >/dev/null 2>$$dir/base-refused; rc=$$?; \
			[ $$rc -eq 2 ] && grep -q "recorded at fingerprint \"scheme=$$bscheme " $$dir/base-refused || { cat $$dir/base-refused; fail=11; }; \
		fi; \
	else \
		echo "smoke-replay: no commit $$base to record with; cross-build leg skipped"; \
	fi; \
	/tmp/evserve-smoke -models-dir $(ASIA_DIR) -addr 127.0.0.1:18093 -workers 3 >/dev/null 2>&1 & \
	opid=$$!; \
	boot 18093; \
	/tmp/evreplay-smoke -dir $$dir/audit -mode diff -url http://127.0.0.1:18093 >/dev/null 2>$$dir/refused; rc=$$?; \
	kill $$opid; wait $$opid 2>/dev/null; \
	[ $$rc -eq 2 ] && grep -q 'fingerprint "scheme=[0-9]* workers=2"' $$dir/refused || { cat $$dir/refused; fail=12; }; \
	seg=$$(ls $$dir/audit/*.seg | head -1); \
	size=$$(wc -c < $$seg); \
	off=$$((size / 2)); \
	orig=$$(dd if=$$seg bs=1 skip=$$off count=1 2>/dev/null | od -An -tu1 | tr -d ' '); \
	printf "$$(printf '\\%03o' $$(( (orig + 1) % 256 )))" \
		| dd of=$$seg bs=1 seek=$$off conv=notrunc 2>/dev/null; \
	if /tmp/evreplay-smoke -dir $$dir/audit -mode verify >/dev/null 2>&1; then fail=6; fi; \
	if [ $$fail -ne 0 ]; then echo "smoke-replay: step $$fail failed"; exit 1; fi; \
	echo "smoke-replay: ok"

# Smoke-test distributed tracing end to end: boot evserve on the Asia fixture,
# let evtrace mint a sampled W3C traceparent and drive three identical queries
# through /v1/models/asia/batch, fetch the kept trace back over
# /v1/debug/trace, and assert the span tree: the caller's trace ID and parent
# span survived, absorb ran before propagate, every sub-query has its batch.item span, and the three cost two
# propagate spans — the signature's first sight, outside the singleflight, and
# the one that is cached; the third is a singleflight waiter or a cache hit.
smoke-trace:
	@$(GO) build -o /tmp/evserve-smoke ./cmd/evserve
	@$(GO) build -o /tmp/evtrace-smoke ./cmd/evtrace
	@/tmp/evserve-smoke -models-dir $(ASIA_DIR) -addr 127.0.0.1:18095 >/dev/null 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:18095/v1/readyz >/dev/null 2>&1; then break; fi; \
		sleep 0.1; done; \
	/tmp/evtrace-smoke -url http://127.0.0.1:18095 -model asia -drive 3 -assert; rc=$$?; \
	kill $$pid; wait $$pid 2>/dev/null; \
	if [ $$rc -ne 0 ]; then echo "smoke-trace: span-tree asserts failed"; exit 1; fi; \
	echo "smoke-trace: ok"

# Run every example (go run) and fail on a non-zero exit: the build compiles
# them, and this is what runs them. Their output goes to /dev/null, and a
# failing example's stderr is printed.
smoke-examples:
	@for d in examples/*/; do \
		$(GO) run ./$$d >/dev/null 2>/tmp/evprop-smoke-examples.err \
			|| { cat /tmp/evprop-smoke-examples.err; echo "smoke-examples: $$d failed"; exit 1; }; done
	@echo "smoke-examples: ok"

# The PR gate: formatting and static checks plus the full test suite under
# the race detector (includes the concurrent-engine stress tests), the
# kernels' other builds (every arch's vet, the assembly's tests), forty
# repeats of the schedule-sensitive tests, the dead-code census, the evserve smoke tests (evtop dashboard + multi-model hot reload + durable
# audit replay + traceparent propagation), the timed short-run kernel bound,
# every example run once, and the benchmark module's own vet + tests.
check: fmt-check vet staticcheck race cross-arch flake-guard census smoke-evtop smoke-multimodel smoke-replay smoke-trace smoke-kernels smoke-examples bench-module
