# Build/test entry points. `make ci` is the full PR gate: vet, the p3cvet
# contract analyzers, build, the whole test suite (with test-order
# shuffling so order dependence can't creep in), the whole test suite again
# under the race detector, the spill-codec fuzz seeds, the trace-diff CLI
# gate, and one pass of the engine micro-benchmarks (compile + smoke, not
# timing). The focused -race runners (chaos, chaos-proc, trace, ops,
# ops-proc) are not in ci: each is a strict subset of `race`.

GO ?= go

.PHONY: ci vet lint lint-fix-check build test race fuzz-seeds bench bench-diff chaos chaos-proc trace ops ops-proc trace-diff trace-demo ops-demo trace-analyze proc-demo

ci: vet lint build test race fuzz-seeds trace-diff bench bench-diff

# go vet plus a gofmt gate: any file gofmt would rewrite fails the build.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# Project-specific contract analyzers (determinism, retry safety, zero-cost
# tracing, pool lifecycles, the append-only wire protocol, the job-impl
# registry bijection, span balance). Exits nonzero on any finding; see
# cmd/p3cvet and DESIGN.md §3e/§3j.
lint:
	$(GO) run ./cmd/p3cvet ./...

# Assert the repo itself is finding-free — the gate that keeps fixed
# violations fixed. Identical to `make lint` today, spelled separately so
# CI output names the contract being enforced.
lint-fix-check:
	@$(GO) run ./cmd/p3cvet ./... && echo "p3cvet: no findings"

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# The deterministic chaos harness: every Fault/Chaos test across the repo —
# engine-level fault plans, the pipeline oracle in internal/core, and the
# public-API JSON oracle — under the race detector, since fault injection
# exercises the retry/cancellation paths concurrently.
chaos:
	$(GO) test -race -run 'Chaos|Fault' ./...

# The backend seam's process-level harness under the race detector: the
# cross-backend conformance matrix (bit-identical output across inprocess,
# multiprocess and simulated at every parallelism and spill threshold; the
# multiprocess sweep auto-trims under -race via a build tag — worker
# processes are race-instrumented binaries and slow to spawn), the
# SIGKILL-mid-task chaos tests with exact retry/waste accounting, the
# out-of-core spill/merge test, and one fuzz-seed pass (spill codec,
# k-way merge, RSSC query, vertical support counts).
chaos-proc: fuzz-seeds
	$(GO) test -race -run 'Backend|ProcKill|Spill|Worker|Multiprocess|Wire' ./internal/mr/ ./cmd/p3ctrace/ .

# One pass over the seed corpora of the spill-codec and k-way-merge fuzz
# targets, and of the RSSC query and vertical support-count oracles.
fuzz-seeds:
	$(GO) test -run 'FuzzSpillRoundTrip|FuzzKWayMergeOrder' ./internal/mr/
	$(GO) test -run 'FuzzRSSCQuery|FuzzColumnCounts' ./internal/signature/

# Observability suite under the race detector: tracer/metrics unit tests,
# span-structure tests, trace-vs-untraced identity oracles, and the
# Observer ordering/composition tests.
trace:
	$(GO) test -race -run 'Trace|Obs|Observer|Metrics|Report|JSONL' ./...

# Ops-plane and trace-analysis suite under the race detector: progress
# aggregation, Prometheus exposition (golden + validator), flight-recorder
# retention, the live ops-server-during-chaos test, and the trace-analyzer
# tests (internal/obs, and the p3ctrace oracle).
ops:
	$(GO) test -race -run 'Ops|Flight|Progress|Prometheus|Analyze' ./...

# Worker telemetry plane under the race detector: the multiprocess
# telemetry/clock-alignment tests, the live ops-server-during-proc-kill-chaos
# test (pollers on /metrics, /runs, /workers while worker fleets die and
# respawn), the WorkerStats golden families, and the trace-parser merge
# (internal/obs) and p3ctrace timeline regressions.
ops-proc:
	$(GO) test -race -run 'MultiprocTelemetry|OpsProc|Workers|WorkerTelemetry|ParseTrace|ClassifyAndTimeline' \
		./internal/mr/ ./internal/obs/ ./cmd/p3ctrace/

# Run-archive + trace-diff regression gate, end to end through the real
# CLIs: archive a clean run and a straggler-seeded run of the same data
# into two archive roots, then assert `p3ctrace -diff` attributes the
# regression and exits nonzero (the `!` inverts it), and that a self-diff
# passes. Deterministic: straggler charge is simulated (seeded, sim-only),
# so the flagged delta is exact across machines.
trace-diff:
	rm -rf /tmp/p3c-archive-a /tmp/p3c-archive-b
	$(GO) run ./cmd/p3cgen -out /tmp/p3c-diff-demo.bin -n 3000 -dim 10 -clusters 3
	$(GO) run ./cmd/p3crun -in /tmp/p3c-diff-demo.bin -algo mr-light -simulate \
		-archive /tmp/p3c-archive-a
	$(GO) run ./cmd/p3crun -in /tmp/p3c-diff-demo.bin -algo mr-light -simulate \
		-chaos-straggler 0.5 -chaos-straggler-s 2 -archive /tmp/p3c-archive-b
	! $(GO) run ./cmd/p3ctrace -diff -straggler-threshold 1 \
		/tmp/p3c-archive-a /tmp/p3c-archive-b
	$(GO) run ./cmd/p3ctrace -diff -straggler-threshold 0 -sim-threshold 0 \
		/tmp/p3c-archive-a /tmp/p3c-archive-a

# Benchmarks with a machine-readable summary: benchjson tees the raw
# output through and writes BENCH_PR10.json for cross-PR baseline diffs.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem ./internal/mr/ \
		| $(GO) run ./cmd/benchjson -o BENCH_PR10.json

# Compare this PR's benchmark baseline against the previous PR's; exits
# nonzero on a regression beyond the (deliberately loose, -benchtime 1x is
# noisy) thresholds. PR 10's archive/convergence telemetry is driver-side
# and guarded by the nil-tracer contract, so the engine micro-benchmarks
# are held to PR 9's ns/op and allocs/op envelopes.
bench-diff:
	$(GO) run ./cmd/benchjson -diff -threshold 0.75 -alloc-threshold 0.25 \
		BENCH_PR9.json BENCH_PR10.json

# End-to-end trace demo: generate a small data set, cluster it with
# tracing, the per-job report, and the cost model enabled, then show the
# first few trace events.
trace-demo:
	$(GO) run ./cmd/p3cgen -out /tmp/p3c-trace-demo.bin -n 2000 -dim 10 -clusters 3
	$(GO) run ./cmd/p3crun -in /tmp/p3c-trace-demo.bin -algo mr-light -simulate \
		-trace /tmp/p3c-trace-demo.jsonl -report -metrics
	head -n 5 /tmp/p3c-trace-demo.jsonl

# Live ops-plane demo: cluster with the ops server up and lingering, then
# curl the endpoints while the server is still alive.
ops-demo:
	$(GO) run ./cmd/p3cgen -out /tmp/p3c-ops-demo.bin -n 20000 -dim 20 -clusters 4
	$(GO) run ./cmd/p3crun -in /tmp/p3c-ops-demo.bin -algo mr-light -simulate \
		-ops 127.0.0.1:19095 -ops-linger 5s & \
	sleep 2; \
	curl -sf http://127.0.0.1:19095/healthz; \
	curl -sf http://127.0.0.1:19095/runs; \
	curl -sf http://127.0.0.1:19095/metrics | head -n 20; \
	wait

# Multi-process backend demo: run the built-in histogram job on real
# worker OS processes with an aggressive spill budget and seeded worker
# SIGKILLs, then show the per-worker attribution from the trace.
proc-demo:
	$(GO) run ./cmd/p3cgen -out /tmp/p3c-proc-demo.bin -n 50000 -dim 10 -clusters 4
	$(GO) run ./cmd/p3crun -in /tmp/p3c-proc-demo.bin -normalize -demo \
		-backend multiprocess -spill-dir /tmp -spill-mb 1 -chaos 0.3 \
		-trace /tmp/p3c-proc-demo.jsonl
	$(GO) run ./cmd/p3ctrace -top 5 /tmp/p3c-proc-demo.jsonl

# Offline trace analysis demo: trace a run, then reconstruct the critical
# path, skew, and straggler/retry attribution from the JSONL.
trace-analyze:
	$(GO) run ./cmd/p3cgen -out /tmp/p3c-analyze-demo.bin -n 5000 -dim 15 -clusters 3
	$(GO) run ./cmd/p3crun -in /tmp/p3c-analyze-demo.bin -algo mr-light -simulate \
		-trace /tmp/p3c-analyze-demo.jsonl
	$(GO) run ./cmd/p3ctrace -top 5 /tmp/p3c-analyze-demo.jsonl
