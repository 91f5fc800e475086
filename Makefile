GO ?= go

.PHONY: all build test bench bench-check bench-quick ci cover fmt vet lint fuzz-smoke examples-smoke sgprof-smoke snapshot-smoke obs-smoke fleet-chaos synth-smoke synth-baseline synth-baseline-check perfbench-test

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench runs the figure/table benchmarks with allocation stats and writes a
# machine-readable report alongside the human log. The artifact is keyed
# off the newest PR number recorded in CHANGES.md (BENCH_<n>.json), so each
# PR's numbers land beside its predecessors'; compare two with
# `go run ./cmd/bench2json -diff BENCH_3.json BENCH_4.json`. Override the
# key explicitly with `make bench BENCH_PR=7`; when CHANGES.md has no PR
# entry and no override is given, bench fails loudly instead of silently
# writing an unkeyed BENCH_.json.
BENCH_PR ?= $(shell sed -n 's/^- PR \([0-9][0-9]*\):.*/\1/p' CHANGES.md | tail -1)
bench:
	@if [ -z "$(BENCH_PR)" ]; then \
		echo "bench: no 'PR <n>:' entry in CHANGES.md and no BENCH_PR=<n> override; refusing to write BENCH_.json" >&2; \
		exit 1; \
	fi
	$(GO) test -bench=. -benchmem -timeout 60m -run '^$$' . | $(GO) run ./cmd/bench2json -o BENCH_$(BENCH_PR).json

# bench-check diffs the bench artifact this tree just produced against the
# newest committed BENCH_*.json and fails on regression. With no committed
# baseline (a fresh clone pre-bench) it skips rather than fails, so the
# nightly workflow works from day one.
bench-check: bench
	@base=$$(ls BENCH_*.json 2>/dev/null | grep -v '^BENCH_$(BENCH_PR)\.json$$' | sort -t_ -k2 -n | tail -1); \
	if [ -z "$$base" ]; then \
		echo "bench-check: no committed BENCH_*.json baseline; skipping diff"; \
	else \
		$(GO) run ./cmd/bench2json -diff $$base BENCH_$(BENCH_PR).json; \
	fi

# bench-quick is the PR-time perf smoke: a reduced-budget pass over the
# benchmark suite (-benchtime=100ms: fast benchmarks still amortize
# their one-time table prints, slow ones run a single iteration) diffed
# against the newest committed BENCH_*.json with a loose bar — reduced
# budgets are noisy, so only a >100% ns/op growth fails. It catches
# order-of-magnitude slips (a skip-ahead engine that stopped skipping, a
# codec gone quadratic) in minutes where the nightly bench-check
# measures properly. The throwaway report stays out of the tree.
bench-quick:
	@tmp=$$(mktemp /tmp/bench-quick-XXXXXX.json); \
	$(GO) test -bench=. -benchtime=100ms -run '^$$' . | $(GO) run ./cmd/bench2json -o $$tmp || exit 1; \
	base=$$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1); \
	if [ -z "$$base" ]; then \
		echo "bench-quick: no committed BENCH_*.json baseline; skipping diff"; \
	else \
		$(GO) run ./cmd/bench2json -diff -regress 1.0 $$base $$tmp; \
	fi; \
	status=$$?; rm -f $$tmp; exit $$status

vet:
	$(GO) vet ./...

# lint runs staticcheck and govulncheck at pinned versions. Both are
# optional on offline dev machines: a tool that cannot be resolved (not on
# PATH, and `go install` cannot reach the proxy) or a vuln database that
# cannot be fetched is reported and skipped, while a tool that runs and
# finds problems still fails the target. CI has the network, so there the
# skips never trigger.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
lint: lint-staticcheck lint-govulncheck

.PHONY: lint-staticcheck lint-govulncheck
lint-staticcheck:
	@PATH="$$($(GO) env GOPATH)/bin:$$PATH"; export PATH; \
	if ! command -v staticcheck >/dev/null 2>&1; then \
		$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) >/dev/null 2>&1 || \
			{ echo "lint: staticcheck unavailable (offline?); skipping"; exit 0; }; \
	fi; \
	staticcheck ./...

lint-govulncheck:
	@PATH="$$($(GO) env GOPATH)/bin:$$PATH"; export PATH; \
	if ! command -v govulncheck >/dev/null 2>&1; then \
		$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) >/dev/null 2>&1 || \
			{ echo "lint: govulncheck unavailable (offline?); skipping"; exit 0; }; \
	fi; \
	out=$$(govulncheck ./... 2>&1); status=$$?; \
	if [ $$status -eq 0 ]; then \
		echo "lint: govulncheck clean"; \
	elif echo "$$out" | grep -qiE 'vuln\.go\.dev|dial tcp|connection refused|no such host|i/o timeout|TLS handshake'; then \
		echo "lint: govulncheck database unreachable (offline?); skipping"; \
	else \
		echo "$$out"; exit $$status; \
	fi

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# fuzz-smoke gives every fuzz target a short budget — enough to catch
# panics and fresh invariant violations without CI-scale runtime. Targets
# are package-qualified (pkg:FuzzName) so packages beyond ecc can join;
# the nightly workflow raises the budget with `make fuzz-smoke FUZZTIME=60s`.
FUZZ_TARGETS := ./internal/ecc:FuzzSECDEDDecode ./internal/ecc:FuzzSafeGuardSECDEDDecode \
	./internal/ecc:FuzzChipkillDecode ./internal/ecc:FuzzSafeGuardChipkillDecode \
	./internal/ecc:FuzzSGXStyleMACDecode ./internal/ecc:FuzzSynergyStyleMACDecode \
	./internal/memctrl:FuzzEngineEquivalence \
	./internal/snapshot:FuzzSnapshotRoundTrip ./internal/snapshot:FuzzSnapshotReader \
	./internal/payload:FuzzPayloadParse
FUZZTIME ?= 2s
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$pkg $$fn ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# examples-smoke builds and runs every example program end to end.
examples-smoke:
	@for d in examples/*/; do \
		echo "run $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# sgprof-smoke drives the profiler end to end: a tiny attribution run, a
# JSON artifact, and a self-diff that must report zero regressions.
sgprof-smoke:
	@$(GO) run ./cmd/sgprof -run -workload mcf -instr 20000 -warmup 10000 \
		-o /tmp/sgprof-smoke.json > /dev/null
	@$(GO) run ./cmd/sgprof -in /tmp/sgprof-smoke.json \
		-diff /tmp/sgprof-smoke.json > /dev/null
	@echo "sgprof smoke OK (run -> report -> self-diff clean)"

# snapshot-smoke proves the checkpoint/restore contract end to end at
# the CLI: a cold sgperf sweep deposits post-warm-up sgsnap/1 captures
# into a warm-start pool, a -resume sweep restores from them, and the
# two outputs must be byte-identical — restore-equals-uninterrupted, on
# the real binary rather than a test harness.
snapshot-smoke:
	@dir=$$(mktemp -d /tmp/snapshot-smoke-XXXXXX); \
	$(GO) run ./cmd/sgperf -fig7 -workloads mcf -instr 20000 -warmup 10000 -seeds 1 \
		-snapshot $$dir > $$dir/cold.out || { rm -rf $$dir; exit 1; }; \
	$(GO) run ./cmd/sgperf -fig7 -workloads mcf -instr 20000 -warmup 10000 -seeds 1 \
		-snapshot $$dir -resume > $$dir/warm.out || { rm -rf $$dir; exit 1; }; \
	cmp $$dir/cold.out $$dir/warm.out || { echo "snapshot-smoke: resumed output diverged from cold run" >&2; rm -rf $$dir; exit 1; }; \
	rm -rf $$dir; \
	echo "snapshot smoke OK (cold -> deposit -> resume, byte-identical)"

# obs-smoke proves the observability plane end to end: first the
# ObsSmoke test suite under the race detector (executor progress spans,
# the exact SSE lifecycle of a fleet job, merged-snapshot bit-identity
# across worker counts, the heartbeat live preview), then the real
# binaries — sgserve brought up cold, sgtop -once -json pulling a frame
# from its /healthz + /stats surfaces.
OBS_SMOKE_ADDR ?= 127.0.0.1:18417
obs-smoke:
	$(GO) test -race -count=1 -timeout 10m -run 'TestObsSmoke' ./internal/fleet/ ./internal/resultcache/
	@tmp=$$(mktemp -d /tmp/obs-smoke-XXXXXX); \
	$(GO) build -o $$tmp/sgserve ./cmd/sgserve || { rm -rf $$tmp; exit 1; }; \
	$(GO) build -o $$tmp/sgtop ./cmd/sgtop || { rm -rf $$tmp; exit 1; }; \
	$$tmp/sgserve -addr $(OBS_SMOKE_ADDR) >$$tmp/serve.log 2>&1 & pid=$$!; \
	ok=0; \
	for i in $$(seq 1 20); do \
		if $$tmp/sgtop -server http://$(OBS_SMOKE_ADDR) -once -json >$$tmp/frame.json 2>/dev/null; then ok=1; break; fi; \
		sleep 0.5; \
	done; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ $$ok -ne 1 ]; then echo "obs-smoke: sgtop never got a frame from sgserve" >&2; cat $$tmp/serve.log >&2; rm -rf $$tmp; exit 1; fi; \
	grep -q '"status": "ok"' $$tmp/frame.json || { echo "obs-smoke: unhealthy frame:" >&2; cat $$tmp/frame.json >&2; rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp; \
	echo "obs smoke OK (ObsSmoke suite + sgserve -> sgtop -once -json frame)"

# synth-smoke proves the attack-synthesis determinism contract on the
# real binary: two identical tiny `sgattack -synth -json` sweeps (two
# mitigations x one threshold, fixed seed) must emit byte-identical
# synth-matrix/1 JSON — the cache-identity property that lets sgserve
# store synthesis results under a content hash and serve them from any
# worker.
SYNTH_SMOKE_FLAGS := -synth -json -seed 7 -synth-mitigations none,para \
	-synth-thresholds 300 -synth-rows 256 -synth-budget 800 -synth-gens 2 -synth-pop 4
synth-smoke:
	@tmp=$$(mktemp -d /tmp/synth-smoke-XXXXXX); \
	$(GO) build -o $$tmp/sgattack ./cmd/sgattack || { rm -rf $$tmp; exit 1; }; \
	$$tmp/sgattack $(SYNTH_SMOKE_FLAGS) > $$tmp/one.json || { rm -rf $$tmp; exit 1; }; \
	$$tmp/sgattack $(SYNTH_SMOKE_FLAGS) > $$tmp/two.json || { rm -rf $$tmp; exit 1; }; \
	cmp $$tmp/one.json $$tmp/two.json || { echo "synth-smoke: matrix not bit-identical across runs" >&2; rm -rf $$tmp; exit 1; }; \
	grep -q '"schema": "synth-matrix/1"' $$tmp/one.json || { echo "synth-smoke: output is not a synth-matrix/1 artifact" >&2; rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp; \
	echo "synth smoke OK (2 mitigations x 1 threshold, byte-identical across runs)"

# The nightly synthesis security gate: a longer-budget sweep over the
# whole mitigation registry whose matrix must not defeat any mitigation
# more cheaply than the committed baseline records. synth-baseline
# regenerates testdata/synth_baseline.json (run it when a deliberate
# searcher improvement moves the frontier, then commit the diff);
# synth-baseline-check reruns the identical sweep into synth_matrix.json
# (the nightly upload) and exits 1 on any regression — a mitigation
# newly defeated, or defeated under a smaller activation budget.
SYNTH_BASELINE_FLAGS := -synth -json -seed 7 -synth-thresholds 600 \
	-synth-rows 1024 -synth-budget 3000 -synth-gens 4 -synth-pop 8
synth-baseline:
	$(GO) run ./cmd/sgattack $(SYNTH_BASELINE_FLAGS) > testdata/synth_baseline.json
synth-baseline-check:
	$(GO) run ./cmd/sgattack $(SYNTH_BASELINE_FLAGS) -baseline testdata/synth_baseline.json > synth_matrix.json

# perfbench-test runs the benchmark's own tests. perfbench/ is a separate
# Go module, so the root `go test ./...` never reaches it; among them,
# TestPerfCellsMatchExperimentsSweep pins the benchmark's perf cells to
# experiments.RunSchemes, which a simulator hot-path change can break.
# The environment is the one perfbench/run.py builds with: offline, and
# every build product under the gitignored .bench_build/.
BENCH_BUILD := $(CURDIR)/.bench_build
PERFBENCH_ENV := GOCACHE=$(BENCH_BUILD)/gocache GOPATH=$(BENCH_BUILD)/gopath \
	GOMODCACHE=$(BENCH_BUILD)/gopath/pkg/mod HOME=$(BENCH_BUILD)/home \
	XDG_CONFIG_HOME=$(BENCH_BUILD)/home/.config XDG_CACHE_HOME=$(BENCH_BUILD)/home/.cache \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOTELEMETRY=off CGO_ENABLED=0
perfbench-test:
	cd perfbench && $(PERFBENCH_ENV) $(GO) test ./...

# fleet-chaos repeats the fleet chaos suite (worker kill, kill-mid-run
# checkpoint resume, stall-past-lease zombie, result corruption, network
# partition) under the race detector. Faults are scripted, not random,
# so repetition shakes out scheduling interleavings rather than fault
# placement; the nightly workflow raises the count with
# `make fleet-chaos FLEET_CHAOS_COUNT=20` (hence the explicit -timeout:
# twenty race-enabled passes outlast go test's 10m default).
FLEET_CHAOS_COUNT ?= 3
fleet-chaos:
	$(GO) test -race -timeout 30m -run 'TestChaos' -count=$(FLEET_CHAOS_COUNT) ./internal/fleet/

# cover gates statement coverage of the observability- and serving-
# critical packages: telemetry feeds every -stats/-trace surface, response
# drives the DUE pipeline, attrib is the cycle-accounting layer sgprof
# reports from, jobs/resultcache are the sgserve correctness core
# (queueing, dedup, drain, cache identity), fleet is the distributed
# lease/recovery protocol, snapshot is the sgsnap/1 checkpoint codec
# every resume path trusts, and payload/synth are the attack-synthesis
# engine whose matrix artifacts the nightly security gate reads, so
# regressions there must not land untested.
COVER_GATE_PKGS := ./internal/telemetry ./internal/response ./internal/attrib \
	./internal/jobs ./internal/resultcache ./internal/fleet ./internal/snapshot \
	./internal/payload ./internal/synth
COVER_GATE_MIN  := 85
cover:
	@$(GO) test -cover $(COVER_GATE_PKGS) | awk -v min=$(COVER_GATE_MIN) ' \
		{ print } \
		/coverage:/ { \
			for (i = 1; i <= NF; i++) if ($$i == "coverage:") { \
				pct = $$(i+1); sub(/%/, "", pct); \
				if (pct + 0 < min) { bad = bad "\n  " $$2 " at " pct "% (need " min "%)" } \
			} \
		} \
		END { if (bad != "") { print "coverage gate FAILED:" bad; exit 1 } }'

# ci is the gate: vet, formatting, lint (static analysis + vuln scan), the
# full test suite under the race detector with shuffled execution order
# (includes the figure-shape regression tests in figures_test.go and one
# pass over each fleet chaos scenario), the coverage gate, a short fuzz
# pass over every codec, the example programs, the sgprof profiler
# smoke, the checkpoint/restore smoke, the observability smoke, the
# attack-synthesis determinism smoke, and the benchmark module's tests. The CI workflow additionally
# repeats the chaos scenarios via `make fleet-chaos`.
ci: vet fmt
	$(MAKE) lint
	$(GO) test -race -shuffle=on -timeout 25m ./...
	$(MAKE) cover
	$(MAKE) fuzz-smoke
	$(MAKE) examples-smoke
	$(MAKE) sgprof-smoke
	$(MAKE) snapshot-smoke
	$(MAKE) obs-smoke
	$(MAKE) synth-smoke
	$(MAKE) perfbench-test
