# Build/verify entry points. `make verify` is the pre-commit gate: build,
# vet, formatting, the full test suite, and a -race pass over the packages
# with concurrent hot paths (the obs registry, the instrumented server, and
# the parallel rollout engine in core/rl/sim), which is exactly where data
# races would hide. The rollout packages run with -short so the race pass
# stays fast; the long learning test is covered by the plain `test` target.

GO ?= go
FUZZTIME ?= 30s

# Build identity stamped into the binaries (schedinspect version, the
# build_info metric on /metrics). git describe when available, "dev" in
# tarball builds.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags '-X schedinspector/internal/version.Version=$(VERSION)'

.PHONY: all build bin vet fmt-check test test-short race race-soak bench bench-env bench-check bench-serve bench-serve-check bench-fleet bench-fleet-check bench-train bench-train-check equiv fuzz-smoke trace-smoke dist-smoke loop-smoke fleet-smoke verify

all: build

build:
	$(GO) build ./...

# bin builds the version-stamped command binaries into ./bin/.
bin:
	$(GO) build $(LDFLAGS) -o bin/ ./cmd/...

vet:
	$(GO) vet ./...

# gofmt -l prints offending files; fail if it prints anything.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/obs/ ./internal/serve/ ./internal/rollout/ ./internal/ckpt/ ./internal/explain/ ./internal/dist/ ./internal/online/ ./internal/fleet/
	$(GO) test -race -short ./internal/core/ ./internal/rl/ ./internal/sim/

# race-soak repeats the race-detector pass over the concurrency packages
# ten times, so an intermittent race or timing-dependent test shows up in
# its own CI job rather than as a flake in someone else's change. The rl
# leg is the concurrent PPO update's bit-identity test.
race-soak:
	$(GO) test -race -count=10 ./internal/obs/ ./internal/serve/ ./internal/online/ ./internal/rollout/
	$(GO) test -race -count=10 -run '^TestConcurrentUpdateBitIdentical$$' ./internal/rl/

bench: bench-env
	$(GO) test -bench=. -benchmem .

# bench-env runs the Env-core benchmarks (steppable simulator vs the
# preserved seed engine) and archives the parsed results in BENCH_env.json.
bench-env:
	$(GO) test -run '^$$' -bench 'EnvInspected|LegacyInspected' -benchmem ./internal/sim/ \
		| $(GO) run ./cmd/benchjson -o BENCH_env.json
	$(GO) test -run '^$$' -bench 'BenchmarkEnvStep$$' -benchmem .

# bench-check reruns the Env benchmarks and gates them against the
# committed BENCH_env.json: fail on a >25% ns/op regression or on any new
# allocation in a benchmark the baseline records as allocation-free.
bench-check:
	$(GO) test -run '^$$' -bench 'EnvInspected|LegacyInspected' -benchmem ./internal/sim/ \
		| $(GO) run ./cmd/benchjson -check BENCH_env.json -tolerance 0.25

# bench-serve runs the serving-throughput benchmarks (/v1/inspect through
# the handler at 1/64/512 concurrent clients) and archives the parsed
# results — decisions/s, p99 latency, ns/op, with the GOMAXPROCS they ran
# at — in BENCH_serve.json.
bench-serve:
	$(GO) test -run '^$$' -bench '^BenchmarkInspectC' -benchmem ./internal/serve/ \
		| $(GO) run ./cmd/benchjson -o BENCH_serve.json

# bench-serve-check reruns the serving benchmarks against the committed
# BENCH_serve.json baseline (advisory in CI: serving throughput is noisy on
# shared runners, so regressions warn rather than gate).
bench-serve-check:
	$(GO) test -run '^$$' -bench '^BenchmarkInspectC' -benchmem ./internal/serve/ \
		| $(GO) run ./cmd/benchjson -check BENCH_serve.json -tolerance 0.25

# bench-fleet runs the fleet-plane benchmarks (exposition parse, full
# HTTP scrape, /v1/fleet aggregation) and archives the parsed results in
# BENCH_fleet.json.
bench-fleet:
	$(GO) test -run '^$$' -bench 'Fleet' -benchmem ./internal/fleet/ \
		| $(GO) run ./cmd/benchjson -o BENCH_fleet.json

# bench-fleet-check reruns the fleet benchmarks against the committed
# BENCH_fleet.json baseline (advisory in CI, same as bench-serve-check).
bench-fleet-check:
	$(GO) test -run '^$$' -bench 'Fleet' -benchmem ./internal/fleet/ \
		| $(GO) run ./cmd/benchjson -check BENCH_fleet.json -tolerance 0.25

# bench-train runs the training benchmarks (one PPO update serially and
# with the concurrent policy/value passes; one RunEpoch at 1, 2 and 4
# workers) and archives the parsed results — ns/op with the GOMAXPROCS
# they ran at — in BENCH_train.json.
TRAIN_BENCH = { $(GO) test -run '^$$' -bench '^BenchmarkPPOUpdate$$' -benchmem . && \
	$(GO) test -run '^$$' -bench '^BenchmarkRunEpochWorkers$$' -benchmem ./internal/core/; }
bench-train:
	$(TRAIN_BENCH) | $(GO) run ./cmd/benchjson -o BENCH_train.json

# bench-train-check reruns the training benchmarks against the committed
# BENCH_train.json baseline (advisory in CI, same as bench-serve-check).
bench-train-check:
	$(TRAIN_BENCH) | $(GO) run ./cmd/benchjson -check BENCH_train.json -tolerance 0.25

# equiv runs the golden equivalence suites that pin the Env/wave engines to
# the verbatim seed implementations — /v1/inspect responses to the scalar
# Explain kernel — and the distributed engine's replicas to the
# single-process trainer — bit for bit, under the race detector.
equiv:
	$(GO) test -race -run 'Equiv' -count=1 ./internal/sim/ ./internal/core/ ./internal/serve/ ./internal/dist/

# trace-smoke exercises the decision flight recorder end to end at smoke
# scale, on both recording paths: a tiny training run records a JSONL
# flight trace and every explain query plus the expreport reject plot must
# run clean over it; then the same run records a binary .ftrace, which must
# be queryable natively, convertible to JSONL offline, and queryable again
# through the converted file.
trace-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) run $(LDFLAGS) ./cmd/schedinspect train -trace SDSC-SP2 -jobs 2000 \
		-epochs 1 -batch 4 -seqlen 64 -seed 42 \
		-flight $$tmp/flight.jsonl -model $$tmp/model.gob && \
	$(GO) run ./cmd/schedinspect explain -in $$tmp/flight.jsonl && \
	$(GO) run ./cmd/schedinspect explain -in $$tmp/flight.jsonl -feature-stats && \
	$(GO) run ./cmd/schedinspect explain -in $$tmp/flight.jsonl -top-rejected 5 && \
	$(GO) run ./cmd/expreport -rejects $$tmp/flight.jsonl && \
	$(GO) run $(LDFLAGS) ./cmd/schedinspect train -trace SDSC-SP2 -jobs 2000 \
		-epochs 1 -batch 4 -seqlen 64 -seed 42 \
		-flight $$tmp/flight.ftrace -model $$tmp/model2.gob && \
	$(GO) run ./cmd/schedinspect explain -in $$tmp/flight.ftrace && \
	$(GO) run ./cmd/schedinspect explain -in $$tmp/flight.ftrace -feature-stats && \
	$(GO) run ./cmd/schedinspect explain -in $$tmp/flight.ftrace -convert $$tmp/converted.jsonl && \
	$(GO) run ./cmd/schedinspect explain -in $$tmp/converted.jsonl -feature-stats && \
	rm -rf $$tmp

# dist-smoke proves the distributed engine end to end at the process
# level: a single-process train and a 2-worker train-worker fleet over
# unix sockets, same seed and config, must write byte-identical model
# files — and every worker rank must agree. cmp is the whole oracle.
dist-smoke: bin
	@set -e; tmp=$$(mktemp -d); \
	./bin/schedinspect train -trace SDSC-SP2 -jobs 2000 \
		-epochs 2 -batch 4 -seqlen 64 -seed 42 -model $$tmp/single.gob; \
	( ./bin/schedinspect train-worker -trace SDSC-SP2 -jobs 2000 \
		-epochs 2 -batch 4 -seqlen 64 -seed 42 \
		-world 2 -rank 1 -peers $$tmp/w0.sock,$$tmp/w1.sock \
		-model $$tmp/rank1.gob ) & worker=$$!; \
	./bin/schedinspect train-worker -trace SDSC-SP2 -jobs 2000 \
		-epochs 2 -batch 4 -seqlen 64 -seed 42 \
		-world 2 -rank 0 -peers $$tmp/w0.sock,$$tmp/w1.sock \
		-model $$tmp/rank0.gob; \
	wait $$worker; \
	cmp $$tmp/single.gob $$tmp/rank0.gob; \
	cmp $$tmp/single.gob $$tmp/rank1.gob; \
	echo "dist-smoke: 2-worker model bytes identical to single-process"; \
	rm -rf $$tmp

# loop-smoke proves the online continual-learning loop end to end at the
# process level: train a tiny model, serve it with inspectord -online on a
# sub-second cycle, drive synthetic /v1/inspect traffic through it, and
# require the loop to tail the decisions, retrain a candidate, shadow-
# evaluate it, and reach a clean promote-or-reject verdict — with serving
# uninterrupted throughout and the generation gauge consistent between
# /metrics and /v1/online/status (cmd/loopsmoke holds the assertions).
# SMOKEDIR overrides the scratch dir so CI can upload the flight trace and
# final status JSON as failure artifacts; set KEEP_SMOKEDIR=1 to skip the
# cleanup.
LOOPSMOKE_ADDR ?= 127.0.0.1:18642
loop-smoke: bin
	@set -e; dir="$(SMOKEDIR)"; [ -n "$$dir" ] || dir=$$(mktemp -d); mkdir -p "$$dir"; \
	./bin/schedinspect train -trace SDSC-SP2 -jobs 2000 \
		-epochs 1 -batch 4 -seqlen 64 -seed 42 -model $$dir/model.gob; \
	./bin/inspectord -model $$dir/model.gob -addr $(LOOPSMOKE_ADDR) -seed 7 \
		-online -online-interval 500ms -online-min-window 256 \
		-online-dir $$dir/promoted -flight $$dir/serve.ftrace \
		>$$dir/inspectord.log 2>&1 & daemon=$$!; \
	trap 'kill $$daemon 2>/dev/null; wait $$daemon 2>/dev/null' EXIT; \
	rc=0; ./bin/loopsmoke -addr http://$(LOOPSMOKE_ADDR) -seed 1 \
		-status-out $$dir/online-status.json || rc=$$?; \
	kill $$daemon 2>/dev/null; wait $$daemon 2>/dev/null || true; trap - EXIT; \
	if [ $$rc -ne 0 ]; then echo "--- inspectord.log ---"; cat $$dir/inspectord.log; exit $$rc; fi; \
	[ -n "$(KEEP_SMOKEDIR)$(SMOKEDIR)" ] || rm -rf $$dir

# fleet-smoke proves the fleet observability plane end to end at the
# process level: an inspectord running the online loop, two train-workers
# exchanging deltas over unix sockets and exposing -metrics-addr, and a
# `schedinspect fleet` daemon scraping all three. cmd/fleetsmoke drives
# /v1/inspect traffic and holds the assertions: every target up with
# derived rates, dist metrics aggregated across both workers, a windowed
# histogram quantile, the rank-straggler rule evaluated against real
# per-rank data, and at least one online candidate verdict surfaced
# through /v1/online/history into /v1/fleet. The `-once` text mode runs
# last as the exit-code check. SMOKEDIR/KEEP_SMOKEDIR as in loop-smoke.
FLEETSMOKE_INSP ?= 127.0.0.1:18652
FLEETSMOKE_W0 ?= 127.0.0.1:18653
FLEETSMOKE_W1 ?= 127.0.0.1:18654
FLEETSMOKE_ADDR ?= 127.0.0.1:18655
FLEETSMOKE_TARGETS = inspectord=$(FLEETSMOKE_INSP),w0=$(FLEETSMOKE_W0),w1=$(FLEETSMOKE_W1)
fleet-smoke: bin
	@set -e; dir="$(SMOKEDIR)"; [ -n "$$dir" ] || dir=$$(mktemp -d); mkdir -p "$$dir"; \
	./bin/schedinspect train -trace SDSC-SP2 -jobs 2000 \
		-epochs 1 -batch 4 -seqlen 64 -seed 42 -model $$dir/model.gob; \
	./bin/inspectord -model $$dir/model.gob -addr $(FLEETSMOKE_INSP) -seed 7 \
		-online -online-interval 500ms -online-min-window 256 \
		-online-dir $$dir/promoted >$$dir/inspectord.log 2>&1 & insp=$$!; \
	./bin/schedinspect train-worker -trace SDSC-SP2 -jobs 2000 \
		-epochs 100000 -batch 4 -seqlen 64 -seed 42 \
		-world 2 -rank 0 -peers $$dir/w0.sock,$$dir/w1.sock \
		-metrics-addr $(FLEETSMOKE_W0) -model $$dir/rank0.gob \
		>$$dir/w0.log 2>&1 & w0=$$!; \
	./bin/schedinspect train-worker -trace SDSC-SP2 -jobs 2000 \
		-epochs 100000 -batch 4 -seqlen 64 -seed 42 \
		-world 2 -rank 1 -peers $$dir/w0.sock,$$dir/w1.sock \
		-metrics-addr $(FLEETSMOKE_W1) -model $$dir/rank1.gob \
		>$$dir/w1.log 2>&1 & w1=$$!; \
	./bin/schedinspect fleet -targets $(FLEETSMOKE_TARGETS) \
		-addr $(FLEETSMOKE_ADDR) -interval 1s -window 30s \
		>$$dir/fleet.log 2>&1 & fl=$$!; \
	trap 'kill $$insp $$w0 $$w1 $$fl 2>/dev/null; wait 2>/dev/null' EXIT; \
	rc=0; ./bin/fleetsmoke -fleet http://$(FLEETSMOKE_ADDR) \
		-inspectord http://$(FLEETSMOKE_INSP) -seed 1 \
		-out $$dir/fleet-status.json || rc=$$?; \
	if [ $$rc -eq 0 ]; then \
		./bin/schedinspect fleet -once -targets $(FLEETSMOKE_TARGETS) \
			-interval 1s || rc=$$?; fi; \
	kill $$insp $$w0 $$w1 $$fl 2>/dev/null; wait 2>/dev/null || true; trap - EXIT; \
	if [ $$rc -ne 0 ]; then for f in inspectord w0 w1 fleet; do \
		echo "--- $$f.log ---"; cat $$dir/$$f.log; done; exit $$rc; fi; \
	[ -n "$(KEEP_SMOKEDIR)$(SMOKEDIR)" ] || rm -rf $$dir

# fuzz-smoke gives every fuzz target a short budget (override with
# FUZZTIME=...) — enough to catch shallow parser/decoder regressions on
# every CI run without turning the pipeline into a fuzzing campaign.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSWF$$' -fuzztime $(FUZZTIME) ./internal/workload/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime $(FUZZTIME) ./internal/ckpt/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFTrace$$' -fuzztime $(FUZZTIME) ./internal/explain/
	$(GO) test -run '^$$' -fuzz '^FuzzParseProm$$' -fuzztime $(FUZZTIME) ./internal/fleet/
	$(GO) test -run '^$$' -fuzz '^FuzzInspectBody$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePeerPayload$$' -fuzztime $(FUZZTIME) ./internal/dist/

verify: build vet fmt-check race test
