# Convenience targets; everything is plain dune underneath.

.PHONY: all test check bench bench-json serve-smoke fleet-smoke fd-smoke bench-serve bench-obs bench-obs-fleet bench-sweep bench-fleet bench-compare obs-lint net-lines soak soak-smoke perfbench doc examples clean

all:
	dune build @all

test:
	dune runtest --force

# Full gate: build, tests, docs, examples, bench smoke.  What CI runs.
check:
	dune build
	dune runtest --force
	dune build @doc
	$(MAKE) obs-lint
	$(MAKE) examples
	dune exec bench/main.exe -- micro --json --smoke
	dune exec bench/main.exe -- obs --json --smoke
	dune exec bench/main.exe -- sweep --json --smoke
	dune exec bench/main.exe -- fleet --json --smoke
	dune exec bench/main.exe -- obs-fleet --json --smoke
	$(MAKE) serve-smoke
	$(MAKE) fleet-smoke
	$(MAKE) fd-smoke
	$(MAKE) soak-smoke

# Added/removed/net lines of .ml/.mli under lib/ and bin/ against BASE
# (default: the parent commit of the change; scripts/net_lines.sh).
net-lines:
	@sh scripts/net_lines.sh $(BASE)

# Span hygiene: every Obs.span_begin must be Fun.protect-closed or
# carry an explicit waiver (scripts/obs_lint.sh).
obs-lint:
	sh scripts/obs_lint.sh

# End-to-end exploration service check: socket round trip, SIGTERM
# shutdown, journal resume after restart.
serve-smoke:
	sh scripts/serve_smoke.sh

# Sharded-fleet check (DESIGN.md 16): router over 4 supervised worker
# processes, mixed traffic with a mid-round worker SIGKILL, structured
# retryable errors only, restart-in-place, bit-identical signatures
# after journal resume.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# Descriptor limits (DESIGN.md 11.4, 16.2): `dse serve` and the router
# survive fd exhaustion under `ulimit -n 128`, the router answers 1,100
# concurrent connections (fds past 1023) under `ulimit -n 2048`, and
# 10,000 short connections leave thread and fd counts flat.
fd-smoke:
	sh scripts/fd_limits.sh

# Crash-recovery soak (DESIGN.md 14): seeded traffic with I/O fault
# injection, a mid-traffic SIGKILL/restart, then offline verification
# that the snapshot fast path, the full-history oracle, and the live
# server's settled signatures are bit-identical.
soak:
	sh scripts/chaos_soak.sh

# One short round of the same gate, at PR speed.
soak-smoke:
	sh scripts/chaos_soak.sh --smoke

# The repository benchmark (BENCHMARK.json): each workload built from
# source and driven by perfbench/run.py for SECONDS, seeded by SEED.
# TRACE=1 makes it the traced run (per-layer metrics, the ladder, the
# evict/snapshot/resume recovery probe; fails past the ladder's
# residual tolerance).  Each workload's full output lands in
# .perfbench_run/<workload>.out and its last line (the result object)
# is echoed; the target fails unless that line reports "correct": true.
SEED ?= 1
SECONDS ?= 30
TRACE ?= 0
PERFBENCH_WORKLOADS = idct-fleet gen100k-steps

perfbench:
	@mkdir -p .perfbench_run
	@for w in $(PERFBENCH_WORKLOADS); do \
	  out=.perfbench_run/$$w.out; \
	  python3 perfbench/run.py --workload $$w --seed $(SEED) --seconds $(SECONDS) --trace $(TRACE) > $$out; \
	  status=$$?; \
	  echo "$$w: $$(tail -n 1 $$out)"; \
	  if [ $$status -ne 0 ] || ! tail -n 1 $$out | grep -q '"correct": true'; then \
	    echo "perfbench: $$w failed (exit $$status, output in $$out)" >&2; exit 1; \
	  fi; \
	done

# Concurrent-client service throughput/latency (writes BENCH_PR4.json,
# including the worker pool scaling sweep).
bench-serve:
	dune exec bench/main.exe -- serve --json

# Regression gate: fresh serve bench vs the committed BENCH_PR3.json
# baseline, then the columnar-sweep bench's serve leg vs the fresh PR4
# headline (plus the >=5x cold-sweep speedup floor); fails on a >20%
# throughput drop either way.  The fleet legs compare the committed
# 20k-session fleet aggregate against the PR7 serve baseline (>=2x
# sharding win, FLEET_MIN_SPEEDUP overrides) and the committed PR9
# pipelined aggregate against the PR8 lockstep fleet baseline (>=2.5x
# data-plane win, PIPELINE_MIN_SPEEDUP overrides).  The PR10 leg
# checks the committed fleet tracing-overhead figure against its <=3%
# budget (OBS_FLEET_MAX_OVERHEAD overrides).
bench-compare:
	dune exec bench/main.exe -- serve --json --smoke
	sh scripts/bench_compare.sh
	dune exec bench/main.exe -- sweep --json --smoke
	sh scripts/bench_compare.sh BENCH_PR4.json BENCH_PR7.json
	sh scripts/bench_compare.sh BENCH_PR7.json BENCH_PR9.json
	sh scripts/bench_compare.sh BENCH_PR8.json BENCH_PR9.json
	sh scripts/bench_compare.sh BENCH_PR10.json BENCH_PR10.json

# Columnar-sweep bench over generated 10^5- and 10^6-core layers
# (writes BENCH_PR7.json: build/cold-sweep/warm-requery times, GC
# deltas, columnar-vs-naive speedup, serve throughput leg).
# DSE_BENCH_REPS overrides the per-phase repetition counts.
bench-sweep:
	dune exec bench/main.exe -- sweep --json

# The 20k-session fleet bench: 256 concurrent clients over 8 driver
# processes against 4 sharded worker processes, with a mid-bench worker
# SIGKILL, a before/after signature audit, and a pipeline depth sweep
# (1/4/16) over the pass-through data plane (writes BENCH_PR9.json;
# DSE_BENCH_REPS overrides the per-session drive rounds).
bench-fleet:
	dune exec bench/main.exe -- fleet --json

bench:
	dune exec bench/main.exe

# Telemetry-overhead bench: serve throughput with tracing off vs on
# (writes BENCH_PR5.json; <=3% overhead budget, DESIGN.md 13).
bench-obs:
	dune exec bench/main.exe -- obs --json

# Fleet tracing-overhead bench: depth-16 pipelined traffic through the
# router with telemetry off vs on at the default head-sampling rate,
# adjacent alternating pairs, gated on the median pair overhead
# (writes BENCH_PR10.json; <=3% budget, DESIGN.md 18).
bench-obs-fleet:
	dune exec bench/main.exe -- obs-fleet --json

# The incremental-pruning baseline at full population sizes (slow),
# plus the telemetry-overhead run (BENCH_PR5.json).
bench-json:
	dune exec bench/main.exe -- micro --json
	dune exec bench/main.exe -- obs --json

doc:
	dune build @doc

examples:
	dune exec examples/quickstart.exe
	dune exec examples/idct_explorer.exe
	dune exec examples/crypto_explorer.exe
	dune exec examples/coproc_explorer.exe
	dune exec examples/video_explorer.exe
	dune exec examples/rsa_demo.exe

clean:
	dune clean
