# Convenience targets; `make check` is the tier-1 gate (build + tests
# + the seconds-scale bench smoke).

.PHONY: all build test check faultcheck recovercheck tracecheck scalecheck \
  netcheck meshcheck obscheck bench-smoke bench-json \
  perfsmoke loc options clean

all: build

build:
	dune build @all

test:
	dune runtest

check:
	dune build @all && dune runtest && $(MAKE) faultcheck \
	  && $(MAKE) recovercheck && $(MAKE) tracecheck && $(MAKE) scalecheck \
	  && $(MAKE) netcheck && $(MAKE) meshcheck \
	  && $(MAKE) obscheck && $(MAKE) bench-smoke

# Fault-injection suite: the supervised-delivery unit tests plus the
# deterministic CLI demo pinned by test/cram/faults.t.
faultcheck:
	dune build test/test_fault.exe bin/genas_cli.exe @test/cram/faults
	./_build/default/test/test_fault.exe -q

# Durability suite: journal/snapshot unit tests plus the crash-recovery
# differential (crash at seeded points, recover, replay the remaining
# traffic, compare bit-for-bit against the no-crash run), and the CLI
# demo pinned by test/cram/journal.t.
recovercheck:
	dune build test/test_journal.exe test/test_recover.exe bin/genas_cli.exe \
	  @test/cram/journal
	./_build/default/test/test_journal.exe -q
	./_build/default/test/test_recover.exe -q

# Tracing suite: tracer/flight-recorder unit tests plus the CLI demo
# pinned by test/cram/trace.t (same-seed Chrome trace JSON compared
# byte-for-byte, flight-recorder dump on an injected crash).
tracecheck:
	dune build test/test_trace.exe bin/genas_cli.exe @test/cram/trace
	./_build/default/test/test_trace.exe -q

# Aggregation suite: the covering/lattice unit tests and the
# aggregated-vs-plain differentials (test_cover, the engine equivalence
# property in test_flat), then a 10^3/10^4 profile-count scaling smoke
# through the CLI, validated by the strict JSON checker. QCheck
# properties are skipped under -q, so no -q here. The plain baseline
# is capped at 10^3: its sampled churn ops run on the pending delta,
# but the first sample folds the whole population into one replan,
# seconds on this covering-heavy workload (docs/SCALING.md).
scalecheck:
	dune build test/test_cover.exe test/test_flat.exe bin/genas_cli.exe
	./_build/default/test/test_cover.exe
	./_build/default/test/test_flat.exe
	./_build/default/bin/genas_cli.exe bench --json --events 200 \
	  --scaling 1000,10000 --baseline-max 1000 \
	  | ./_build/default/bin/genas_cli.exe jsoncheck

# Networking suite: wire-codec bounds, socket round trips, covering
# propagation on the wire, fault-driven reconnect + WAL catch-up, the
# fork-based two-process exchange, and the networked ≡ Router
# differential (test_transport), plus the two-process CLI demo pinned
# by test/cram/netcheck.t (docs/NETWORKING.md).
netcheck:
	dune build test/test_transport.exe bin/genas_cli.exe @test/cram/netcheck
	./_build/default/test/test_transport.exe -q

# Mesh-robustness suite: heartbeat liveness (half-dead peers reaped
# both ends), request deadlines, bounded-backpressure slow-consumer
# shedding, auto-reconnect + replay exactly-once, multi-hop relay ≡
# flat-Router differentials, the seeded chaos plan over a 3-node
# chain, the kill/restart soak (thread/fd leak check), and the
# genas_net_* metrics surface (test_mesh), plus the three-process
# relay demo pinned by test/cram/meshcheck.t. Wrapped in a hard
# timeout: every socket test already carries its own in-test deadline,
# but a wedged kernel-level hang must fail CI, not park it.
meshcheck:
	dune build test/test_mesh.exe bin/genas_cli.exe @test/cram/meshcheck
	timeout 300 ./_build/default/test/test_mesh.exe -q

# Observability suite: metrics/tracer unit tests (atomic instruments
# hammered from two domains, dropped-span accounting, cross-process
# trace adoption and merge), plus the three-process end-to-end demo
# pinned by test/cram/obscheck.t — deterministic merged Chrome trace
# across runs, metrics scrape endpoint, and 'genas status' fan-out
# (docs/OBSERVABILITY.md).
obscheck:
	dune build test/test_obs.exe test/test_trace.exe test/test_mesh.exe \
	  bin/genas_cli.exe @test/cram/obscheck
	./_build/default/test/test_obs.exe -q
	./_build/default/test/test_trace.exe -q
	timeout 300 ./_build/default/test/test_mesh.exe test -q observability

# End-to-end benchmark smoke (perf/README.md): builds the benchmark,
# a project of its own that the targets above never compile, against
# the current lib/, and runs both in-process workloads for a few
# seconds. The traced leg also runs the per-layer waterfall, which
# drives the engine's entry points directly. A non-zero exit is a
# broken benchmark build or a delivery that disagreed with the Naive
# reference.
perfsmoke:
	python3 perf/run.py --workload paper-inproc --seed 1 --seconds 3 --trace 0
	python3 perf/run.py --workload agg-churn --seed 1 --seconds 3 --trace 0
	python3 perf/run.py --workload paper-inproc --seed 1 --seconds 3 --trace 1

# Seconds-scale subset: every matcher timed on a small event budget,
# output validated by the strict JSON checker. The binary is built
# once and piped to itself — two concurrent `dune exec`s would
# deadlock on the build lock.
bench-smoke:
	dune build bin/genas_cli.exe
	./_build/default/bin/genas_cli.exe bench --json --events 2000 \
	  | ./_build/default/bin/genas_cli.exe jsoncheck

# Full-budget run writing a new perf-trajectory record, scaling curve
# included (the 10^6 point and the 10^4 baseline take minutes; see
# docs/SCALING.md). `make bench-json PR=<n>` writes BENCH_PR<n>.json;
# committed records are never overwritten.
bench-json:
	@test -n "$(PR)" \
	  || { echo "bench-json: set PR=<n> to write BENCH_PR<n>.json" >&2; exit 1; }
	@test ! -e BENCH_PR$(PR).json \
	  || { echo "bench-json: BENCH_PR$(PR).json exists; records are append-only" >&2; exit 1; }
	dune exec bin/genas_cli.exe -- bench --json --events 200000 \
	  --scaling 1000,2000,10000,100000,1000000 --out BENCH_PR$(PR).json

# Line count of the library sources (every .ml and .mli under lib/),
# the figure CHANGES.md and ROADMAP.md quote for lib/.
loc:
	@find lib \( -name '*.ml' -o -name '*.mli' \) -print0 | xargs -0 cat | wc -l

# Count of optional parameters declared in the library interfaces,
# the figure CHANGES.md quotes beside `make loc`: every option should
# have a caller.
options:
	@grep -ho '?[a-z_0-9]*:' lib/*/*.mli | wc -l

clean:
	dune clean
