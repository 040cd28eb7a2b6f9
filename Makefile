# Convenience targets for the DCDB reproduction.

PYTHON ?= python

# Seeds driving the deterministic chaos suite; override to reproduce a
# failing schedule: make chaos CHAOS_SEEDS=42
CHAOS_SEEDS ?= 101,202,303,404,505

.PHONY: install test metrics-smoke trace-smoke e2e-smoke chaos chaos-durability chaos-rebalance bench bench-query bench-tracing bench-rollup bench-transport bench-qos1 bench-durability bench-rebalance bench-baseline bench-compare bench-check experiments examples loc all

install:
	pip install -e .

test: metrics-smoke trace-smoke e2e-smoke chaos chaos-durability chaos-rebalance bench-query bench-tracing bench-rollup bench-transport bench-qos1 bench-durability bench-rebalance bench-check
	$(PYTHON) -m pytest tests/

# Boot an in-process pusher->agent pipeline and validate the /metrics
# exposition of both REST APIs; fails on malformed Prometheus output
# or on drift between the docs catalogue and the runtime families.
metrics-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.tools.metrics_smoke

# Step a simulated cluster with tracing on and assert a complete
# (>= 5 span) distributed trace is retrievable via GET /traces.
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.tools.trace_smoke

# Every workload of the end-to-end benchmark at --smoke size through
# the real command: output schema, verification, the traced run
# installing every wrapper.  tests/test_e2e_ruler.py is its tier-1
# shadow (names and keywords only, no run).
e2e-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/e2e/test_e2e_smoke.py

# Seeded fault-injection suite (kill/restart mid-ingest, flaky flushes,
# broker disconnects) plus the cluster's hinted-handoff handling over
# the one FaultyBackend proxy.  See docs/resilience.md.
chaos:
	PYTHONPATH=src CHAOS_SEEDS=$(CHAOS_SEEDS) $(PYTHON) -m pytest \
		tests/storage/test_faults.py tests/storage/test_cluster.py \
		tests/storage/test_hints.py tests/integration/test_chaos.py

# Durability chaos battery: kill -9 mid-ingest under fsync=always
# (zero acked-write loss, bit-identical recovery fingerprints per
# seed), torn WAL tails, flipped CRC bytes, disk-fault injection, plus
# the engine suites that run the durable node against the oracle (the
# contract cases and the model test).  See docs/durability.md.
chaos-durability:
	PYTHONPATH=src CHAOS_SEEDS=$(CHAOS_SEEDS) $(PYTHON) -m pytest \
		tests/storage/test_durable.py tests/storage/test_durable_codecs.py \
		tests/storage/test_node.py tests/storage/test_backends_contract.py \
		tests/integration/test_chaos_durability.py

# Elastic-membership chaos battery: double/drain a cluster mid-ingest
# with a source killed at an exact chunk boundary of the rebalance
# stream (zero acked-reading loss, bit-identical reads before/during/
# after, moved bytes <= 1.25x the theoretical minimum).  See the
# "Cluster operations" runbook in docs/deployment.md.
chaos-rebalance:
	PYTHONPATH=src CHAOS_SEEDS=$(CHAOS_SEEDS) $(PYTHON) -m pytest \
		tests/storage/test_membership.py \
		tests/integration/test_chaos_rebalance.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Single-round smoke over the read-path benchmarks: correctness of the
# pruned/batched/parallel query paths without timing anything (the
# speedup gates only arm when benchmarking is enabled), so it is cheap
# enough to ride along with every `make test`.
bench-query:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/test_query_path.py \
		--benchmark-disable

# Single-round smoke over the tracing-overhead decomposition: counts
# every tracer primitive through a sampled simulated pipeline and
# prices it (the <= 5% gate arms under `make bench`), so a change to
# the tracer API it patches fails here rather than only at bench time.
bench-tracing:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/test_tracing_overhead.py \
		--benchmark-disable

# Single-round smoke over the transport fan-in benchmark (200 pushers
# against the event-loop broker, correctness only — the >= 2x gate vs
# the in-test thread-per-client reference arms under `make bench`).
bench-transport:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/test_transport.py \
		--benchmark-disable

# Single-round smoke over the one-QoS-1-publisher benchmark: every
# message stored and acked; the >= 1.5x gate of the end-of-turn flush
# over the idle deadline arms under `make bench`.
bench-qos1:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/test_qos1_ack.py \
		--benchmark-disable

# Single-round smoke over the rollup-tier dashboard-burst benchmark
# (tier-served aggregates are asserted bit-identical to raw-computed
# ones in every mode; the >= 5x p99 gate arms under `make bench`).
bench-rollup:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/test_rollup_path.py \
		--benchmark-disable

# Record the ingest/storage microbenchmark baseline as pytest-benchmark
# JSON.  BENCH_ingest.json is committed so regressions in the batched
# ingest path show up as a diff against the recorded numbers; raw
# per-round samples are stripped to keep the committed file small.
# BENCH_query.json does the same for the query path (segment pruning,
# cluster query_many, parallel subtree scan, batched virtual sensors),
# BENCH_transport.json for the event-loop fan-in throughput,
# BENCH_rollup.json for the tier-served dashboard-burst p99,
# BENCH_durability.json for the durable-ingest overhead, the
# facility-data compression ratio and the cold-window pruning speedup,
# and BENCH_rebalance.json for the live-rebalance moved-volume and
# mid-rebalance ingest overheads.
bench-baseline:
	PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_microbench_components.py \
		benchmarks/test_microbench_backends.py \
		--benchmark-only --benchmark-json=BENCH_ingest.json
	$(PYTHON) -c "import json; d = json.load(open('BENCH_ingest.json')); \
		[b['stats'].pop('data', None) for b in d['benchmarks']]; \
		json.dump(d, open('BENCH_ingest.json', 'w'), indent=1, sort_keys=True)"
	PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_query_path.py \
		--benchmark-only --benchmark-json=BENCH_query.json
	$(PYTHON) -c "import json; d = json.load(open('BENCH_query.json')); \
		[b['stats'].pop('data', None) for b in d['benchmarks']]; \
		json.dump(d, open('BENCH_query.json', 'w'), indent=1, sort_keys=True)"
	PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_transport.py \
		--benchmark-only --benchmark-json=BENCH_transport.json
	$(PYTHON) -c "import json; d = json.load(open('BENCH_transport.json')); \
		[b['stats'].pop('data', None) for b in d['benchmarks']]; \
		json.dump(d, open('BENCH_transport.json', 'w'), indent=1, sort_keys=True)"
	PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_rollup_path.py \
		--benchmark-only --benchmark-json=BENCH_rollup.json
	$(PYTHON) -c "import json; d = json.load(open('BENCH_rollup.json')); \
		[b['stats'].pop('data', None) for b in d['benchmarks']]; \
		json.dump(d, open('BENCH_rollup.json', 'w'), indent=1, sort_keys=True)"
	PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_durability.py \
		--benchmark-only --benchmark-json=BENCH_durability.json
	$(PYTHON) -c "import json; d = json.load(open('BENCH_durability.json')); \
		[b['stats'].pop('data', None) for b in d['benchmarks']]; \
		json.dump(d, open('BENCH_durability.json', 'w'), indent=1, sort_keys=True)"
	PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_rebalance.py \
		--benchmark-only --benchmark-json=BENCH_rebalance.json
	$(PYTHON) -c "import json; d = json.load(open('BENCH_rebalance.json')); \
		[b['stats'].pop('data', None) for b in d['benchmarks']]; \
		json.dump(d, open('BENCH_rebalance.json', 'w'), indent=1, sort_keys=True)"

# Single-round smoke over the durability benchmarks: the compression-
# ratio floor and the bounded-memory block-cache scan are asserted in
# every mode; the <= 1.6x durable-vs-memory ingest gate and the >= 3x
# cold-window pruning gate arm under `make bench`.
bench-durability:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/test_durability.py \
		--benchmark-disable

# Single-round smoke over the live-rebalance benchmarks: the moved-
# volume minimum and the zero-loss mid-rebalance ingest are asserted
# in every mode; the ingest-slowdown gate arms under `make bench`.
bench-rebalance:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/test_rebalance.py \
		--benchmark-disable

# Run the full benchmark suite and diff the gated stats (best-of wall
# time plus the machine-independent *_x / *_ratio extra_info values)
# against the committed BENCH_*.json baselines; fails on any >25%
# regression.  Refresh the baselines with `make bench-baseline`.
#
# With PARENT=<checkout of the parent commit> it runs the paired
# end-to-end protocol instead: benchmarks/e2e/run.py of PARENT and of
# this tree alternately (PAIRS pairs per workload, seed k for pair k,
# sides alternating who goes first), one table per workload; fails if
# an end-to-end metric is worse by more than its BENCHMARK.json bound.
#   git clone . ../parent && git -C ../parent checkout HEAD~1
#   make bench-compare PARENT=../parent [PAIRS=10] [WORKLOADS="ingest_grid mixed_rw"]
PAIRS ?= 10
bench-compare:
ifdef PARENT
	PYTHONPATH=src $(PYTHON) -m repro.tools.bench_compare pairs $(PARENT) . \
		--pairs $(PAIRS) $(foreach w,$(WORKLOADS),--workload $(w))
else
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only \
		--benchmark-json=.bench_fresh.json
	PYTHONPATH=src $(PYTHON) -m repro.tools.bench_compare .bench_fresh.json
	rm -f .bench_fresh.json
endif

# Structural smoke over the committed baselines (they parse, carry
# stats, and name only benchmarks that still collect) — rides along
# with `make test` so a renamed benchmark cannot strand its baseline.
bench-check:
	PYTHONPATH=src $(PYTHON) -m repro.tools.bench_compare --check

# Regenerate every paper table/figure with the result tables printed.
experiments:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/facility_monitoring.py
	$(PYTHON) examples/application_characterization.py
	$(PYTHON) examples/scalable_cluster.py
	$(PYTHON) examples/online_analytics.py
	$(PYTHON) examples/self_monitoring.py

# The src/ total is the number ROADMAP tracks; it comes first, alone.
loc:
	@find src -name '*.py' | xargs wc -l | tail -1 | sed 's/total/src/'
	@find src tests benchmarks examples -name '*.py' | xargs wc -l | tail -1

all: test bench
