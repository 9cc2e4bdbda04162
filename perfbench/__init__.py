"""perfbench: the repo's one benchmark.

Five named workloads drive the library through its public entry points
only (source text in, SPMD result / tune ranking / HTTP response out),
check every output against the sequential interpreter and pinned
simulated statistics, and report nine end-to-end metrics plus a
per-layer ledger. See README.md in this directory for the metric
definitions, the estimator and how to read the ledger.

Run it as ``PYTHONPATH=src python -m perfbench`` (human report) or
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
(one JSON line, the contract ``BENCHMARK.json`` names).
"""

#: Seed used when none is given; golden.json pins the seeded (irregular)
#: jobs' simulated statistics for this seed only.
DEFAULT_SEED = 1

#: Seconds of timed rounds per run (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 8
