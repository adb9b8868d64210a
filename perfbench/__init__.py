"""Repository benchmark: START trajectory-query serving under two traffic mixes.

Run one workload with::

    python3 perfbench/run.py --workload traj-unique --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that wraps public layer functions from outside and reports per-layer
metrics.  ``BENCHMARK.json`` at the repository root lists the workloads and
metrics.  The harness self-tests run with ``python3 -m pytest perfbench``.
"""
