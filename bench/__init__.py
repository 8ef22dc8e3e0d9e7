"""The benchmark of record: four workloads timed end to end and per layer.

See ``bench/README.md`` and ``BENCHMARK.json`` at the repository root.
"""
