"""kvbench: the repository's benchmark.

Four closed-loop workloads, two clocks (host and simulated), per-layer
numbers measured from outside through the public API of ``repro``.
See ``README.md`` beside this file and ``BENCHMARK.json`` at the root.
"""
