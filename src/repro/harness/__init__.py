"""Experiment harness: reproduce every table and figure of the paper.

* :mod:`repro.harness.runner` — drive workloads against clusters with
  blocking or non-blocking client APIs.
* :mod:`repro.harness.figures` — one function per paper figure/table;
  each returns structured rows and accepts a ``scale`` knob so the same
  experiment runs full-size or CI-size.
* :mod:`repro.harness.paper` — the numbers the paper reports, encoded
  as reference ratios for shape checks.
* :mod:`repro.harness.report` — ASCII tables for bench output and
  EXPERIMENTS.md.
"""

from repro.harness.runner import RunConfig, RunResult

__all__ = ["RunConfig", "RunResult"]
