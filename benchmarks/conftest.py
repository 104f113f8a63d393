"""Shared fixtures for the figure-regeneration benchmarks.

Each ``bench_*`` file regenerates one paper table/figure: the
``benchmark`` fixture times the computation, assertions pin the paper's
qualitative claims, and the rendered table is printed so
``pytest benchmarks/ --benchmark-only -s`` doubles as the report behind
EXPERIMENTS.md (or run ``python -m repro.figures``).  For a
machine-readable record of the timings use pytest-benchmark's own
``--benchmark-json=<path>``.
"""

import pytest

from repro.perfmodel import StageModel


@pytest.fixture(scope="session")
def stage_model():
    return StageModel()
