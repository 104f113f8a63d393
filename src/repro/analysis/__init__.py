"""Protocol analysis for the exchange/RDMA stack.

Two cooperating passes guard the paper's protocol invariants:

* :mod:`repro.analysis.commlint` — invariant checks (``CLxxx``) on the
  rings, windows and arena a built exchange holds, and on one
  configuration (the scenario fleet's L1);
* :mod:`repro.analysis.hb` — vector-clock happens-before race detector
  (``HBxxx``) over PR-1 trace events from an instrumented run.

Both produce :class:`repro.analysis.findings.AnalysisReport` and are
driven by ``repro analyze`` (see :mod:`repro.analysis.cli`).
"""

from repro.analysis.findings import AnalysisReport, Finding

__all__ = ["AnalysisReport", "Finding"]
