"""Regenerate every paper figure/table and print the full report.

Usage::

    python -m repro.figures            # everything, then the claims scoreboard
    python -m repro.figures fig13      # one experiment
    python -m repro.figures --fast     # skip the real-MD accuracy run
"""

from __future__ import annotations

import sys
import time

from repro.figures import (
    ablations,
    claims,
    eqs,
    sensitivity_fig,
    topomap,
    fig6,
    fig8,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    micro33,
    table1,
)

EXPERIMENTS = {
    "table1": table1,
    "eqs": eqs,
    "fig6": fig6,
    "fig8": fig8,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "micro33": micro33,
    "topomap": topomap,
    "ablations": ablations,
    "sensitivity": sensitivity_fig,
}


def run(names=None, fast: bool = False) -> str:
    """Render the named experiments; with every one run, end on the scoreboard."""
    names = list(names) if names else list(EXPERIMENTS)
    if fast and "fig11" in names:
        names.remove("fig11")  # the only one that runs real MD steps
    parts, results = [], {}
    for name in names:
        mod = EXPERIMENTS[name]
        t0 = time.perf_counter()
        results[name] = mod.compute()
        text = mod.render(results[name])
        dt = time.perf_counter() - t0
        parts.append(f"=== {name} ({dt:.1f}s) ===\n{text}")
    if results.keys() == EXPERIMENTS.keys():
        parts.append("=== scoreboard ===\n" + claims.scoreboard(EXPERIMENTS, results))
    return "\n\n".join(parts)


def main(argv: list[str]) -> int:
    fast = "--fast" in argv
    names = [a for a in argv if not a.startswith("-")]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; choose from {sorted(EXPERIMENTS)}")
        return 2
    print(run(names or None, fast=fast))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
