"""Findings and reports shared by commlint and the race detector.

Every diagnostic the analysis layer produces — a protocol-rule
violation (``CLxxx``) or a dynamic happens-before hazard (``HBxxx``) —
is a :class:`Finding` with a stable rule ID, a location, and a one-line
message.  The :class:`AnalysisReport` aggregates them and renders the
two formats the tooling consumes: a human text listing (the default CLI
output) and a versioned JSON document (``repro-analysis/1``) for CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: JSON schema tag written by :meth:`AnalysisReport.to_dict`.
SCHEMA = "repro-analysis/1"

#: Finding severities, in escalation order.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation or a detected hazard."""

    rule: str  # stable ID: "CL001", "HB001", ...
    message: str
    path: str = "<runtime>"  # source file, or "<trace>" for dynamic findings
    line: int = 0  # 1-based; 0 when no source anchor exists
    severity: str = "error"
    detail: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def location(self) -> str:
        """``path:line`` anchor (path only when no line is known)."""
        return f"{self.path}:{self.line}" if self.line else self.path

    def to_dict(self) -> dict:
        """JSON-ready form."""
        out = {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class AnalysisReport:
    """All findings of one analysis run plus what was analyzed."""

    tool: str  # "commlint" | "race-detector" | "analyze"
    findings: list[Finding] = field(default_factory=list)
    files_analyzed: list[str] = field(default_factory=list)
    events_analyzed: int = 0

    def add(self, finding: Finding) -> None:
        """Record one finding."""
        self.findings.append(finding)

    def extend(self, other: "AnalysisReport") -> None:
        """Fold another report's findings and coverage into this one."""
        self.findings.extend(other.findings)
        self.files_analyzed.extend(
            f for f in other.files_analyzed if f not in self.files_analyzed
        )
        self.events_analyzed += other.events_analyzed

    @property
    def ok(self) -> bool:
        """True when no *error*-severity finding was recorded."""
        return not any(f.severity == "error" for f in self.findings)

    @property
    def clean(self) -> bool:
        """True when no finding of any severity was recorded."""
        return not self.findings

    def normalize(self) -> None:
        """Sort and dedupe findings so merged reports are byte-stable.

        Merging commlint + race-detector + protomc findings must yield
        the same JSON no matter which tool ran first (or twice): order
        by ``(rule, location, message)`` and drop exact repeats of that
        key.  Coverage lists are normalized the same way.
        """
        seen: set[tuple[str, str, int, str]] = set()
        unique: list[Finding] = []
        for f in sorted(
            self.findings,
            key=lambda f: (f.rule, f.path, f.line, f.message, f.severity, f.detail),
        ):
            key = (f.rule, f.path, f.line, f.message)
            if key in seen:
                continue
            seen.add(key)
            unique.append(f)
        self.findings = unique
        self.files_analyzed = sorted(set(self.files_analyzed))

    def by_rule(self) -> dict[str, int]:
        """Finding count per rule ID (sorted keys)."""
        out: dict[str, int] = {}
        for f in sorted(self.findings, key=lambda f: f.rule):
            out[f.rule] = out.get(f.rule, 0) + 1
        return out

    def to_dict(self) -> dict:
        """Versioned JSON document (``repro-analysis/1``)."""
        return {
            "schema": SCHEMA,
            "tool": self.tool,
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                "findings": len(self.findings),
                "errors": sum(f.severity == "error" for f in self.findings),
                "warnings": sum(f.severity == "warning" for f in self.findings),
                "by_rule": self.by_rule(),
                "files_analyzed": len(self.files_analyzed),
                "events_analyzed": self.events_analyzed,
            },
        }

    def render_json(self) -> str:
        """The JSON document as an indented string."""
        return json.dumps(self.to_dict(), indent=2)

    def render(self) -> str:
        """Human-readable listing (the default CLI output)."""
        lines = [f"{self.tool}:"]
        for f in sorted(self.findings, key=lambda f: (f.path, f.line, f.rule)):
            lines.append(
                f"  {f.location()}: {f.severity}: {f.rule}: {f.message}"
            )
            if f.detail:
                lines.append(f"      {f.detail}")
        coverage = []
        if self.files_analyzed:
            coverage.append(f"{len(self.files_analyzed)} file(s)")
        if self.events_analyzed:
            coverage.append(f"{self.events_analyzed} trace event(s)")
        scope = " over " + ", ".join(coverage) if coverage else ""
        lines.append(f"  {len(self.findings)} finding(s){scope}")
        return "\n".join(lines)
