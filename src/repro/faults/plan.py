"""Declarative, replayable fault plans (schema ``repro-faults/1``).

A :class:`FaultPlan` is the complete description of one chaos
experiment: a seed, a retry policy, and a list of :class:`FaultSpec`
entries.  Because every injection decision is drawn from one
``random.Random(seed)`` stream in deterministic call order, the plan is
**fully replayable** — the same plan against the same simulation
produces the same faults, the same retries, and the same trace event
sequence (a property test asserts it).

The taxonomy follows the failure modes of sections 3.3–3.4:

========== ============================================================
kind        what it models
========== ============================================================
drop        a message lost on the wire; the retransmission arrives
            after ``severity`` receiver retry polls
delay       a late message (same machinery, short hold)
reorder     messages of one mailbox arrive out of injection order
tni-stall   a TNI engine holds a message ``stall`` extra seconds
vcq-credit  VCQ descriptor credits exhausted: every ``credits``-th
            injection on the matched VCQ waits ``stall`` seconds
inject-jitter  software injection jitter in ``[0, stall)`` seconds
rdma-stale  a forward-stage RDMA PUT still in flight: the remote
            window shows the previous epoch until ``severity`` fence
            polls (the round-robin hazard of section 3.4)
ring-stale  a reverse-stage ring PUT still in flight: the consumer
            sees a clean buffer until ``severity`` retry polls
========== ============================================================

``drop``/``delay``/``reorder`` act on the functional message plane,
``tni-stall``/``vcq-credit``/``inject-jitter`` on the simulated-machine
timeline, and ``rdma-stale``/``ring-stale`` on the one-sided RDMA plane.
Atom migration (the ``exchange`` phase) is exempt from message faults by
construction: it moves no messages (one pass over the world's atom
arena), so there is nothing for a fault to act on — only the traffic log
records what its sends would have been.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA = "repro-faults/1"

#: Message-plane fault kinds (consulted by the transport).
MESSAGE_KINDS = ("drop", "delay", "reorder")
#: Simulated-machine timing fault kinds (consulted by the simulator).
TIMING_KINDS = ("tni-stall", "vcq-credit", "inject-jitter")
#: One-sided RDMA fault kinds (consulted by engine/rings).
RDMA_KINDS = ("rdma-stale", "ring-stale")

FAULT_KINDS = MESSAGE_KINDS + TIMING_KINDS + RDMA_KINDS

#: Transport phases exempt from message faults (see module docstring).
EXEMPT_PHASES = ("exchange",)


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault pattern.

    ``phases``/``src``/``dst``/``tni`` narrow where the fault may fire
    (``None`` matches anything); ``probability`` and ``count`` bound how
    often.  ``severity`` is the number of retry polls a held message or
    deferred PUT needs before it lands; ``stall`` is the modeled seconds
    a timing fault costs; ``credits`` is the VCQ depth for
    ``vcq-credit``.
    """

    kind: str
    probability: float = 1.0
    count: int | None = None
    phases: tuple[str, ...] | None = None
    src: int | None = None
    dst: int | None = None
    tni: int | None = None
    severity: int = 1
    stall: float = 0.0
    credits: int = 8
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be >= 1 or None, got {self.count}")
        if self.severity < 1:
            raise ValueError(f"severity must be >= 1, got {self.severity}")
        if self.stall < 0.0:
            raise ValueError(f"stall must be >= 0, got {self.stall}")
        if self.kind in TIMING_KINDS and self.stall <= 0.0:
            raise ValueError(f"{self.kind} requires a positive stall time")
        if self.credits < 1:
            raise ValueError(f"credits must be >= 1, got {self.credits}")
        if self.phases is not None:
            object.__setattr__(self, "phases", tuple(self.phases))
            for ph in self.phases:
                if ph in EXEMPT_PHASES:
                    raise ValueError(
                        f"phase {ph!r} is exempt from message faults "
                        "(migration moves no messages)"
                    )

    def to_dict(self) -> dict:
        """JSON-ready form (defaults omitted for readable plans)."""
        out: dict = {"kind": self.kind}
        if self.probability != 1.0:
            out["probability"] = self.probability
        if self.count is not None:
            out["count"] = self.count
        if self.phases is not None:
            out["phases"] = list(self.phases)
        for name in ("src", "dst", "tni"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        if self.severity != 1:
            out["severity"] = self.severity
        if self.stall:
            out["stall"] = self.stall
        if self.credits != 8:
            out["credits"] = self.credits
        if self.note:
            out["note"] = self.note
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultSpec":
        """Parse one spec; unknown keys are an error (plan typos bite)."""
        known = {
            "kind", "probability", "count", "phases", "src", "dst", "tni",
            "severity", "stall", "credits", "note",
        }
        extra = set(doc) - known
        if extra:
            raise ValueError(f"unknown FaultSpec field(s) {sorted(extra)}")
        kwargs = dict(doc)
        if "phases" in kwargs and kwargs["phases"] is not None:
            kwargs["phases"] = tuple(kwargs["phases"])
        return cls(**kwargs)


@dataclass(frozen=True)
class RetryPolicy:
    """Receiver-side robustness knobs of the policy layer.

    ``base_timeout`` is the first retry's modeled wait (simulated
    seconds, accounted as ``cat="retry"`` model spans); each further
    retry multiplies it by ``backoff``.  After ``max_retries`` the
    receiver escalates (:class:`~repro.faults.injector.RetryExhaustedError`);
    once more than ``fault_budget`` faults were injected the session
    escalates pre-emptively so the driver degrades to a sturdier
    pattern.
    """

    base_timeout: float = 1e-6
    backoff: float = 2.0
    max_retries: int = 8
    fault_budget: int | None = None

    def __post_init__(self) -> None:
        if self.base_timeout <= 0:
            raise ValueError(f"base_timeout must be > 0, got {self.base_timeout}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.fault_budget is not None and self.fault_budget < 1:
            raise ValueError(
                f"fault_budget must be >= 1 or None, got {self.fault_budget}"
            )

    def to_dict(self) -> dict:
        """JSON-ready form (all fields, they are few)."""
        return {
            "base_timeout": self.base_timeout,
            "backoff": self.backoff,
            "max_retries": self.max_retries,
            "fault_budget": self.fault_budget,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RetryPolicy":
        known = {"base_timeout", "backoff", "max_retries", "fault_budget"}
        extra = set(doc) - known
        if extra:
            raise ValueError(f"unknown RetryPolicy field(s) {sorted(extra)}")
        return cls(**doc)


@dataclass(frozen=True)
class FaultPlan:
    """Seed + policy + fault schedule: one replayable chaos experiment."""

    seed: int = 0
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    faults: tuple[FaultSpec, ...] = ()
    note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def absorbable(self) -> bool:
        """Whether the retry layer can absorb every fault of this plan.

        True when no held message or deferred PUT outlives the retry
        horizon and no budget forces early escalation.  An absorbable
        plan must leave the final ghost region bit-identical to the
        fault-free run — the invariant ``selfcheck --faults`` enforces.
        """
        if self.policy.fault_budget is not None:
            return False
        return all(
            f.severity <= self.policy.max_retries
            for f in self.faults
            if f.kind not in TIMING_KINDS
        )

    def to_dict(self) -> dict:
        """JSON document form, tagged with the schema version."""
        out = {
            "schema": SCHEMA,
            "seed": self.seed,
            "policy": self.policy.to_dict(),
            "faults": [f.to_dict() for f in self.faults],
        }
        if self.note:
            out["note"] = self.note
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        if doc.get("schema") != SCHEMA:
            raise ValueError(
                f"not a {SCHEMA} document (schema={doc.get('schema')!r})"
            )
        known = {"schema", "seed", "policy", "faults", "note"}
        extra = set(doc) - known
        if extra:
            raise ValueError(f"unknown FaultPlan field(s) {sorted(extra)}")
        return cls(
            seed=int(doc.get("seed", 0)),
            policy=RetryPolicy.from_dict(doc.get("policy", {})),
            faults=tuple(FaultSpec.from_dict(f) for f in doc.get("faults", ())),
            note=doc.get("note", ""),
        )

    def save(self, path: str) -> None:
        """Serialize to JSON (the ``--faults`` file format)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Load a plan saved by :meth:`save` (or written by hand)."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


#: Per-axis plan templates the scenario fleet instantiates.  Every
#: template is **absorbable by construction** (severity well under the
#: default retry horizon, no fault budget), so the fault-absorption
#: battery may assert bit-identical ghosts for any scenario built from
#: one.  Keys are the values of the scenario ``fault`` axis.
_TEMPLATE_FAULTS: dict[str, FaultSpec] = {
    "drop": FaultSpec(
        kind="drop", probability=0.3, count=4, severity=2,
        note="lossy wire: retransmissions land within 2 polls",
    ),
    "delay": FaultSpec(
        kind="delay", probability=0.5, count=6, severity=1,
        note="late messages, one retry poll",
    ),
    "reorder": FaultSpec(
        kind="reorder", probability=0.5, count=6,
        note="mailbox arrival order scrambled",
    ),
    "tni-stall": FaultSpec(
        kind="tni-stall", probability=0.25, count=4, stall=2e-6,
        note="one TNI engine holds messages 2us",
    ),
    "vcq-credit": FaultSpec(
        kind="vcq-credit", probability=1.0, count=2, stall=1e-6, credits=4,
        note="descriptor credits exhausted every 4th injection",
    ),
    "inject-jitter": FaultSpec(
        kind="inject-jitter", probability=0.5, count=8, stall=5e-7,
        note="software injection jitter in [0, 0.5us)",
    ),
}

#: Fault-axis values a scenario spec may use (the absorbable subset —
#: the stale-PUT hazards are race-detector fixtures, not fleet axes).
TEMPLATE_KINDS = tuple(_TEMPLATE_FAULTS)


def template_plan(kind: str, seed: int = 0) -> FaultPlan:
    """Instantiate the absorbable plan template for one fault axis value.

    Raises ``ValueError`` for kinds without a template (e.g. the
    §3.4 stale-PUT hazards, which intentionally violate absorbability).
    """
    spec = _TEMPLATE_FAULTS.get(kind)
    if spec is None:
        raise ValueError(
            f"no plan template for fault kind {kind!r}; choose from {TEMPLATE_KINDS}"
        )
    plan = FaultPlan(seed=seed, faults=(spec,), note=f"fleet template: {kind}")
    assert plan.absorbable(), f"template {kind!r} must stay absorbable"
    return plan
