"""Declarative scenario specs (``repro-scenario-spec/1``) and their expansion.

A *spec* is a small, hand-written JSON document that names axis products
over the paper's configuration space — geometry, potential, stencil
radius, node count, Newton mode, exchange variant, fault plane,
observability regime — and a *scenario* (``repro-scenario/1``) is one
fully concrete point of that product, ready to be validated (L0–L3, see
:mod:`repro.scenarios.validate`) and executed by the differential /
fault / bench gates.

Expansion is **deterministic**: axes multiply in the canonical
:data:`AXIS_ORDER`, ids are derived purely from the block name and the
axis values, seeds are a pure function of the axes (the equivalence
blocks reproduce the legacy 24-config seed formula exactly), and the
sampled-tier assignment hashes ids with ``crc32`` — the same spec always
serializes to byte-identical output, which CI asserts.

Spec document shape::

    {
      "schema": "repro-scenario-spec/1",
      "name": "fleet-core",
      "defaults": {"skin": 0.3, "steps": 2},
      "blocks": [
        {
          "name": "equivalence-off",
          "role": "equivalence",            # equivalence|fault|model|bench
          "axes": {"geometry": [...], "cutoff": [...], "newton": [...]},
          "fixed": {"observability": "off", "patterns": [...]},
          "tolerances": {"force_atol": 1e-10},
          "sample": "all"                   # or an int quota
        }, ...
      ]
    }
"""

from __future__ import annotations

import itertools
import math
import zlib

from repro.artifact import dumps, read

#: Schema tag of the hand-written spec file.
SPEC_SCHEMA = "repro-scenario-spec/1"
#: Schema tag of one expanded, concrete scenario document.
SCENARIO_SCHEMA = "repro-scenario/1"
#: Schema tag of the generated fleet (list of scenarios) artifact.
FLEET_SCHEMA = "repro-scenario-fleet/1"

#: Scenario roles and the gate family each feeds.
ROLES = ("equivalence", "fault", "model", "bench")

#: Canonical axis multiplication order: expansion never depends on the
#: JSON key order of the spec, so serialization can sort keys freely.
AXIS_ORDER = (
    "geometry",
    "potential",
    "variant",
    "nodes",
    "stencil",
    "cutoff",
    "newton",
    "fault",
    "observability",
    "config",
)

#: Axes each role must / may declare (required, allowed).
ROLE_AXES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "equivalence": (
        ("geometry", "cutoff", "newton"),
        ("geometry", "cutoff", "newton", "stencil", "observability"),
    ),
    "fault": (
        ("geometry", "cutoff", "newton", "fault"),
        ("geometry", "cutoff", "newton", "fault", "stencil"),
    ),
    "model": (
        ("potential", "variant", "nodes"),
        ("potential", "variant", "nodes", "newton", "stencil"),
    ),
    "bench": (("config",), ("config",)),
}

OBSERVABILITY_REGIMES = ("off", "telemetry", "rankprof")
PATTERNS = ("3stage", "p2p", "parallel-p2p")
POTENTIALS = ("lj", "eam")
VARIANTS = ("ref", "opt")
#: The paper's node-count range (Figs. 11–15 sweep 768–36 864; axis
#: values must stay on real Tofu-D partition scales).
MAX_NODES = 82944
MAX_RANKS = 64  # executable scenarios run in-process

#: Executable roles build a real World/Simulation; the rest are priced
#: on the analytic model only.
EXECUTABLE_ROLES = ("equivalence", "fault")


class SpecError(ValueError):
    """A spec or scenario document failed a structural check."""


# -- small helpers ---------------------------------------------------------
def _is_grid(v: object) -> bool:
    return (
        isinstance(v, (list, tuple))
        and len(v) == 3
        and all(isinstance(g, int) and not isinstance(g, bool) and g >= 1 for g in v)
    )


def _num(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def stable_hash(text: str) -> int:
    """Deterministic 32-bit hash used for tier sampling (not security)."""
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


def axis_fragment(axis: str, value: object) -> str:
    """The id fragment one axis value contributes (pure, collision-safe
    within one block because every axis value list is duplicate-free)."""
    if axis == "geometry":
        assert isinstance(value, dict)
        return "g" + "x".join(str(int(g)) for g in value["grid"])
    if axis == "cutoff":
        return f"c{value:g}"
    if axis == "newton":
        return "newton-on" if value else "newton-off"
    if axis == "nodes":
        return f"n{value}"
    if axis == "stencil":
        return f"s{value}"
    if axis == "config":
        assert isinstance(value, dict)
        grid = "x".join(str(int(g)) for g in value["grid"])
        tag = f"{value['potential']}-{value['pattern']}-{grid}"
        return tag + ("-rdma" if value.get("rdma") else "")
    return str(value)


# -- spec validation -------------------------------------------------------
def _axis_value_issues(axis: str, value: object, where: str) -> list[str]:
    """Structural constraints for one axis value; returns messages."""
    bad: list[str] = []
    if axis == "geometry":
        if not isinstance(value, dict):
            return [f"{where}: geometry must be an object with grid/box_edge/atoms"]
        if not _is_grid(value.get("grid")):
            bad.append(f"{where}: geometry.grid must be 3 positive ints")
        elif math.prod(value["grid"]) > MAX_RANKS:
            bad.append(
                f"{where}: geometry.grid implies {math.prod(value['grid'])} ranks "
                f"> {MAX_RANKS} (executable scenarios run in-process)"
            )
        if not (_num(value.get("box_edge")) and value["box_edge"] > 0):
            bad.append(f"{where}: geometry.box_edge must be > 0")
        atoms = value.get("atoms")
        if not (isinstance(atoms, int) and not isinstance(atoms, bool) and atoms >= 8):
            bad.append(f"{where}: geometry.atoms must be an int >= 8")
    elif axis == "cutoff":
        if not (_num(value) and value > 0):
            bad.append(f"{where}: cutoff must be a positive number")
    elif axis == "newton":
        if not isinstance(value, bool):
            bad.append(f"{where}: newton must be a bool")
    elif axis == "nodes":
        if not (isinstance(value, int) and not isinstance(value, bool)
                and 1 <= value <= MAX_NODES):
            bad.append(f"{where}: nodes must be an int in [1, {MAX_NODES}]")
    elif axis == "stencil":
        if value not in (1, 2):
            bad.append(f"{where}: stencil radius must be 1 or 2")
    elif axis == "potential":
        if value not in POTENTIALS:
            bad.append(f"{where}: potential must be one of {POTENTIALS}")
    elif axis == "variant":
        if value not in VARIANTS:
            bad.append(f"{where}: variant must be one of {VARIANTS}")
    elif axis == "fault":
        from repro.faults.plan import TEMPLATE_KINDS

        if value not in TEMPLATE_KINDS:
            bad.append(f"{where}: fault must be one of {TEMPLATE_KINDS}")
    elif axis == "observability":
        if value not in OBSERVABILITY_REGIMES:
            bad.append(
                f"{where}: observability must be one of {OBSERVABILITY_REGIMES}"
            )
    elif axis == "config":
        if not isinstance(value, dict):
            return [f"{where}: config must be an object"]
        if value.get("potential") not in POTENTIALS:
            bad.append(f"{where}: config.potential must be one of {POTENTIALS}")
        if value.get("pattern") not in PATTERNS:
            bad.append(f"{where}: config.pattern must be one of {PATTERNS}")
        if not _is_grid(value.get("grid")):
            bad.append(f"{where}: config.grid must be 3 positive ints")
        if not isinstance(value.get("rdma", False), bool):
            bad.append(f"{where}: config.rdma must be a bool")
        cells = value.get("cells", [4, 4, 4])
        if not _is_grid(cells):
            bad.append(f"{where}: config.cells must be 3 positive ints")
        steps = value.get("steps", 10)
        if not (isinstance(steps, int) and steps >= 1):
            bad.append(f"{where}: config.steps must be an int >= 1")
    return bad


def validate_spec(doc: object) -> list[str]:
    """Structural validation of a spec document; returns all problems."""
    issues: list[str] = []
    if not isinstance(doc, dict):
        return ["spec is not a JSON object"]
    if doc.get("schema") != SPEC_SCHEMA:
        issues.append(
            f"$.schema: expected {SPEC_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    if not (isinstance(doc.get("name"), str) and doc["name"]):
        issues.append("$.name: missing non-empty string")
    if not isinstance(doc.get("defaults", {}), dict):
        issues.append("$.defaults: must be an object")
    blocks = doc.get("blocks")
    if not (isinstance(blocks, list) and blocks):
        issues.append("$.blocks: missing non-empty array")
        return issues
    seen_names: set[str] = set()
    for i, block in enumerate(blocks):
        where = f"$.blocks[{i}]"
        if not isinstance(block, dict):
            issues.append(f"{where}: not an object")
            continue
        name = block.get("name")
        if not (isinstance(name, str) and name):
            issues.append(f"{where}.name: missing non-empty string")
            name = f"<block {i}>"
        if name in seen_names:
            issues.append(f"{where}.name: duplicate block name {name!r}")
        seen_names.add(name)
        role = block.get("role")
        if role not in ROLES:
            issues.append(f"{where}.role: {role!r} is not one of {ROLES}")
            continue
        axes = block.get("axes")
        if not (isinstance(axes, dict) and axes):
            issues.append(f"{where}.axes: missing non-empty object")
            continue
        required, allowed = ROLE_AXES[role]
        fixed = block.get("fixed", {})
        if not isinstance(fixed, dict):
            issues.append(f"{where}.fixed: must be an object")
            fixed = {}
        for ax in required:
            if ax not in axes and ax not in fixed:
                issues.append(
                    f"{where}.axes: role {role!r} requires axis {ax!r} "
                    "(as an axis or a fixed value)"
                )
        for ax, values in axes.items():
            if ax not in allowed:
                issues.append(
                    f"{where}.axes.{ax}: unknown axis for role {role!r} "
                    f"(allowed: {allowed})"
                )
                continue
            if not (isinstance(values, list) and values):
                issues.append(f"{where}.axes.{ax}: must be a non-empty array")
                continue
            frags = [
                axis_fragment(ax, v)
                for v in values
                if not _axis_value_issues(ax, v, "")
            ]
            if len(set(frags)) != len(values):
                issues.append(f"{where}.axes.{ax}: duplicate or invalid values")
            for j, v in enumerate(values):
                issues.extend(_axis_value_issues(ax, v, f"{where}.axes.{ax}[{j}]"))
        for ax, v in fixed.items():
            if ax in axes:
                issues.append(f"{where}.fixed.{ax}: also declared as an axis")
            if ax in AXIS_ORDER:
                issues.extend(_axis_value_issues(ax, v, f"{where}.fixed.{ax}"))
        sample = block.get("sample", "all")
        if not (
            sample == "all"
            or (isinstance(sample, int) and not isinstance(sample, bool) and sample >= 0)
        ):
            issues.append(f"{where}.sample: must be \"all\" or a non-negative int")
        if "tolerances" in block and not isinstance(block["tolerances"], dict):
            issues.append(f"{where}.tolerances: must be an object")
    return issues


# -- expansion -------------------------------------------------------------
def _flatten_axis(axis: str, value: object, params: dict) -> None:
    """Merge one axis value into the scenario params."""
    if axis == "geometry":
        assert isinstance(value, dict)
        params["grid"] = [int(g) for g in value["grid"]]
        params["box_edge"] = float(value["box_edge"])
        params["atoms"] = int(value["atoms"])
    elif axis == "config":
        assert isinstance(value, dict)
        params["potential"] = value["potential"]
        params["pattern"] = value["pattern"]
        params["grid"] = [int(g) for g in value["grid"]]
        params["rdma"] = bool(value.get("rdma", False))
        params["cells"] = [int(c) for c in value.get("cells", [4, 4, 4])]
        params["steps"] = int(value.get("steps", 10))
    elif axis == "stencil":
        params["shell_radius"] = int(value)  # type: ignore[arg-type]
    else:
        params[axis] = value


def scenario_seed(role: str, axes: dict, axis_indices: dict[str, int]) -> int:
    """Deterministic RNG seed for one scenario.

    Equivalence scenarios reproduce the legacy hand-written suite's
    formula exactly (``1000*grid_idx + 100*cutoff + newton``), so the
    registry-driven differential tests drive bit-identical systems to
    the deleted 24-config lists.  Fault scenarios shift by a
    per-template stride so no two scenarios share a stream.
    """
    if role in EXECUTABLE_ROLES:
        base = (
            1000 * axis_indices.get("geometry", 0)
            + int(100 * axes.get("cutoff", 0.0))
            + (1 if axes.get("newton", False) else 0)
        )
        if role == "fault":
            base += 10000 * (1 + axis_indices.get("fault", 0))
        return base
    return 0


def expand_spec(doc: dict) -> list[dict]:
    """Expand a validated spec into concrete scenario documents.

    Raises :class:`SpecError` (listing every structural problem) when the
    spec fails :func:`validate_spec`.  The result is deterministic: same
    spec, same list, same order.
    """
    issues = validate_spec(doc)
    if issues:
        raise SpecError("invalid spec:\n  " + "\n  ".join(issues))
    defaults = doc.get("defaults", {})
    scenarios: list[dict] = []
    for block in doc["blocks"]:
        axes: dict = block["axes"]
        fixed: dict = block.get("fixed", {})
        names = [ax for ax in AXIS_ORDER if ax in axes]
        value_lists = [axes[ax] for ax in names]
        for combo in itertools.product(*value_lists):
            axis_values = dict(zip(names, combo))
            axis_indices = {ax: axes[ax].index(v) for ax, v in axis_values.items()}
            params: dict = dict(defaults)
            params.update(fixed)
            for ax in names:
                _flatten_axis(ax, axis_values[ax], params)
            # Fixed axis-shaped values flatten the same way (a fixed
            # geometry behaves exactly like a one-value geometry axis).
            for ax, v in fixed.items():
                if ax in AXIS_ORDER:
                    _flatten_axis(ax, v, params)
            all_axes = {**{ax: fixed[ax] for ax in AXIS_ORDER if ax in fixed},
                        **axis_values}
            frags = [
                axis_fragment(ax, all_axes[ax]) for ax in AXIS_ORDER if ax in all_axes
            ]
            scenarios.append(
                {
                    "schema": SCENARIO_SCHEMA,
                    "id": "/".join([block["name"], *frags]),
                    "spec": doc["name"],
                    "block": block["name"],
                    "role": block["role"],
                    "axes": all_axes,
                    "params": params,
                    "tolerances": dict(block.get("tolerances", {})),
                    "seed": scenario_seed(block["role"], params, axis_indices),
                }
            )
    _assign_tiers(doc, scenarios)
    ids = [s["id"] for s in scenarios]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise SpecError(f"expansion produced duplicate scenario ids: {dupes[:5]}")
    return scenarios


def _assign_tiers(doc: dict, scenarios: list[dict]) -> None:
    """Mark each scenario ``sampled`` or ``full`` per its block quota.

    ``sample: "all"`` keeps the whole block in the sampled tier;
    ``sample: N`` keeps the N scenarios with the smallest
    ``(crc32(id), id)`` — a deterministic, spec-independent draw.
    """
    by_block: dict[str, list[dict]] = {}
    for s in scenarios:
        by_block.setdefault(s["block"], []).append(s)
    quotas = {b["name"]: b.get("sample", "all") for b in doc["blocks"]}
    for name, members in by_block.items():
        quota = quotas[name]
        if quota == "all":
            chosen = set(s["id"] for s in members)
        else:
            ranked = sorted(members, key=lambda s: (stable_hash(s["id"]), s["id"]))
            chosen = {s["id"] for s in ranked[: int(quota)]}
        for s in members:
            s["tier"] = "sampled" if s["id"] in chosen else "full"


# -- serialization ---------------------------------------------------------
def fleet_doc(spec: dict, scenarios: list[dict]) -> dict:
    """The ``repro-scenario-fleet/1`` artifact for one expansion."""
    return {
        "schema": FLEET_SCHEMA,
        "spec": spec["name"],
        "count": len(scenarios),
        "sampled": sum(1 for s in scenarios if s["tier"] == "sampled"),
        "scenarios": scenarios,
    }


def dumps_fleet(spec: dict, scenarios: list[dict]) -> str:
    """Byte-stable serialization (same spec -> byte-identical output)."""
    return dumps(fleet_doc(spec, scenarios))


def load_json(path: str) -> dict:
    """Load one JSON document (spec or fleet)."""
    doc = read(path)
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: top-level JSON value is not an object")
    return doc
