"""The artifact kernel: one path contract and one byte format for the three
document kinds (rankprof, flight dumps, Chrome traces)."""

import copy
import functools
import re

import pytest

from repro.artifact import read
from repro.md.presets import PRESETS
from repro.obs.export import validate_chrome_trace
from repro.obs.flight import FlightRecorder, validate_flight_doc
from repro.obs.rankprof import profile_exchange, to_dict, validate_rankprof_doc

VALIDATORS = {
    "rankprof": validate_rankprof_doc,
    "flight": validate_flight_doc,
    "trace": validate_chrome_trace,
}

#: Top-level keys each validator requires; every other key is optional.
REQUIRED = {
    "rankprof": {"schema", "ranks", "phases"},
    "flight": {"schema", "reason", "meta", "limits", "totals", "frames", "events"},
    "trace": {"traceEvents"},
}

#: Per kind, one integer field and one number field a JSON ``true`` /
#: ``false`` could pose as (Python counts ``bool`` as an ``int``).
BOOL_PLANTS = {
    "rankprof": (("phases", "forward", "rows", 0, "rank"),
                 ("phases", "forward", "imbalance", "mean")),
    "flight": (("limits", "max_steps"), ("frames", 0, "wall", "Comm")),
    "trace": (("traceEvents", 0, "pid"), ("traceEvents", 1, "dur")),
}


@functools.cache
def _valid_docs():
    sim = PRESETS["lj"].simulation(
        (4, 4, 4), (2, 2, 2), pattern="parallel-p2p", rdma=True, thermo_every=0
    )
    sim.setup()
    recorder = FlightRecorder(max_steps=1)
    recorder.record_frame({"step": 0, "wall": {"Comm": 0.5}, "model": {}})
    recorder.record_event("retry")
    return {
        "rankprof": to_dict(profile_exchange(sim.exchange)),
        "flight": recorder.dump("unit"),
        "trace": {
            "traceEvents": [
                {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
                 "args": {"name": "wall clock"}},
                {"ph": "X", "pid": 1, "tid": 1, "name": "step", "cat": "step",
                 "ts": 0.0, "dur": 5.0, "args": {}},
            ],
            "displayTimeUnit": "ms",
        },
    }


def valid_doc(kind):
    """A fresh, valid document of ``kind``."""
    return copy.deepcopy(_valid_docs()[kind])


def jsonpath(steps):
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in steps)


@pytest.mark.parametrize("kind", sorted(VALIDATORS))
def test_each_required_top_level_key_names_its_path(kind):
    validate = VALIDATORS[kind]
    doc = valid_doc(kind)
    validate(doc)
    assert REQUIRED[kind] <= set(doc)
    for key in doc:
        bad = copy.deepcopy(doc)
        del bad[key]
        if key in REQUIRED[kind]:
            with pytest.raises(ValueError, match=re.escape(f" invalid at $.{key}")):
                validate(bad)
        else:
            validate(bad)


@pytest.mark.parametrize("kind", sorted(VALIDATORS))
@pytest.mark.parametrize("field", ["integer", "number"])
@pytest.mark.parametrize("planted", [True, False])
def test_json_booleans_are_not_numbers(kind, field, planted):
    path = BOOL_PLANTS[kind][field == "number"]
    doc = valid_doc(kind)
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = planted
    with pytest.raises(ValueError, match=re.escape(f" invalid at {jsonpath(path)}: ")):
        VALIDATORS[kind](doc)


def test_read_validates_before_returning(tmp_path):
    path = tmp_path / "flight.json"
    path.write_text('{"schema": "repro-flightrec/0"}', encoding="utf-8")
    assert read(str(path))["schema"] == "repro-flightrec/0"
    with pytest.raises(ValueError, match=re.escape("flight document invalid at $.schema")):
        read(str(path), validate_flight_doc)
