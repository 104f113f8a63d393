"""One kernel for the reproduction's versioned JSON artifacts.

Three kinds of document: ``repro-rankprof/1``, flight dumps and
exported Chrome traces.  Each is checked through a :class:`Cursor`,
read with :func:`read` and written with :func:`write`.  The first
failed check raises ``ValueError("<noun> invalid at <path>: <why>")``,
where ``<path>`` locates the offending value
(``$.phases.forward.rows[1].rank``) and is built only when a check
fails.  JSON booleans are not numbers here, although Python counts
``bool`` as an ``int``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterator
from typing import Any, NoReturn

#: Stands for an absent key, which a JSON ``null`` must not be mistaken for.
_ABSENT: Any = object()


def _is_int(value: Any) -> bool:
    """An ``int`` that is not a ``bool`` (the accessors test the exact
    type first: the common case, and ~10 % of the time spent validating
    a 100 k-event trace)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Cursor:
    """A position in a JSON document: the value there and how it was reached.

    ``Cursor(doc, "rankprof document")`` stands at the root (``$``).  Keyed
    accessors (``c.integer("ranks")``) check one member of the object
    under the cursor and return it; called without a key they check the
    value under the cursor itself.  :meth:`obj` and :meth:`arr` return a
    cursor one level down; :meth:`each` walks the members of an array or
    object.  Cross-field invariants are plain Python beside the
    accessors, reported through :meth:`require` or :meth:`fail`.
    """

    __slots__ = ("value", "key", "_noun", "_parent")

    def __init__(
        self,
        value: Any,
        noun: str,
        parent: Cursor | None = None,
        key: str | int | None = None,
    ) -> None:
        self.value = value
        self.key = key
        self._noun = noun
        self._parent = parent

    # -- failure ---------------------------------------------------------
    def fail(self, why: str, key: str | int | None = None) -> NoReturn:
        """Raise the ``<noun> invalid at <path>: <why>`` error here (or at
        member ``key``)."""
        steps = [] if key is None else [key]
        node = self
        while node._parent is not None:
            steps.append(node.key)
            node = node._parent
        path = "$" + "".join(
            f"[{k}]" if isinstance(k, int) else f".{k}" for k in reversed(steps)
        )
        raise ValueError(f"{self._noun} invalid at {path}: {why}")

    def require(self, cond: object, why: str, key: str | int | None = None) -> None:
        """Fail with ``why`` unless ``cond`` holds."""
        if not cond:
            self.fail(why, key)

    def _expected(self, key: str | None, value: Any, what: str) -> NoReturn:
        if value is _ABSENT:
            self.fail("missing", key)
        shown = {dict: "an object", list: "an array"}.get(type(value)) or repr(value)
        self.fail(f"expected {what}, got {shown}", key)

    # -- navigation ------------------------------------------------------
    def get(self, key: str) -> Any:
        """The raw member ``key`` (``None`` when absent); the value under
        the cursor must be an object."""
        value = self._member(key)
        return None if value is _ABSENT else value

    def _member(self, key: str | None) -> Any:
        if key is None:
            return self.value
        try:  # of the JSON types, only an object has ``get``
            return self.value.get(key, _ABSENT)
        except AttributeError:
            self._expected(None, self.value, "an object")

    def obj(self, key: str | None = None, nonempty: bool = False) -> Cursor:
        """A cursor on an object (non-empty if asked)."""
        value = self._member(key)
        if isinstance(value, dict) and (value or not nonempty):
            return self if key is None else Cursor(value, self._noun, self, key)
        self._expected(key, value, "a non-empty object" if nonempty else "an object")

    def arr(self, key: str | None = None, nonempty: bool = False) -> Cursor:
        """A cursor on an array (non-empty if asked)."""
        value = self._member(key)
        if isinstance(value, list) and (value or not nonempty):
            return self if key is None else Cursor(value, self._noun, self, key)
        self._expected(key, value, "a non-empty array" if nonempty else "an array")

    def each(self) -> Iterator[Cursor]:
        """Walk the members of the array or object under this cursor,
        yielding a cursor on each (keyed by index or name)."""
        value = self.value
        members = value.items() if isinstance(value, dict) else enumerate(value)
        for key, member in members:
            yield Cursor(member, self._noun, self, key)

    # -- scalars -----------------------------------------------------------
    def schema(self, expected: str) -> None:
        """The object's ``schema`` member names ``expected``."""
        value = self._member("schema")
        if value != expected:
            self._expected("schema", value, repr(expected))

    def text(self, key: str | None = None, nonempty: bool = False) -> str:
        """A string (non-empty if asked)."""
        value = self._member(key)
        if isinstance(value, str) and (value or not nonempty):
            return value
        self._expected(key, value, "a non-empty string" if nonempty else "a string")

    def flag(self, key: str | None = None) -> bool:
        """A JSON boolean."""
        value = self._member(key)
        if isinstance(value, bool):
            return value
        self._expected(key, value, "a boolean")

    def integer(self, key: str | None = None, lo: int | None = None) -> int:
        """An integer (not a boolean), at least ``lo`` when given."""
        value = self._member(key)
        if (type(value) is int or _is_int(value)) and (lo is None or value >= lo):
            return value
        self._expected(key, value, "an integer" if lo is None else f"an integer >= {lo}")

    def number(
        self, key: str | None = None, lo: float | None = None, finite: bool = False
    ) -> float:
        """A number (not a boolean).

        ``lo`` bounds it from below, which also rejects NaN; ``finite``
        rejects NaN and both infinities.  With neither, NaN and the
        infinities pass.
        """
        value = self._member(key)
        if (
            (type(value) is float or _is_number(value))
            and (lo is None or value >= lo)
            and (not finite or math.isfinite(value))
        ):
            return value
        what = "a finite number" if finite else "a number"
        self._expected(key, value, what if lo is None else f"{what} >= {lo}")


# -- I/O ------------------------------------------------------------------
def dumps(doc: Any) -> str:
    """``doc`` as stable, diffable JSON: one-space indent, sorted keys and
    a trailing newline (the committed artifacts' byte format)."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write(path: str, doc: Any) -> None:
    """Write ``doc`` to ``path`` as :func:`dumps` renders it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def read(path: str, validate: Callable[[Any], object] | None = None) -> Any:
    """Load the JSON document at ``path`` and, when given, check it with
    ``validate`` (a ``validate_*`` function).  Raises :class:`OSError`
    or :class:`ValueError` (malformed JSON or a rejected document)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if validate is not None:
        validate(doc)
    return doc
