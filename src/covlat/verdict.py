"""Machine-readable pass/fail results with minimal counterexample witnesses."""

from __future__ import annotations

from collections import namedtuple

from .sets import Subset


class Verdict(namedtuple("Verdict", "passed witness checked")):
    """An immutable check result: ``passed``, the ``witness`` of a failure
    (None on a pass) and the number of cases ``checked``.

    A named tuple, so it compares, hashes and pickles by its fields, and
    equals a plain tuple of them; not a frozen dataclass, because the
    ``dataclasses`` import costs every CLI start-up about 10 ms.
    """

    __slots__ = ()

    @classmethod
    def ok(cls, checked: int) -> "Verdict":
        return cls(True, None, checked)

    @classmethod
    def fail(cls, witness: dict, checked: int) -> "Verdict":
        return cls(False, witness, checked)

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "witness": _jsonify(self.witness),
            "checked": self.checked,
        }


def _jsonify(value):
    if isinstance(value, Subset):
        return value.sorted_members()
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value
