"""Machine-readable pass/fail results with minimal counterexample witnesses."""

from __future__ import annotations

from .sets import Subset


class Verdict:
    """An immutable check result: ``passed``, the ``witness`` of a failure
    (None on a pass) and the number of cases ``checked``.

    Equal when of the same class with equal fields, and hashed on the
    fields, as a frozen dataclass would be; a plain class because the
    ``dataclasses`` import costs every CLI start-up about 10 ms.
    """

    __slots__ = ("passed", "witness", "checked")

    def __init__(self, passed: bool, witness: dict | None, checked: int):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "checked", checked)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return (self.passed, self.witness, self.checked)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return (self.__class__, self._fields())

    def __repr__(self) -> str:
        return f"Verdict(passed={self.passed!r}, witness={self.witness!r}, checked={self.checked!r})"

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
