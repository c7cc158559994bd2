"""Machine-readable pass/fail results with minimal counterexample witnesses."""

from __future__ import annotations

from dataclasses import dataclass

from .sets import Subset


@dataclass(frozen=True)
class Verdict:
    passed: bool
    witness: dict | None
    checked: int

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
