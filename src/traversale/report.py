"""Deterministic verification reports.

A report is one line per checked property plus a machine-readable summary
block; rendering the same report twice yields byte-identical text, which the
harness treats as a contract (same seed, same cases, same bytes).
"""

from __future__ import annotations

import json

from .numbers import format_int
from .value import Value


class PropertyResult(Value):
    """Pass count of one property, with the first counterexample if any failed."""

    __slots__ = ("name", "passed_cases", "total_cases", "counterexample")

    def __init__(self, name: str, passed_cases: int, total_cases: int, counterexample: str | None = None):
        self._set(name, passed_cases, total_cases, counterexample)

    @property
    def passed(self) -> bool:
        return self.passed_cases == self.total_cases

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} {self.name} {self.passed_cases}/{self.total_cases}"


class VerificationReport(Value):
    """The results of one suite run, rendered by :meth:`to_text`."""

    __slots__ = ("suite", "seed", "cases", "properties")

    def __init__(self, suite: str, seed: int, cases: int, properties: tuple[PropertyResult, ...] = ()):
        self._set(suite, seed, cases, properties)

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def to_text(self) -> str:
        lines = [
            f"suite: {self.suite}",
            f"seed: {format_int(self.seed)}",  # TooManyDigits for a seed too long to print, before json.dumps fails
            f"cases: {self.cases}",
        ]
        for prop in self.properties:
            lines.append(prop.line())
            if prop.counterexample is not None:
                for row in prop.counterexample.splitlines():
                    lines.append(f"  | {row}")
        summary = {
            "suite": self.suite,
            "seed": self.seed,
            "cases": self.cases,
            "properties": len(self.properties),
            "failures": sum(0 if p.passed else 1 for p in self.properties),
        }
        lines.append("summary " + json.dumps(summary, sort_keys=True))
        return "\n".join(lines) + "\n"
