"""Structured pass/fail results shared by the verifiers and the CLI.

A check's verdict is derived from its rows: it passes exactly when every
detail row passes, so no result can report PASS next to a failing row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["CheckResult"]


@dataclass
class CheckResult:
    """Outcome of one named verification over one parameter point.

    `details` holds one row per sub-check (say, one value of t), each a
    plain dict that is stable under json serialization and carries a
    boolean "pass".  Failing rows carry a "witness" entry locating the
    first discrepancy.
    """

    name: str
    params: dict[str, Any]
    details: list[dict[str, Any]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(row["pass"] for row in self.details)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "params": dict(self.params),
            "pass": self.passed,
            "details": [dict(row) for row in self.details],
        }

    def summary(self) -> str:
        bits = " ".join(f"{k}={v}" for k, v in self.params.items())
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}" + (f" [{bits}]" if bits else "")
