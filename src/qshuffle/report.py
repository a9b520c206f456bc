"""Structured pass/fail results shared by the verifiers and the CLI.

A check's verdict is derived from its rows: it passes exactly when every
detail row passes, so no result can report PASS next to a failing row.
"""

from __future__ import annotations

from typing import Any

__all__ = ["CheckResult"]


class CheckResult:
    """Outcome of one named verification over one parameter point.

    `details` holds one row per sub-check (say, one value of t), each a
    plain dict that is stable under json serialization and carries a
    boolean "pass".  Failing rows carry a "witness" entry locating the
    first discrepancy.

    A plain class rather than a dataclass: importing `dataclasses` pulls
    in `inspect`, `ast`, `dis` and `tokenize`, a cost every command would
    pay at startup.
    """

    def __init__(
        self, name: str, params: dict[str, Any], details: list[dict[str, Any]] | None = None
    ) -> None:
        self.name = name
        self.params = params
        self.details = [] if details is None else details

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.params, self.details) == (other.name, other.params, other.details)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(name={self.name!r}, params={self.params!r}, "
            f"details={self.details!r})"
        )

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
