"""Structured pass/fail records shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """One verification outcome.

    ``status`` is ``"pass"``, ``"fail"`` or ``"skip"`` (skip marks checks that
    are vacuous at the given parameters, e.g. a closed-form eigenstate that
    degenerates to the null vector).
    """

    name: str
    params: dict = field(default_factory=dict)
    residual: float = 0.0
    status: str = "pass"
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status != "fail"


def check(name: str, ok: bool, residual: float = 0.0, note: str = "", **params) -> Check:
    return Check(name=name, params=params, residual=float(residual),
                 status="pass" if ok else "fail", note=note)


def skip(name: str, note: str = "", **params) -> Check:
    return Check(name=name, params=params, residual=float("nan"), status="skip", note=note)


def failures(checks: list[Check]) -> list[Check]:
    return [c for c in checks if not c.passed]


def as_records(checks: list[Check]) -> list[dict]:
    """JSON-ready form: one ``{check, params, residual, pass, note}`` per entry."""
    out = []
    for c in checks:
        out.append({
            "check": c.name,
            "params": c.params,
            "residual": None if c.residual != c.residual else c.residual,
            "pass": c.passed,
            "status": c.status,
            "note": c.note,
        })
    return out
