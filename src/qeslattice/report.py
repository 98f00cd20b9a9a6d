"""Structured pass/fail records shared by the verification suites.

Every verdict is decided in :func:`check`.  Only skips, the reading-group
summaries of the closed-form eigenstates and the informational comparison of
the three-site bilinear with the cyclic translation set their status
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """One verification outcome.

    ``status`` is ``"pass"``, ``"fail"`` or ``"skip"`` (skip marks checks that
    are vacuous at the given parameters, e.g. a closed-form eigenstate that
    degenerates to the null vector).  ``bound`` is the value ``residual`` was
    held to and ``direction`` (``"below"`` or ``"above"``) the side it had to
    lie on; both are ``None`` on a record that set its status itself.
    """

    name: str
    params: dict = field(default_factory=dict)
    residual: float = 0.0
    status: str = "pass"
    note: str = ""
    bound: float | None = None
    direction: str | None = None

    @property
    def passed(self) -> bool:
        return self.status != "fail"


def check(name: str, residual: float, *, below: float | None = None,
          above: float | None = None, note: str = "", **params) -> Check:
    """The verdict on ``residual``: it passes when ``residual < below`` or
    ``residual > above``, whichever one bound is given.

    Counts and dimensions pass their integer difference with ``below=1``.
    Raises ``ValueError`` unless exactly one bound is given."""
    if (below is None) == (above is None):
        raise ValueError(f"check {name!r} needs exactly one of below= and above=")
    residual = float(residual)
    if above is None:
        direction, bound, ok = "below", below, residual < below
    else:
        direction, bound, ok = "above", above, residual > above
    return Check(name=name, params=params, residual=residual,
                 status="pass" if ok else "fail", note=note,
                 bound=float(bound), direction=direction)


def skip(name: str, note: str = "", **params) -> Check:
    return Check(name=name, params=params, residual=float("nan"), status="skip", note=note)


def failures(checks: list[Check]) -> list[Check]:
    return [c for c in checks if not c.passed]


def as_records(checks: list[Check]) -> list[dict]:
    """JSON-ready form: one ``{check, params, residual, pass, status, note}`` per entry."""
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
