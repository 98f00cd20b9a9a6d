"""Structured pass/fail records shared by the verification suites.

Every verdict is decided in :func:`check`.  Only skips, the reading-group
summaries of the closed-form eigenstates and the informational comparison of
the three-site bilinear with the cyclic translation set their status
themselves.

:func:`as_records` defines the JSON record of a check, and :func:`dumps`
writes the records of a run as the text of ``json.dumps(records,
indent=2)``.  With ``indent``, :mod:`json` encodes in pure Python; the
writer fills one ``%``-template per record and per ``params`` key set
instead, with every leaf encoded in C (``encode_basestring_ascii``,
``float.__repr__``, ``int.__repr__``) or written as the literal ``null``,
``true`` or ``false``.  Only what it has no template for, a non-finite
float or a value that is not a leaf or a dict with string keys, goes
through ``json.dumps``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii


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


def _float(value: float) -> str:
    return float.__repr__(value) if value - value == 0.0 else json.dumps(value)  # nan, inf


# the C encoder of each leaf type, as ``json.dumps`` encodes it
_LITERALS = {None: "null", True: "true", False: "false"}
_LEAVES = {str: encode_basestring_ascii, int: int.__repr__, float: _float,
           bool: _LITERALS.__getitem__, type(None): _LITERALS.__getitem__}


def _encode(value, pad: str, templates: dict) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it at the
    indentation ``pad``; ``templates`` holds the dict templates made so
    far, by indentation and key tuple."""
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    if type(value) is dict and value:
        keys, inner = tuple(value), pad + "  "
        template = templates.get((pad, keys))
        if template is None and all(type(key) is str for key in keys):
            template = templates[pad, keys] = "{\n" + ",\n".join(
                inner + encode_basestring_ascii(key).replace("%", "%%") + ": %s"
                for key in keys) + "\n" + pad + "}"
        if template is not None:
            return template % tuple([leaf(v) if (leaf := _LEAVES.get(type(v))) is not None
                                     else _encode(v, inner, templates) for v in value.values()])
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def dumps(checks: list[Check]) -> str:
    """The text of ``json.dumps(as_records(checks), indent=2)``."""
    records = as_records(checks)
    if not records:
        return "[]"
    templates: dict = {}
    return "[\n  " + ",\n  ".join([_encode(record, "  ", templates)
                                    for record in records]) + "\n]"
