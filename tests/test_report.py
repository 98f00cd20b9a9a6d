import json
import math

import pytest

from qeslattice.reference import EIGENSTATE_FORMULAS
from qeslattice.report import as_records, check, skip
from qeslattice.suites import run_suites

# the records that set their status themselves, besides skips
EXPLICIT_STATUS = ("bilinear vs cyclic translation on V_1",)
READING_GROUP = "reading group '"


@pytest.mark.parametrize("direction", ["below", "above"])
def test_check_fails_at_equality_and_on_nan(direction):
    for bound in (0.0, 1e-12, 1.5e-3):
        assert check("x", bound, **{direction: bound}).status == "fail"
        assert check("x", math.nan, **{direction: bound}).status == "fail"


def test_check_passes_strictly_on_the_side_of_its_bound():
    assert check("x", 0.5e-12, below=1e-12).passed
    assert not check("x", 2e-12, below=1e-12).passed
    assert check("x", 0.2, above=0.1).passed
    assert not check("x", 0.05, above=0.1).passed
    assert check("count", 0, below=1).passed and not check("count", 1, below=1).passed


def test_check_records_its_bound_and_direction():
    c = check("x", 3, below=1e-9, f=2, lam=0.5)
    assert (c.residual, c.bound, c.direction, c.params) == (3.0, 1e-9, "below", {"f": 2, "lam": 0.5})
    c = check("x", 0.3, above=0.1, note="n")
    assert (c.bound, c.direction, c.note) == (0.1, "above", "n")
    s = skip("x", f=1)
    assert (s.bound, s.direction, s.status) == (None, None, "skip")


def test_check_needs_exactly_one_bound():
    with pytest.raises(ValueError, match="exactly one"):
        check("x", 0.0)
    with pytest.raises(ValueError, match="exactly one"):
        check("x", 0.0, below=1.0, above=-1.0)


def test_records_do_not_carry_the_bound():
    (record,) = as_records([check("x", 0.25, below=1.0, f=3)])
    assert record == {"check": "x", "params": {"f": 3}, "residual": 0.25, "pass": True,
                      "status": "pass", "note": ""}


def test_every_suite_verdict_follows_its_bound():
    readings = {formula.name for formula in EIGENSTATE_FORMULAS if formula.group is not None}
    bounded = explicit = 0
    for c in run_suites():
        if c.status == "skip" or c.name.startswith(READING_GROUP) or c.name in EXPLICIT_STATUS:
            assert c.bound is None and c.direction is None, c
            explicit += 1
            continue
        assert c.direction in ("below", "above"), c
        holds = c.residual < c.bound if c.direction == "below" else c.residual > c.bound
        failed = "reading-mismatch" if c.name in readings else "fail"
        assert c.status == ("pass" if holds else failed), c
        bounded += 1
    assert bounded > 400 and explicit > 0, (bounded, explicit)


def test_the_records_of_a_full_run_need_no_json_fallback():
    # verify dumps them with no default=: a param json cannot encode raises
    records = as_records(run_suites())
    assert len(json.loads(json.dumps(records))) == len(records)
