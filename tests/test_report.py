import json
import math

import numpy as np
import pytest

from qeslattice.reference import EIGENSTATE_FORMULAS
from qeslattice.report import Check, as_records, check, dumps, skip
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
    checks = run_suites()
    records = as_records(checks)
    assert len(json.loads(json.dumps(records))) == len(records)
    assert dumps(checks) == json.dumps(records, indent=2)


NOTE = '"quoted", a back\\slash, a new\nline, non-ASCII \u03b5 \u6f22 \U0001f600 and %s %%'


@pytest.mark.parametrize("checks", [
    [],
    [skip("a NaN residual is null", f=1)],
    [check("an infinite residual", math.inf, above=0.0), check("and its negative", -math.inf,
                                                               below=0.0, f=2)],
    [Check(name="empty params"), check("after params", 0.5, below=1.0, f=3)],
    [check("None and bool params", 0.0, below=1.0, none=None, yes=True, no=False)],
    [check(NOTE, 1.0, above=0.0, note=NOTE, text=NOTE)],
    [check("floats", -0.0, below=1.0, zero=-0.0, small=1e-05, large=1e16, tiny=5e-324,
           whole=3.0, last=1.7976931348623157e308)],
    [check("large ints", 10 ** 30, below=1, big=10 ** 40, negative=-2 ** 63 - 1)],
    [Check(name="nested params", params={"grid": [0.0, [], {"f": 3, "tags": {}}],
                                         "by": {"f": 3, "inner": {"nu": -1}}, "keys": {1: "one"},
                                         "50%": "%d", "nan": math.nan, "sub": np.float64(0.1)})],
], ids=["empty", "nan", "inf", "no-params", "literals", "text", "floats", "ints", "nested"])
def test_the_writer_writes_the_text_of_json_dumps(checks):
    # every record twice: the second fills the templates the first made
    for run in (checks, checks + checks):
        assert dumps(run) == json.dumps(as_records(run), indent=2)
