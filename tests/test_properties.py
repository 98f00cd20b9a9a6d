"""Property tests: the sweep engine against the single-point solver and the
symmetries of the model, on randomly drawn small rings and grids."""

import io
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from qeslattice import spectra  # noqa: E402
from qeslattice.cli import _parse_lambda, main  # noqa: E402
from qeslattice.fock import at_most, enumerate_basis  # noqa: E402
from qeslattice.ops import brute_force_eigenvalues, build_momentum_vectors  # noqa: E402
from qeslattice.spectra import solve_spectra, solve_spectrum, sweep  # noqa: E402

from oracles import quanta_tag  # noqa: E402

# reproducible draws, bounded so the module runs in about a second
PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


@st.composite
def sweeps(draw):
    """``(f, gamma, grid)`` with ``f <= 8``, ``gamma`` in [0.5, 5] and an
    ascending grid of 2..12 couplings in [-1, 1]."""
    f = draw(st.integers(1, 8))
    gamma = draw(st.floats(0.5, 5.0))
    points = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=12, unique=True))
    return f, gamma, sorted(points)


ORACLE_TOL = 1e-9


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 8), st.floats(0.5, 7.0), st.floats(-1.0, 1.0))
def test_block_spectra_equal_brute_force(f, gamma, lam):
    # the union of the momentum blocks against the dense H on the occupation basis
    blocks = solve_spectrum(f, gamma, lam).all_eigenvalues()
    assert np.max(np.abs(blocks - brute_force_eigenvalues(f, gamma, lam))) < ORACLE_TOL


@PROPERTY
@given(sweeps())
def test_sweep_energies_equal_solve_spectrum_at_every_point(case):
    f, gamma, grid = case
    result = sweep(f, gamma, grid)
    for i, lam in enumerate(grid):
        tol = 1e-12 * max(1.0, abs(gamma), abs(lam))
        point = solve_spectrum(f, gamma, lam)
        for b, bs in zip(result.blocks, point.blocks, strict=True):
            assert b.label == bs.label
            assert np.max(np.abs(np.sort(b.energies[i]) - bs.eigenvalues)) < tol


@PROPERTY
@given(sweeps())
def test_sweep_tags_equal_quanta_tag_at_the_first_point(case):
    f, gamma, grid = case
    result = sweep(f, gamma, grid)
    first = solve_spectrum(f, gamma, grid[0])
    basis = enumerate_basis(f, at_most(2))
    for b, bs in zip(result.blocks, first.blocks, strict=True):
        eigenvectors = build_momentum_vectors(f, bs.label, basis) @ bs.coefficients
        assert b.tags == tuple(quanta_tag(v, basis) for v in eigenvectors.T)


@PROPERTY
@given(sweeps())
def test_opposite_momenta_are_degenerate_at_every_point(case):
    f, gamma, grid = case
    by_nu = {b.label.nu: b.energies for b in sweep(f, gamma, grid).blocks}
    for nu, energies in by_nu.items():
        if -nu in by_nu:
            mirror = by_nu[-nu]
            assert np.max(np.abs(np.sort(energies, axis=1) - np.sort(mirror, axis=1))) < 1e-9


@PROPERTY
@given(sweeps())
def test_spectrum_is_even_in_the_coupling(case):
    # (-1)^N maps H(lam) to H(-lam) and commutes with translations
    f, gamma, grid = case
    ahead = sweep(f, gamma, grid)
    behind = sweep(f, gamma, [-lam for lam in reversed(grid)])
    for a, b in zip(ahead.blocks, behind.blocks, strict=True):
        tol = 1e-12 * max(1.0, abs(gamma), float(np.max(np.abs(grid))))
        assert np.max(np.abs(np.sort(a.energies, axis=1)
                             - np.sort(b.energies[::-1], axis=1))) < tol


@st.composite
def grid_texts(draw):
    """``(text, start, stop, count)``: a ``start:stop:step`` grid written in
    decimals, ``start`` in [-10, 10] to two places, a step of one or two
    significant digits between 1e-5 and 9.9, and ``stop`` on the last of
    ``count`` points."""
    start = Decimal(draw(st.integers(-1000, 1000))).scaleb(-2)
    step = Decimal(draw(st.integers(1, 99))).scaleb(-draw(st.integers(1, 5)))
    count = draw(st.integers(1, 2000))
    stop = start + (count - 1) * step
    return f"{start}:{stop}:{step}", float(start), float(stop), count


@settings(derandomize=True, max_examples=200, deadline=None)
@given(grid_texts())
def test_lambda_grid_text_round_trips(case):
    text, start, stop, count = case
    grid = _parse_lambda(text)
    assert len(grid) == count and grid[0] == start
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert abs(grid[-1] - stop) <= 1e-12 * max(1.0, abs(start), abs(stop))


def cli_stdout(*argv):
    """The stdout of one in-process CLI run, which must succeed."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(list(argv)) == 0
    return buffer.getvalue()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 24), st.floats(0.5, 7.0), st.floats(-1.0, 1.0))
@example(47, 3.0, 0.3)
@example(48, 3.0, -0.3)
@example(119, 0.5, 1.0)
@example(120, 7.0, -0.01)
@example(4, 0.7, 0.0)  # at lam = 0 a coupled k = pi level is exactly zero too
@example(20, 3.0, 0.0)
@example(120, 5.5, 0.0)
def test_spectrum_csv_is_the_first_grid_point_of_sweep_on_every_ring(f, gamma, lam):
    # byte for byte on odd and even rings, and byte for byte from run to run
    argv = ("--f", str(f), "--gamma", repr(gamma))
    spectrum = cli_stdout("spectrum", *argv, f"--lambda={lam!r}")
    assert cli_stdout("spectrum", *argv, f"--lambda={lam!r}") == spectrum
    header, *rows = cli_stdout("sweep", *argv, f"--lambda={lam!r}:{lam + 0.5!r}:0.5").splitlines(
        keepends=True)
    dim = (f + 1) * (f + 2) // 2
    assert len(rows) == 2 * dim
    assert header + "".join(rows[:dim]) == spectrum


couplings = st.floats(-1.0, 1.0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 24), st.floats(0.5, 7.0), st.lists(couplings, min_size=1, max_size=6))
@example(47, 3.0, [0.3, -0.3, 0.0])
@example(48, 3.0, [0.5, 0.0, 0.5])
@example(119, 0.5, [1.0, 0.01])
@example(120, 7.0, [-0.01, 0.25])
def test_solve_spectra_equals_solve_spectrum_bit_for_bit(f, gamma, lams):
    # a level does not depend on which couplings it was solved with
    results = solve_spectra(f, gamma, lams)
    assert len(results) == len(lams)
    for lam, result in zip(lams, results, strict=True):
        alone = solve_spectrum(f, gamma, lam)
        assert (result.f, result.gamma, result.lam) == (alone.f, alone.gamma, alone.lam)
        for b, bs in zip(result.blocks, alone.blocks, strict=True):
            assert b.label == bs.label
            for name in ("eigenvalues", "u", "matrix", "phases"):
                assert np.array_equal(getattr(b, name), getattr(bs, name)), name


def refuse_pencils(*args, **kwargs):
    raise AssertionError("pencil_stacks was called")


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(couplings, max_size=5), st.sampled_from([float("nan"), True, 1e4]),
       st.data())
def test_solve_spectra_rejects_a_bad_coupling_anywhere_before_building(lams, bad, data):
    lams.insert(data.draw(st.integers(0, len(lams)), label="position"), bad)
    with mock.patch.object(spectra, "pencil_stacks", refuse_pencils):
        with pytest.raises(ValueError, match="lambda"):
            solve_spectra(5, 3.0, lams)


def test_solve_spectra_of_no_couplings_is_empty():
    with mock.patch.object(spectra, "pencil_stacks", refuse_pencils):
        assert solve_spectra(5, 3.0, []) == ()
        assert solve_spectra(5, 3.0, iter(())) == ()


# a small argv grammar: every flag of the level commands with ordinary,
# negative, non-finite, empty and malformed values, repeated or not
VALUES = {
    "--f": ["0", "1", "3", "12", "-1", "1.5", "", "121"],
    "--gamma": ["3", "0", "-1e2", "nan", "inf", "1e400", "", "2e3"],
    "--lambda": ["0", "0.3", "-1e2", "nan", "inf", "1e400", "", "abc", "0:0.5:0.1",
                 "-0.1:0:0.05", "-1e2:1e2:50", "0:0:0", "1:0:1", "0:1:0.5:1", "0:1e9:1"],
    "--format": ["csv", "json", "xml"],
}
# grids over the budget on every ring, one of them too long to count
OVER_BUDGET = ["0:1:1e-6", "0:1e9:1", "-1e3:1e3:1e-300", "0:1e308:1e-308"]


@st.composite
def argvs(draw):
    """A level command with a valid ``--f`` and up to four more flags, and
    now and then a stray token."""
    tokens = [draw(st.sampled_from(["spectrum", "sweep", "figure2"])),
              "--f", draw(st.sampled_from(["1", "3", "12"]))]
    for flag in draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=4)):
        tokens += [flag, draw(st.sampled_from(VALUES[flag]))]
    if draw(st.integers(0, 9)) == 0:
        tokens.append(draw(st.sampled_from(["--bogus", "-x", "7"])))
    return tokens


def run_main(argv):
    """Exit status, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argvs(), st.none() | st.tuples(st.sampled_from(["13", "60", "120"]),
                                      st.sampled_from(OVER_BUDGET)))
def test_cli_exits_0_1_or_2_with_one_error_line(argv, large):
    # accepted draws solve rings of at most 12 sites over at most 6
    # couplings; a large ring with a grid over the budget, given last, is
    # refused before any block is built
    with mock.patch.object(spectra, "pencil_stacks", refuse_pencils) if large else nullcontext():
        code, out, err = run_main(argv + (["--f", large[0], "--lambda", large[1]] if large else []))
    assert code in ((1,) if large else (0, 1, 2))
    if code == 0:
        assert err == "" and out.startswith(("lambda,nu,", "["))
    if code == 1:
        assert out == ""
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1
