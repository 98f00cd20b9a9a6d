import collections
import dataclasses
import gc
import json
import math
import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from qeslattice import algebra, cli, momentum, ops, spectra, suites
from qeslattice.fock import at_most, enumerate_basis
from qeslattice.momentum import momentum_values, pencil_stacks, to_orbit_frame
from qeslattice.ops import (brute_force_eigenvalues, build_momentum_vectors, hamiltonian_pencil,
                            orbit_block_pencil, sector_block)
from qeslattice.reference import (CHARPOLY_SAMPLES, REFERENCE_CHAR_POLYS,
                                  REFERENCE_TABLES, f3_dim3_energies)
from qeslattice.spectra import (MAX_COUPLING, MAX_SITES, eigh_checked, quanta_tags, solve_spectra,
                                solve_spectrum, soliton_band, sweep)
from qeslattice.report import as_records, failures
from qeslattice.suites import run_suites, verify_eigenvector_formulas

from oracles import largest_admitted, pencil_parts, quanta_tag, refusal

TABLE_TOL = 1.5e-3


def blocks_by_nu(f, gamma, lam):
    return {b.label.nu: b for b in solve_spectrum(f, gamma, lam).blocks}


def diagonalize(block):
    """Eigenvalues and eigenvectors of one block, in block coordinates."""
    return eigh_checked(block.hmatrix)


def continuity_ratios(result):
    """``|dE| / (d_lambda * (1 + |E|))`` for every curve segment of a sweep;
    the curves are continuous when these stay below ~10."""
    ratios = []
    dl = np.diff(result.lambdas)
    for bs in result.blocks:
        de = np.abs(np.diff(bs.energies, axis=0))
        scale = dl[:, None] * (1.0 + np.abs(bs.energies[:-1]))
        ratios.append((de / scale).ravel())
    return np.concatenate(ratios)


# ---------------------------------------------------------- diagonalize

def test_single_site_table_row():
    w, _ = diagonalize(blocks_by_nu(1, 3.0, 0.5)[0])
    assert np.allclose(w, [-7.101, -2.323, 0.424], atol=TABLE_TOL)


def test_three_site_side_blocks_at_zero_coupling():
    for nu in (1, -1):
        w, _ = diagonalize(blocks_by_nu(3, 3.0, 0.0)[nu])
        assert np.allclose(w, [-3.450, 1.000, 1.450], atol=TABLE_TOL)


def test_two_site_antiperiodic_block():
    w, _ = diagonalize(blocks_by_nu(2, 3.0, 0.3)[1])
    assert np.allclose(w, [-3.036, 2.036], atol=TABLE_TOL)


def test_diagonalize_rejects_non_hermitian():
    bad = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        eigh_checked(bad)


def test_eigh_checked_stack_equals_one_matrix_at_a_time():
    blocks = [blocks_by_nu(5, 3.0, lam)[2].hmatrix for lam in (-0.4, 0.0, 0.3)]
    w, v = eigh_checked(np.stack(blocks))
    assert w.shape == (3, 4) and v.shape == (3, 4, 4)
    for i, h in enumerate(blocks):
        w1, _ = eigh_checked(h)
        assert np.max(np.abs(w[i] - w1)) < 1e-12
        assert np.max(np.abs(h @ v[i] - v[i] * w[i])) < 1e-9


def test_eigh_checked_rejects_one_bad_matrix_in_a_stack():
    stack = np.zeros((4, 3, 3), dtype=complex)
    stack[2, 0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        eigh_checked(stack)
    with pytest.raises(ValueError, match="square"):
        eigh_checked(np.zeros((4, 3, 2), dtype=complex))


@pytest.mark.parametrize("bad", [0, 2, 3])
def test_eigh_checked_sees_a_bad_matrix_in_any_chunk(monkeypatch, bad):
    monkeypatch.setattr(spectra, "_CHECK_ENTRIES", 2 * 3 * 3)  # two matrices per chunk
    stack = np.zeros((2, 2, 3, 3))
    stack.reshape(4, 3, 3)[bad, 0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        eigh_checked(stack)
    stack.reshape(4, 3, 3)[bad, 1, 0] = 1.0
    w, v = eigh_checked(stack)
    assert w.shape == (2, 2, 3) and v.shape == (2, 2, 3, 3)


def test_eigh_checked_memory_stays_below_twice_the_stack():
    # the (25, 30, 62, 62) stack of solve_spectra(120, 3.0, 25 couplings),
    # 23.1 MB: its checks go a chunk at a time, so next to the eigenvectors
    # only a chunk's temporaries are held
    stack = max(pencil_stacks(120, 3.0), key=lambda s: len(s.labels) * s.quanta.size ** 2)
    h = stack.matrices(slice(None), np.linspace(0.0, 0.48, 25)[:, None])
    assert h.shape == (25, 30, 62, 62)
    eigh_checked(h[:1])  # warm imports outside the trace
    tracemalloc.start()
    try:
        eigh_checked(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * h.nbytes


@pytest.mark.parametrize("gamma, lam", [(float("nan"), 0.1), (3.0, float("inf")),
                                        (3.0, 1e308), (3.0, 1e6), (-1e4, 0.1)])
def test_solve_spectrum_rejects_bad_couplings(gamma, lam):
    with pytest.raises(ValueError, match="gamma|lambda"):
        solve_spectrum(5, gamma, lam)


def test_couplings_at_the_cap_are_solved():
    # the absolute eigh tolerances still hold at the accepted extremes
    result = solve_spectrum(15, MAX_COUPLING, -MAX_COUPLING)
    assert np.max(np.abs(result.all_eigenvalues()
                         - brute_force_eigenvalues(15, MAX_COUPLING, -MAX_COUPLING))) < 1e-9


def test_sweep_rejects_bad_grid_point():
    with pytest.raises(ValueError, match="lambda"):
        sweep(2, 3.0, [0.0, 0.1, 2e3])


def _first_refusal(lams) -> str:
    """The error of the first coupling that `_check_coupling`, applied to
    each in turn, refuses."""
    for lam in lams:
        try:
            spectra._check_coupling("lambda", lam)
        except ValueError as exc:
            return str(exc)
    raise AssertionError("no coupling is refused")


_BAD = (True, np.bool_(False), math.nan, -math.inf, 2 * MAX_COUPLING, np.float64(-5e3),
        np.float64(math.nan), 0.5j)


@pytest.mark.parametrize("lams", [
    *([bad, 0.1] for bad in _BAD),
    *([0.0, first, np.float64(0.25), second, 0.3] for first in _BAD for second in _BAD
      if first is not second)], ids=repr)
def test_the_couplings_are_checked_in_one_pass_naming_the_first_refused(no_basis, lams):
    # the type pass and the array pass report the value the one-at-a-time
    # checks stop at, with the same message
    with pytest.raises(ValueError) as refused:
        solve_spectra(5, 3.0, lams)
    assert str(refused.value) == _first_refusal(lams)


@pytest.fixture
def no_basis(monkeypatch):
    """Fail any attempt to build a block inside ``spectra``, which has no
    basis enumeration to call at all."""
    def refuse(*args, **kwargs):
        raise AssertionError("a basis or block was built")
    assert not hasattr(spectra, "enumerate_basis")
    monkeypatch.setattr(spectra, "pencil_stacks", refuse)


@pytest.mark.parametrize("f", [0, MAX_SITES + 1])
def test_solve_spectrum_rejects_site_count_before_any_basis(no_basis, f):
    with pytest.raises(ValueError, match=f"f = {f}"):
        solve_spectrum(f, 3.0, 0.5)


def test_sweep_rejects_site_count_before_any_basis(no_basis):
    with pytest.raises(ValueError, match=f"f = {MAX_SITES + 1}"):
        sweep(MAX_SITES + 1, 3.0, [0.0, 0.1])


@pytest.mark.parametrize("f", [5.5, 6.0, True, np.True_, "5", None])
def test_solve_spectrum_rejects_a_site_count_that_is_not_an_integer(no_basis, f):
    with pytest.raises(ValueError, match=f"f = {f!r} is not an integer"):
        solve_spectrum(f, 3.0, 0.5)


@pytest.mark.parametrize("f", [5.5, 6.0, False])
def test_sweep_rejects_a_site_count_that_is_not_an_integer(no_basis, f):
    with pytest.raises(ValueError, match=f"f = {f!r} is not an integer"):
        sweep(f, 3.0, [0.0, 0.1])


@pytest.mark.parametrize("gamma, lam, name, shown", [
    (3 + 1j, 0.3, "gamma", "(3+1j)"), (3.0, 0.3j, "lambda", "0.3j"),
    ("3", 0.3, "gamma", "'3'"), (None, 0.3, "gamma", "None"),
    (3.0, True, "lambda", "True")])
def test_solve_spectrum_rejects_a_coupling_that_is_not_real(no_basis, gamma, lam, name, shown):
    with pytest.raises(ValueError, match=f"{name} = {re.escape(shown)} is not a real number"):
        solve_spectrum(5, gamma, lam)


@pytest.mark.parametrize("grid, shown", [([0.0, 0.1 + 0.2j], r"\(0\.1\+0\.2j\)"),
                                         ([0.0, "0.1"], "'0.1'"), ([0.0, None], "None"),
                                         (np.array([0.0, 0.1j]), ".*0j.*")])
def test_sweep_rejects_a_grid_point_that_is_not_real(no_basis, grid, shown):
    with pytest.raises(ValueError, match=f"lambda = {shown} is not a real number"):
        sweep(5, 3.0, grid)


def test_sweep_rejects_a_gamma_that_is_not_real(no_basis):
    with pytest.raises(ValueError, match="gamma = 3j is not a real number"):
        sweep(5, 3j, [0.0, 0.1])


def test_numpy_integers_and_floats_are_accepted():
    plain = solve_spectrum(5, 3.0, 0.25)
    typed = solve_spectrum(np.int64(5), np.float64(3.0), np.float32(0.25))
    assert type(typed.f) is int and typed.f == 5
    assert np.array_equal(typed.all_eigenvalues(), plain.all_eigenvalues())
    curves = sweep(np.int32(5), np.float32(3.0), np.array([0, 1], dtype=np.int16))
    assert np.array_equal(curves.lambdas, [0.0, 1.0])
    assert [b.label for b in curves.blocks] == [bs.label for bs in plain.blocks]


def test_sweep_rejects_too_many_rows_before_any_basis(no_basis):
    # the longest grid the budget admits on the smallest ring passes the
    # guard (the refused block is the first thing built after it); one point
    # more is refused before any block
    n = largest_admitted(1, keeps_vectors=False)
    with pytest.raises(AssertionError, match="a basis or block was built"):
        sweep(1, 3.0, np.arange(n) * 1e-6)
    with pytest.raises(ValueError, match=refusal(n + 1, 1)):
        sweep(1, 3.0, np.arange(n + 1) * 1e-6)


def test_solve_spectra_rejects_too_many_levels_before_any_basis(no_basis):
    n = largest_admitted(1, keeps_vectors=True)
    with pytest.raises(AssertionError, match="a basis or block was built"):
        solve_spectra(1, 3.0, [0.5] * n)
    with pytest.raises(ValueError, match=refusal(n + 1, 1)):
        solve_spectra(1, 3.0, [0.5] * (n + 1))


def test_run_suites_solves_each_ring_and_coupling_set_once(monkeypatch):
    # one eigh per stack for each (f, gamma) and set of couplings not solved
    # before in the run (375 calls when every coupling was its own solve, 133
    # when each table ran its own sweep, 123 when each suite solved its own),
    # and one sweep per reference ring, whose short grid takes one eigh per stack
    calls = 0

    def counted(*args, _call=spectra.eigh_checked):
        nonlocal calls
        calls += 1
        return _call(*args)
    monkeypatch.setattr(spectra, "eigh_checked", counted)
    assert not failures(run_suites())
    assert calls <= 119, calls


def test_run_suites_builds_each_construction_once_per_run(monkeypatch):
    # one run builds each ring's momentum pencils, dense pencils, orbit table
    # and block frames once (60, 47, 39 and 89 builds when every suite built
    # its own), and each drive once for all gamma (25 builds when each dense
    # pencil built its own); the next run builds them all again, and no
    # run's table outlives it
    keys = {(momentum, "pencil_stacks"): lambda f, gamma: (f, gamma),
            (ops, "_h_bh"): lambda f, gamma, basis: (f, gamma, basis.sectors),
            (ops, "_h_drive"): lambda f, basis: (f, basis.sectors),
            (ops, "_orbits"): lambda basis: basis.f,
            (ops._Orbits, "frame"): lambda orbits, nu, size: (orbits.f, nu)}
    builds = []
    for (home, name), key in keys.items():
        build = getattr(home, name)

        def counted(*args, _build=build, _name=name, _key=key):
            builds.append((_name, _key(*args)))
            return _build(*args)
        for module in (home, algebra, momentum, ops, spectra, suites):
            if getattr(module, name, None) is build:
                monkeypatch.setattr(module, name, counted)
    tables = []

    class Traced(suites.Rings):
        def __init__(self):
            super().__init__()
            tables.append(weakref.ref(self))
    monkeypatch.setattr(suites, "Rings", Traced)
    for _ in range(2):
        builds.clear()
        assert not failures(run_suites())
        assert len(set(builds)) == len(builds)
        assert collections.Counter(name for name, _ in builds) == {
            "pencil_stacks": 18, "_h_bh": 25, "_h_drive": 14, "_orbits": 8, "frame": 29}
        assert sorted(f for name, f in builds if name == "_orbits") == list(range(1, 9))
    gc.collect()
    assert len(tables) == 2 and all(table() is None for table in tables)


def test_the_run_table_hands_out_one_read_only_copy_of_each_construction():
    rings = suites.Rings()
    (result,) = rings.solve(3, 3.0, [0.2])
    assert rings.solve(3, 3.0, [0.1, 0.2])[1] is result
    assert rings.pencil(3, 3.0) is rings.pencil(3, 3.0)
    assert rings.pencil(3, 1.0)[1] is rings.pencil(3, 3.0)[1]
    assert rings.pencil(3, 1.0, 3)[1] is rings.pencil(3, 3.0, 3)[1] is not rings.pencil(3, 3.0)[1]
    assert rings.stacks(3, 3.0) is rings.stacks(3, 3.0)
    assert rings.orbits(3) is rings.orbits(3)
    arrays = [*rings.pencil(3, 3.0), *rings.pencil(3, 3.0, 3),
              *(rings.frame(label) for label in momentum_values(3))]
    arrays += [a for stack in rings.stacks(3, 3.0)
               for a in (stack.quanta, stack.phases, stack.head, stack.diag, stack.hop,
                         stack.drive)]
    arrays += [a for block in result.blocks
               for a in (block.matrix, block.phases, block.quanta, block.eigenvalues, block.u)]
    assert not any(a.flags.writeable for a in arrays)
    plain = solve_spectra(3, 3.0, [0.1, 0.2])
    assert all(np.array_equal(a.all_eigenvalues(), b.all_eigenvalues())
               for a, b in zip(plain, rings.solve(3, 3.0, [0.1, 0.2])))


@pytest.mark.parametrize("f", range(1, 9))
def test_the_run_table_gives_the_frames_and_pencils_of_the_public_builders(f):
    # read off one orbit table per ring, bit for bit what the builders give
    rings = suites.Rings()
    basis = rings.basis(f)
    for label in momentum_values(f):
        assert rings.frame(label).tobytes() == build_momentum_vectors(f, label, basis).tobytes()
    for gamma in (1.0, 3.0):
        assert all(ours.tobytes() == theirs.tobytes()
                   for pencil, oracle in zip(rings.block_pencils(f, gamma),
                                             orbit_block_pencil(f, gamma), strict=True)
                   for ours, theirs in ((pencil.b_bh, oracle.b_bh),
                                        (pencil.b_drive, oracle.b_drive),
                                        (pencil.quanta, oracle.quanta)))
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(rings.pencil(f, gamma), hamiltonian_pencil(f, gamma, basis)))


def test_suites_carry_no_state_between_them():
    # each suite run alone writes its slice of the records of one run of all
    # of them, so nothing a suite leaves in the run's table changes another
    parts = [record for name in suites.SUITES for record in as_records(run_suites([name]))]
    assert json.dumps(parts) == json.dumps(as_records(run_suites()))


def test_solve_spectra_rejects_too_many_matrix_entries_before_any_block(no_basis):
    # every coupling keeps the matrices and eigenvectors of the 61 distinct
    # blocks of f = 120, 16 * (63^2 + 30 * 61^2 + 30 * 62^2) bytes = 3.7 MB
    n = largest_admitted(MAX_SITES, keeps_vectors=True)
    with pytest.raises(AssertionError, match="a basis or block was built"):
        solve_spectra(MAX_SITES, 3.0, [0.1] * n)
    with pytest.raises(ValueError, match=refusal(n + 1, MAX_SITES)):
        solve_spectra(MAX_SITES, 3.0, [0.1] * (n + 1))


def test_sweep_at_the_row_cap_passes_the_guard(no_basis):
    # the budget still admits the 270-point grid on the largest ring
    n = largest_admitted(MAX_SITES, keeps_vectors=False)
    assert n >= 270
    with pytest.raises(AssertionError, match="a basis or block was built"):
        sweep(MAX_SITES, 3.0, np.arange(n) * 1e-3)
    with pytest.raises(ValueError, match=refusal(n + 1, MAX_SITES)):
        sweep(MAX_SITES, 3.0, np.arange(n + 1) * 1e-3)


@pytest.mark.parametrize("f", [47, 48, MAX_SITES - 1, MAX_SITES])
@pytest.mark.parametrize("gamma", [3.0, 5.0])
def test_large_ring_band_matches_infinite_lattice_bound_state(f, gamma):
    # at lam = 0 the band is the two-boson bound state, whose infinite-ring
    # dispersion -sqrt(gamma^2 + 16 cos^2(k/2)) the finite ring reaches up to
    # corrections ~ e^{-kappa f} far below 1e-12 at these sizes
    band = soliton_band(solve_spectrum(f, gamma, 0.0))
    assert len(band.minima) == f
    for nu, e_min in band.minima:
        exact = -math.sqrt(gamma ** 2 + 16.0 * math.cos(math.pi * nu / f) ** 2)
        assert abs(e_min - exact) < 1e-12


def test_largest_ring_opposite_momenta_are_degenerate():
    result = solve_spectrum(MAX_SITES, 3.0, 0.3)
    present = {bs.label.nu for bs in result.blocks}
    pairs = 0
    for bs in result.blocks:
        if bs.label.nu > 0 and -bs.label.nu in present:
            mirror = result.block_for(-bs.label.nu)
            assert np.max(np.abs(bs.eigenvalues - mirror.eigenvalues)) < 1e-9
            pairs += 1
    assert pairs == MAX_SITES // 2 - 1


def test_largest_ring_spectrum_is_even_in_the_coupling():
    plus = solve_spectrum(MAX_SITES, 3.0, 0.4).all_eigenvalues()
    minus = solve_spectrum(MAX_SITES, 3.0, -0.4).all_eigenvalues()
    assert plus.size == (MAX_SITES + 1) * (MAX_SITES + 2) // 2
    assert np.max(np.abs(plus - minus)) < 1e-9


def test_hmatrix_is_the_gauged_block_in_the_orbit_frame_built_on_first_read():
    for bs in solve_spectrum(12, 3.0, 0.5).blocks:
        assert "hmatrix" not in vars(bs) and bs.matrix.dtype == np.float64
        h = bs.hmatrix
        assert h is bs.hmatrix and not h.flags.writeable
        assert np.array_equal(h, h.conj().T)
        assert np.max(np.abs(h - to_orbit_frame(bs.matrix, bs.phases))) == 0.0
        residual = h @ bs.coefficients - bs.coefficients * bs.eigenvalues
        assert np.max(np.abs(residual)) < 1e-12


LAZY = ("coefficients", "hmatrix")


def test_solve_builds_no_frame_and_no_basis_until_read(monkeypatch):
    # a solve and a band read build none of the lazy arrays, and a block -nu
    # holds the arrays of nu
    for f, lam in ((12, 0.5), (48, 0.3)):
        result = solve_spectrum(f, 3.0, lam)
        soliton_band(result)
        assert not hasattr(result, "basis")
        by_nu = {bs.label.nu: bs for bs in result.blocks}
        for bs in result.blocks:
            assert not [name for name in LAZY if name in vars(bs)]
            arrays = (bs.matrix, bs.phases, bs.quanta, bs.eigenvalues, bs.u)
            assert not any(array.flags.writeable for array in arrays)
            if bs.label.nu < 0:
                mirror = by_nu[-bs.label.nu]
                for name in ("matrix", "eigenvalues", "u"):
                    assert np.shares_memory(getattr(bs, name), getattr(mirror, name))
                assert np.array_equal(bs.phases, mirror.phases.conj())
        for bs in result.blocks:
            assert bs.hmatrix.shape == (bs.quanta.size,) * 2
            assert not bs.hmatrix.flags.writeable and not bs.coefficients.flags.writeable


def test_eigenvectors_are_orthonormal_and_satisfy_residual():
    result = solve_spectrum(5, 3.0, 0.5)
    basis = enumerate_basis(5, at_most(2))
    h_bh, h_drive = hamiltonian_pencil(5, 3.0, basis)
    h = h_bh + 0.5 * h_drive
    for bs in result.blocks:
        v = build_momentum_vectors(5, bs.label, basis) @ bs.coefficients
        assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) < 1e-12
        for i, e in enumerate(bs.eigenvalues):
            assert np.linalg.norm(h @ v[:, i] - e * v[:, i]) < 1e-9


# ---------------------------------------------------------- char_poly

@pytest.mark.parametrize("f", range(1, 13))
def test_lazy_eigenvectors_equal_the_dense_reference(f):
    result = solve_spectrum(f, 3.0, 0.5)
    for bs in result.blocks:
        assert "coefficients" not in vars(bs)
        frame = build_momentum_vectors(f, bs.label)
        # the real eigenvectors of the gauged block, times the column phases
        coefficients = bs.phases[:, None] * np.linalg.eigh(bs.matrix)[1]
        reference = frame @ coefficients
        assert np.max(np.abs(frame @ bs.coefficients - reference)) == 0.0
        residual = bs.hmatrix @ coefficients - coefficients * bs.eigenvalues
        assert np.max(np.abs(residual)) < 1e-12
        assert bs.coefficients is bs.coefficients and not bs.coefficients.flags.writeable


def test_ring_solve_memory_stays_below_one_dense_array():
    # half of one dense D x D complex array at f = 48 (D = 1225): 12 MB
    f = 48
    limit = 16 * ((f + 1) * (f + 2) // 2) ** 2 // 2
    solve_spectrum(f, 3.0, 0.5)  # warm imports and caches outside the trace
    tracemalloc.start()
    try:
        soliton_band(solve_spectrum(f, 3.0, 0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit


def admitted_corner(kind, f, n):
    """A call of ``kind`` on ``f`` sites over ``n`` couplings, its inputs
    built outside the trace."""
    grid = np.arange(n) * 2.0 ** -20
    if kind == "sweep":
        return lambda: sweep(f, 3.0, grid)
    if kind == "solve_spectra":
        lams = [0.3] * n
        return lambda: solve_spectra(f, 3.0, lams)
    text = f"0:{float(grid[-1])!r}:{float(grid[1])!r}"
    argv = [kind.split()[1], "--f", str(f), "--lambda", text, "--out", os.devnull]
    return lambda: cli.main(argv)


@pytest.mark.parametrize("f", [1, MAX_SITES])
@pytest.mark.parametrize("kind", ["sweep", "solve_spectra", "cli sweep", "cli figure2"])
def test_admitted_corners_stay_inside_the_prediction(kind, f):
    # at the longest grid the budget admits, the prediction bounds the traced
    # peak and is no more than twice it
    keeps_vectors, per_point = kind == "solve_spectra", kind == "cli figure2"
    n = largest_admitted(f, keeps_vectors, per_point)
    predicted = spectra._admit(f, n, keeps_vectors, per_point)
    admitted_corner(kind, f, 2)()  # warm imports outside the trace
    call = admitted_corner(kind, f, n)
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not kind.startswith("cli") or result == 0
    assert peak <= predicted <= 2 * peak, (n, peak, predicted)


def test_admitted_fallback_corner_stays_inside_the_prediction(monkeypatch):
    # at f = 3, gamma = 3 and lam >= 0.2 the count leaves most rows of nu = 1
    # to the eigh fallback, which then runs in more than one chunk
    f = 3
    n = largest_admitted(f, keeps_vectors=False)
    predicted = spectra._admit(f, n, keeps_vectors=False)
    grid = 0.25 + np.arange(n) * 2.0 ** -20
    fallback_rows = []
    uncounted = spectra._uncounted

    def counted(*args):
        rows = uncounted(*args)
        fallback_rows.append(int(rows.sum()))
        return rows

    monkeypatch.setattr(spectra, "_uncounted", counted)
    sweep(f, 3.0, grid[:2])  # warm imports outside the trace
    fallback_rows.clear()
    tracemalloc.start()
    try:
        sweep(f, 3.0, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(fallback_rows) > (n - 1) // 2 + 1  # two chunks at least
    assert peak <= predicted <= 2 * peak, (n, peak, predicted)


def test_char_poly_is_monic_real_and_degree_matches():
    block = blocks_by_nu(4, 3.0, 0.3)[0]
    coeffs = np.poly(block.eigenvalues)
    assert coeffs.dtype.kind == "f"
    assert coeffs[0] == 1.0
    assert coeffs.size == block.dim + 1


@pytest.mark.parametrize("ref", REFERENCE_CHAR_POLYS, ids=lambda r: r.name)
def test_reference_polynomials(ref):
    gammas, lams = CHARPOLY_SAMPLES
    for gamma in gammas:
        for lam in lams:
            blocks = blocks_by_nu(ref.f, gamma, lam)
            for nu in ref.nus:
                computed = np.poly(blocks[nu].eigenvalues)
                target = ref.coefficients(gamma, lam)
                dev = np.max(np.abs(computed - target) / np.maximum(1.0, np.abs(target)))
                assert dev < 1e-8, (ref.name, gamma, lam, nu)


def test_three_site_side_block_closed_form_roots():
    for lam in (0.0, 0.25, 0.5):
        target = np.array(f3_dim3_energies(lam))
        for nu in (1, -1):
            w, _ = diagonalize(blocks_by_nu(3, 3.0, lam)[nu])
            assert np.max(np.abs(w - target)) < 1e-9


# ---------------------------------------------------------- sweep

def test_sweep_shapes_and_endpoints():
    grid = [round(0.01 * i, 10) for i in range(51)]
    result = sweep(3, 3.0, grid)
    assert result.lambdas.size == 51
    assert sum(b.energies.shape[1] for b in result.blocks) == 10
    zero_block = next(b for b in result.blocks if b.label.nu == 0)
    assert np.isclose(np.min(zero_block.energies[0]), -5.372, atol=TABLE_TOL)
    side_block = next(b for b in result.blocks if b.label.nu == 1)
    assert np.isclose(np.min(side_block.energies[-1]), -3.598, atol=TABLE_TOL)


def test_sweep_tags_at_zero_coupling():
    result = sweep(3, 3.0, [0.0, 0.1, 0.2])
    tags = {}
    for b in result.blocks:
        for level, tag in enumerate(b.tags):
            tags.setdefault(tag, []).append(round(float(b.energies[0, level]), 3))
    assert tags[0] == [0.0]
    assert sorted(tags[1]) == [-2.0, 1.0, 1.0]
    assert len(tags[2]) == 6  # the full two-quanta sector
    assert min(tags[2]) == -5.372


def test_sweep_curves_are_continuous():
    result = sweep(4, 3.0, [round(0.02 * i, 10) for i in range(26)])
    assert float(np.max(continuity_ratios(result))) < 10.0


def test_sweep_rejects_bad_grids():
    with pytest.raises(ValueError):
        sweep(2, 3.0, [])
    with pytest.raises(ValueError):
        sweep(2, 3.0, [0.2, 0.1])


def grid(start, stop, step):
    """The points of ``qeslattice sweep --lambda start:stop:step``."""
    return [start + i * step for i in range(int(round((stop - start) / step)) + 1)]


@pytest.mark.parametrize("f, gamma, stop", [(12, 3.0, 0.49), (47, 3.0, 0.49), (48, 3.0, 0.49),
                                            (15, 1.0, 1.0)])
def test_sweep_levels_do_not_depend_on_the_grid_step(f, gamma, stop):
    coarse = sweep(f, gamma, grid(0.0, stop, 0.01))
    fine = sweep(f, gamma, grid(0.0, stop, 0.001))
    for a, b in zip(coarse.blocks, fine.blocks, strict=True):
        assert np.max(np.abs(a.energies - b.energies[::10])) < 1e-9, (a.label.nu, f)


def k_pi_block(f, label):
    """The ``k = pi`` block of an even ring ``f >= 4``: split, not interlaced."""
    return 2 * label.nu == f >= 4


@pytest.mark.parametrize("f, gamma", [(3, 3.0), (12, 3.0), (15, 1.0), (16, 3.0), (47, 3.0),
                                      (48, 3.0)])
def test_sweep_levels_strictly_interlace_the_coupling_free_part(f, gamma):
    # each block is an arrowhead over its one-quantum row: at lam != 0 the
    # levels of an unreduced one lie strictly between the eigenvalues of the rest
    points = [-0.5, -0.1, 0.01, 0.05, 0.2, 0.5]
    result = sweep(f, gamma, points)
    checked = 0
    for oracle, bs in zip(orbit_block_pencil(f, gamma), result.blocks, strict=True):
        if k_pi_block(f, bs.label):
            continue
        keep = oracle.quanta != 1
        poles = np.linalg.eigvalsh(oracle.b_bh[np.ix_(keep, keep)])
        assert np.all(bs.energies[:, :-1] < poles) and np.all(poles < bs.energies[:, 1:])
        checked += 1
    assert checked == len(result.blocks) - (f % 2 == 0)


@pytest.mark.parametrize("f", [4, 6, 12, 48])
def test_k_pi_block_has_exact_zero_levels_and_sorted_coupled_levels(f):
    points = np.array(grid(-0.3, 0.49, 0.01))
    block = next(b for b in sweep(f, 3.0, points).blocks if k_pi_block(f, b.label))
    d = block.energies.shape[1]
    zero = np.all(block.energies == 0.0, axis=0)
    assert np.count_nonzero(zero) == d - 3
    assert all(block.tags[c] == 2 for c in np.flatnonzero(zero))
    assert np.all(np.diff(block.energies[:, ~zero], axis=1) > 0)
    # a coupled level reaches zero, up to rounding, only at lam = 0
    off = block.energies[points != 0.0]
    assert np.all(np.count_nonzero(off == 0.0, axis=1) == d - 3)
    assert np.all(np.diff(off, axis=1) >= 0)


def k_pi_stack(f):
    """The stack whose first row is the ``k = pi`` block."""
    return next(s for s in pencil_stacks(f, 3.0) if 2 * s.labels[0].nu == f)


@pytest.mark.parametrize("f", [4, 6, 20, 48, 120])
def test_coupled_part_reads_the_k_pi_pencil_off_its_entries(f):
    stack = k_pi_stack(f)
    coupled = spectra._coupled_part(stack)
    assert coupled.labels == stack.labels[:1] and coupled.quanta.tolist() == [1, 2, 2]
    b_bh, b_drive = pencil_parts(coupled)
    assert b_bh[0].tolist() == [[2.0, 0.0, 0.0], [0.0, -3.0, 0.0], [0.0, 0.0, 0.0]]
    norm = np.linalg.norm(stack.drive[0, 1:])
    assert b_drive[0].tolist() == [[0.0, -math.sqrt(2), norm], [-math.sqrt(2), 0.0, 0.0],
                                   [norm, 0.0, 0.0]]


@pytest.mark.parametrize("f", [4, 6, 20, 48, 120])
@pytest.mark.parametrize("entry", ["hop", "drive"])
def test_coupled_part_rejects_a_k_pi_block_that_is_zero_only_up_to_rounding(f, entry):
    # one s >= 1 hop or one odd-s drive entry of 1e-17 is not zero: the
    # split refuses it however small it is
    stack = k_pi_stack(f)
    values = getattr(stack, entry).copy()
    values[0, 1] = 1e-17  # the hop between s = 1 and s = 2, or the drive to s = 1
    with pytest.raises(ArithmeticError, match="not decoupled"):
        spectra._coupled_part(dataclasses.replace(stack, **{entry: values}))


def fans(f, gamma):
    """Every stack of fans ``sweep`` counts on a ring: each pencil stack
    without its ``k = pi`` block, and that block's coupled part, as a stack
    of one."""
    for stack in pencil_stacks(f, gamma):
        split = int(k_pi_block(f, stack.labels[0]))
        if len(stack.labels) > split:
            yield stack[split:]
        if split:
            yield spectra._coupled_part(stack)


def eigvalsh_levels(stack, points):
    """The ``(n_b, n, d)`` levels of a stack of fans over ``points``."""
    b_bh, b_drive = pencil_parts(stack)
    return np.linalg.eigvalsh(b_bh[:, None] + points[None, :, None, None] * b_drive[:, None])


@pytest.mark.parametrize("f", [1, 2, 4, 15, 16, 48])
def test_the_count_certifies_every_level_and_rejects_a_shifted_or_swapped_one(f):
    points = np.arange(1, 26) * 0.02
    for stack in fans(f, 3.0):
        energies = eigvalsh_levels(stack, points)
        assert not spectra._uncounted(stack, points, energies).any()
        spectra._certify(stack, points, energies)
        n_b, _, d = energies.shape
        shifted, swapped = energies.copy(), energies.copy()
        shifted[-1, 7, d // 2] += 10 * spectra.RESIDUAL_TOL
        swapped[0, 3, [0, 1]] = swapped[0, 3, [1, 0]]
        for wrong, row in ((shifted, (n_b - 1, 7)), (swapped, (0, 3))):
            uncounted = spectra._uncounted(stack, points, wrong)
            assert np.flatnonzero(uncounted).tolist() == [np.ravel_multi_index(row, (n_b, 25))]
            with pytest.raises(ArithmeticError, match="more than RESIDUAL_TOL"):
                spectra._certify(stack, points, wrong)


def test_a_stack_row_is_a_view_of_the_stack():
    # the sweep counts a stack without its k = pi row on the arrays it holds
    stack = k_pi_stack(12)
    rest = stack[1:]
    assert rest.labels == stack.labels[1:]
    for name in ("phases", "head", "diag", "hop", "drive"):
        part, whole = getattr(rest, name), getattr(stack, name)
        assert np.shares_memory(part, whole) and np.array_equal(part, whole[1:])
        assert not part.flags.writeable


@pytest.mark.parametrize("f, n", [(3, 6), (4, 6), (15, 14), (16, 6)])
def test_a_short_sweep_is_one_checked_eigh_per_stack(monkeypatch, f, n):
    # with at most _EIGH_ENTRIES matrix entries over the grid, a stack is
    # diagonalized at every point by the eigh that solve_spectra runs, so its
    # levels equal solve_spectra's bit for bit and no eigvalsh runs
    lams = np.linspace(0.1, 0.5, n)
    assert all(n * len(s.labels) * s.quanta.size ** 2 <= spectra._EIGH_ENTRIES
               for s in pencil_stacks(f, 3.0) if not k_pi_block(f, s.labels[0]))

    def refused(*args):
        raise AssertionError("eigvalsh ran on a short grid")
    monkeypatch.setattr(spectra.np.linalg, "eigvalsh", refused)
    result = sweep(f, 3.0, lams)
    solved = solve_spectra(f, 3.0, lams)
    for bs in result.blocks:
        if not k_pi_block(f, bs.label):
            for i, point in enumerate(solved):
                assert np.array_equal(bs.energies[i], point.block_for(bs.label.nu).eigenvalues)


def test_sweep_falls_back_to_eigh_where_the_count_loses_a_sign(monkeypatch):
    # the block nu = 1 of f = 3 at gamma = 3 has the level E = 1 at every
    # coupling, equal to the diagonal of its widest pair: the count cannot
    # certify it, and eigh_checked, run on those points alone, does (on a
    # grid long enough for the count to run on both stacks)
    points = np.array(grid(-0.5, 0.5, 0.001))
    assert points.size * 3 * 3 > spectra._EIGH_ENTRIES
    side = next(s for s in pencil_stacks(3, 3.0) if s.labels[0].nu == 1)
    energies = eigvalsh_levels(side, points[1:])
    uncounted = spectra._uncounted(side, points[1:], energies)
    assert 0 < np.count_nonzero(uncounted) < points.size - 1
    rows = []

    def counted(h, _call=eigh_checked):
        rows.append(h.shape[:-2])
        return _call(h)
    monkeypatch.setattr(spectra, "eigh_checked", counted)
    result = sweep(3, 3.0, points)
    # the first point of both stacks (nu = 0 and 1), then the uncounted points
    assert sum(math.prod(r) for r in rows) == 2 + np.count_nonzero(uncounted)
    for i, lam in enumerate(points):
        levels = np.sort(np.concatenate([b.energies[i] for b in result.blocks]))
        assert np.max(np.abs(levels - brute_force_eigenvalues(3, 3.0, lam))) < 1e-9


@pytest.mark.parametrize("f, points", [(16, grid(0.0, 0.49, 0.01)), (120, grid(0.0, 0.09, 0.01))])
def test_real_gauge_sweep_tracks_like_complex_eigh_of_the_orbit_pencil(f, points):
    # curve c is the c-th ascending level of the complex orbit-frame pencil;
    # at k = pi the d - 3 zero levels are split off from the oracle first
    result = sweep(f, 3.0, points)
    for oracle, bs in zip(orbit_block_pencil(f, 3.0), result.blocks, strict=True):
        w = np.linalg.eigvalsh(oracle.b_bh + np.multiply.outer(points, oracle.b_drive))
        energies = bs.energies
        if k_pi_block(f, bs.label):
            zero = np.all(energies == 0.0, axis=0)
            assert np.count_nonzero(zero) == w.shape[1] - 3
            nearest = np.argsort(np.abs(w), axis=1)[:, :w.shape[1] - 3]
            assert np.max(np.abs(np.take_along_axis(w, nearest, axis=1))) < 1e-9
            coupled = np.ones(w.shape, dtype=bool)
            np.put_along_axis(coupled, nearest, False, axis=1)
            w, energies = w[coupled].reshape(len(points), 3), energies[:, ~zero]
        assert np.max(np.abs(w - energies)) < 1e-9


def test_four_site_zero_block_table_row():
    result = sweep(4, 3.0, [0.0, 0.25, 0.5])
    zero_block = next(b for b in result.blocks if b.label.nu == 0)
    assert np.allclose(np.sort(zero_block.energies[-1]),
                       [-5.778, -2.814, -1.257, 1.338, 3.511], atol=TABLE_TOL)


def test_single_site_sweep_reproduces_whole_table():
    table = next(t for t in REFERENCE_TABLES if t.f == 1)
    grid = [row[0] for row in table.rows]
    result = sweep(1, 3.0, grid)
    energies = result.blocks[0].energies
    for i, (_, expected) in enumerate(table.rows):
        assert np.allclose(np.sort(energies[i]), expected, atol=TABLE_TOL)


# ---------------------------------------------------------- soliton band

def test_soliton_band_three_sites_at_zero_coupling():
    band = soliton_band(solve_spectrum(3, 3.0, 0.0))
    assert dict(band.minima)[0] == pytest.approx(-5.372, abs=TABLE_TOL)
    assert dict(band.minima)[1] == pytest.approx(-3.450, abs=TABLE_TOL)
    assert band.margin == pytest.approx(1.450, abs=TABLE_TOL)


def test_soliton_band_three_sites_at_half_coupling():
    band = soliton_band(solve_spectrum(3, 3.0, 0.5))
    assert sorted(e for _, e in band.minima)[0] == pytest.approx(-5.801, abs=TABLE_TOL)
    assert band.margin == pytest.approx(0.949, abs=TABLE_TOL)


def test_soliton_band_single_site_margin_is_spectral_gap():
    result = solve_spectrum(1, 3.0, 0.3)
    band = soliton_band(result)
    w = result.all_eigenvalues()
    assert band.margin == pytest.approx(w[1] - w[0])
    assert band.per_nu_margin == pytest.approx(w[1] - w[0])


@pytest.mark.parametrize("f", [3, 5, 7])
def test_per_momentum_band_separation(f):
    for lam in (0.0, 0.25, 0.5):
        band = soliton_band(solve_spectrum(f, 3.0, lam))
        assert band.per_nu_margin > 0.0


# ---------------------------------------------------------- symmetries

@pytest.mark.parametrize("f", [1, 2, 3, 4, 5])
def test_spectrum_even_in_coupling_sign(f):
    plus = solve_spectrum(f, 3.0, 0.35).all_eigenvalues()
    minus = solve_spectrum(f, 3.0, -0.35).all_eigenvalues()
    assert np.max(np.abs(plus - minus)) < 1e-9
    # the quanta parity (-1)^N conjugates H(lam) into H(-lam) exactly
    basis = enumerate_basis(f, at_most(2))
    parity = np.diag([(-1.0) ** sum(s) for s in basis.states])
    h_bh, h_drive = hamiltonian_pencil(f, 3.0, basis)
    h_plus, h_minus = h_bh + 0.35 * h_drive, h_bh - 0.35 * h_drive
    assert np.max(np.abs(parity @ h_plus @ parity - h_minus)) < 1e-12


@pytest.mark.parametrize("f", range(1, 8))
@pytest.mark.parametrize("gamma", [1.0, 3.0])
@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5])
def test_block_spectra_match_brute_force(f, gamma, lam):
    blocks = solve_spectrum(f, gamma, lam).all_eigenvalues()
    assert np.max(np.abs(blocks - brute_force_eigenvalues(f, gamma, lam))) < 1e-9


@pytest.mark.parametrize("f", range(1, 8))
def test_zero_coupling_sector_decomposition(f):
    gamma = 3.0
    expected = [0.0]
    expected += [-2.0 * math.cos(l.k) for l in momentum_values(f)]
    basis = enumerate_basis(f, at_most(2))
    h_bh, _ = hamiltonian_pencil(f, gamma, basis)
    expected += list(np.linalg.eigvalsh(sector_block(h_bh, basis, 2, 2)))
    computed = solve_spectrum(f, gamma, 0.0).all_eigenvalues()
    assert np.max(np.abs(computed - np.sort(expected))) < 1e-9


@pytest.mark.parametrize("f", [3, 4, 5, 7])
def test_mirror_momentum_degeneracy_and_conjugation(f):
    result = solve_spectrum(f, 3.0, 0.5)
    basis = enumerate_basis(f, at_most(2))
    h_bh, h_drive = hamiltonian_pencil(f, 3.0, basis)
    h = h_bh + 0.5 * h_drive
    present = {b.label.nu for b in result.blocks}
    for bs in result.blocks:
        if bs.label.nu <= 0 or -bs.label.nu not in present:
            continue
        mirror = result.block_for(-bs.label.nu)
        assert np.max(np.abs(bs.eigenvalues - mirror.eigenvalues)) < 1e-9
        frame = build_momentum_vectors(f, mirror.label, basis)
        eigenvectors = build_momentum_vectors(f, bs.label, basis) @ bs.coefficients
        for i, e in enumerate(bs.eigenvalues):
            v = eigenvectors[:, i].conj()
            assert np.linalg.norm(h @ v - e * v) < 1e-8
            assert np.linalg.norm(frame @ (frame.conj().T @ v) - v) < 1e-8


# ------------------------------------------------- eigenstate formulas

@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_eigenvector_formulas_all_pass(f):
    checks = verify_eigenvector_formulas(solve_spectrum(f, 3.0, 0.25))
    hard_failures = [c for c in checks if c.status == "fail"]
    assert not hard_failures, hard_failures
    groups = [c for c in checks if c.name.startswith("reading group")]
    for g in groups:
        assert g.status == "pass"


def test_eigenvector_formulas_generic_gamma():
    for gamma in (1.0, 7.0):
        checks = verify_eigenvector_formulas(solve_spectrum(2, gamma, 0.4))
        assert all(c.passed for c in checks)


def test_eigenvector_formulas_decoupled_limit():
    checks = verify_eigenvector_formulas(solve_spectrum(2, 3.0, 0.0))
    names = {c.name for c in checks}
    assert "f2 lam=0 two-quanta symmetric pair" in names
    assert all(c.passed for c in checks)


def test_eigenvector_formulas_reject_large_rings():
    result = solve_spectrum(5, 3.0, 0.1)
    with pytest.raises(ValueError, match="f in 1..4"):
        verify_eigenvector_formulas(result)


def test_exactly_one_reading_matches_each_ambiguous_formula():
    checks = verify_eigenvector_formulas(solve_spectrum(2, 3.0, 0.3))
    members = [c for c in checks if c.params.get("nu") == 0 and "[c3" in c.name]
    assert sum(c.status == "pass" for c in members) == 1
    checks = verify_eigenvector_formulas(solve_spectrum(4, 3.0, 0.3))
    members = [c for c in checks if "pair coefficient" in c.name]
    assert {c.name.split("[")[1].rstrip("]"): c.status for c in members} == {
        "pair coefficient as printed": "reading-mismatch",
        "pair coefficient sign-flipped": "pass",
    }


def test_four_site_null_energy_eigenstate_is_exact():
    # the (1,1,0,0)-family vector at k = pi is an exact null eigenvector
    result = solve_spectrum(4, 3.0, 0.5)
    h_bh, h_drive = hamiltonian_pencil(4, 3.0, enumerate_basis(4, at_most(2)))
    h = h_bh + 0.5 * h_drive
    block = result.block_for(2)
    psi22 = build_momentum_vectors(4, block.label)[:, 2]
    assert np.linalg.norm(h @ psi22) < 1e-9


# ---------------------------------------------------------- tags

def test_quanta_tag_reads_dominant_sector():
    basis = enumerate_basis(2, at_most(2))
    v = np.zeros(basis.size, dtype=complex)
    v[basis.index[(1, 1)]] = 1.0
    assert quanta_tag(v, basis) == 2
    v[basis.index[(0, 0)]] = 2.0
    assert quanta_tag(v, basis) == 0


@pytest.mark.parametrize("f", [12, 47, 48])
@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5])
def test_block_coordinate_tags_equal_quanta_tag(f, lam):
    result = solve_spectrum(f, 3.0, lam)
    basis = enumerate_basis(f, at_most(2))
    for bs in result.blocks:
        eigenvectors = build_momentum_vectors(f, bs.label, basis) @ bs.coefficients
        oracle = tuple(quanta_tag(v, basis) for v in eigenvectors.T)
        assert (quanta_tags(bs.u, bs.quanta, bs.eigenvalues)
                == quanta_tags(bs.coefficients, bs.quanta, bs.eigenvalues) == oracle)


def test_tags_of_a_degenerate_group_do_not_depend_on_its_eigenvectors():
    # at gamma = 0 and lam = 0 the block nu = 30 of f = 120 holds two zero
    # levels, the one-quantum level -2 cos(pi/2) and a pair level: any
    # rotation of their eigenvectors is as good, and the tags stay (1, 2)
    bs = solve_spectrum(120, 0.0, 0.0).block_for(30)
    group = np.flatnonzero(np.abs(bs.eigenvalues) < spectra.RESIDUAL_TOL)
    assert group.tolist() == [30, 31]
    tags = quanta_tags(bs.u, bs.quanta, bs.eigenvalues)
    assert tags[30:32] == (1, 2)
    rng = np.random.default_rng(7)
    dominant = set()
    for turn in [np.array([[0.0, 1.0], [1.0, 0.0]])] + [
            np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(20)]:
        u = bs.u.copy()
        u[:, group] = u[:, group] @ turn
        assert quanta_tags(u, bs.quanta, bs.eigenvalues) == tags
        mass = u[:, group] ** 2
        dominant.add(tuple(np.where(mass[bs.quanta == 1].sum(axis=0) >= 0.5, 1, 2).tolist()))
    assert dominant == {(1, 2), (2, 1)}  # the dominant sector of each vector alone is not


@pytest.mark.parametrize("table", REFERENCE_TABLES, ids=lambda t: t.name)
def test_reference_tables(table):
    for lam, energies in table.rows:
        result = solve_spectrum(table.f, 3.0, lam)
        for nu in table.nus:
            computed = result.block_for(nu).eigenvalues
            assert np.max(np.abs(computed - np.array(energies))) < TABLE_TOL
