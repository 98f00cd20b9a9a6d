"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and matches the verification suites
behind ``qeslattice verify``.
"""

import time
from contextlib import contextmanager

import numpy as np

from qeslattice.fock import at_most, enumerate_basis
from qeslattice.momentum import block_dimensions, expected_block_dimension
from qeslattice.ops import (brute_force_eigenvalues, build_number, build_translation, commutator,
                            hamiltonian_pencil, sector_block)
from qeslattice.reference import (REFERENCE_CHAR_POLYS, REFERENCE_TABLES,
                                  f3_dim3_energies)
from qeslattice.spectra import solve_spectrum, soliton_band
from qeslattice.suites import Rings, algebra_suite, verify_eigenvector_formulas

TABLE_TOL = 1.5e-3
EXACT_TOL = 1e-12
ORACLE_TOL = 1e-9


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d}: {description} ... FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number:2d}: {description} ... PASS", flush=True)


def table_by_name(name):
    return next(t for t in REFERENCE_TABLES if t.name == name)


def check_table(table):
    worst = 0.0
    for lam, energies in table.rows:
        result = solve_spectrum(table.f, 3.0, lam)
        for nu in table.nus:
            dev = np.max(np.abs(result.block_for(nu).eigenvalues - np.array(energies)))
            worst = max(worst, float(dev))
    assert worst < TABLE_TOL, (table.name, worst)
    return worst


def test_criterion_1_single_site_table():
    with criterion(1, "single-site eigenvalue table (18 values, +-1.5e-3, < 1 s)"):
        t0 = time.perf_counter()
        table = table_by_name("f1 nu=0")
        assert table.value_count == 18
        check_table(table)
        row = solve_spectrum(1, 3.0, 0.5).all_eigenvalues()
        assert np.allclose(row, [-7.101, -2.323, 0.424], atol=TABLE_TOL)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_three_site_tables():
    with criterion(2, "three-site tables + exact closed-form side-block energies"):
        check_table(table_by_name("f3 nu=0"))
        check_table(table_by_name("f3 nu=+-1"))
        row = solve_spectrum(3, 3.0, 0.4).block_for(0).eigenvalues
        assert np.allclose(row, [-5.645, -2.484, 0.353, 0.776], atol=TABLE_TOL)
        for lam, _ in table_by_name("f3 nu=+-1").rows:
            target = np.array(f3_dim3_energies(lam))
            result = solve_spectrum(3, 3.0, lam)
            for nu in (1, -1):
                dev = np.max(np.abs(result.block_for(nu).eigenvalues - target))
                assert dev < 1e-9, (lam, nu, dev)


def test_criterion_3_two_and_four_site_tables():
    with criterion(3, "two- and four-site tables + exact null eigenvector"):
        for name in ("f2 nu=0", "f2 nu=1", "f4 nu=0", "f4 nu=2", "f4 nu=+-1"):
            check_table(table_by_name(name))
        h_bh, h_drive = hamiltonian_pencil(4, 3.0, enumerate_basis(4, at_most(2)))
        for lam in (0.0, 0.25, 0.5):
            result = solve_spectrum(4, 3.0, lam)
            h = h_bh + lam * h_drive
            psi22 = result.block_for(2).vectors[:, 2]
            assert np.linalg.norm(h @ psi22) < 1e-9


def test_criterion_4_characteristic_polynomials():
    with criterion(4, "printed block polynomials over (gamma, lam) samples, rel 1e-8"):
        assert len(REFERENCE_CHAR_POLYS) == 8
        for ref in REFERENCE_CHAR_POLYS:
            for gamma in (1.0, 3.0, 7.0):
                for lam in (0.0, 0.3, 1.0):
                    blocks = {b.label.nu: b for b in solve_spectrum(ref.f, gamma, lam).blocks}
                    target = ref.coefficients(gamma, lam)
                    for nu in ref.nus:
                        computed = np.poly(blocks[nu].eigenvalues)
                        dev = np.max(np.abs(computed - target)
                                     / np.maximum(1.0, np.abs(target)))
                        assert dev < 1e-8, (ref.name, gamma, lam, float(dev))


def test_criterion_5_block_structure():
    with criterion(5, "block dimensions for f = 1..12"):
        for f in range(1, 13):
            dims = block_dimensions(f)
            total = (f + 1) * (f + 2) // 2
            assert sum(dims) == total
            if f % 2 == 1:
                assert dims.count((f + 5) // 2) >= 1
                assert sorted(dims)[:-1] == [(f + 3) // 2] * (f - 1)
            else:
                assert sum(1 for d in dims if d == (f + 2) // 2) >= f // 2
            built = solve_spectrum(f, 3.0, 0.3).blocks
            assert [b.dim for b in built] == dims
            for b in built:
                assert b.dim == expected_block_dimension(f, b.label.nu)


def test_criterion_6_oracle_equivalence():
    with criterion(6, "block spectra equal brute-force spectra (f<=7 grid, <10 s)"):
        t0 = time.perf_counter()
        for f in range(1, 8):
            for gamma in (1.0, 3.0):
                for lam in (0.0, 0.25, 0.5):
                    union = solve_spectrum(f, gamma, lam).all_eigenvalues()
                    full = brute_force_eigenvalues(f, gamma, lam)
                    assert np.max(np.abs(union - full)) < ORACLE_TOL, (f, gamma, lam)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_7_symmetry_suite():
    with criterion(7, "conserved quantities and invariant-subspace structure"):
        for f in range(1, 7):
            basis = enumerate_basis(f, at_most(2))
            n = build_number(f, basis)
            t = build_translation(f, basis)
            h_bh, h_drive = hamiltonian_pencil(f, 3.0, basis)
            assert np.max(np.abs(commutator(h_bh, n))) < EXACT_TOL
            for lam in (0.25, 0.5):
                h = h_bh + lam * h_drive
                assert np.max(np.abs(commutator(h, t))) < EXACT_TOL
                assert np.linalg.norm(commutator(h, n)) > 0.1 * lam
            wide = enumerate_basis(f, at_most(3))
            wide_bh, wide_drive = hamiltonian_pencil(f, 3.0, wide)
            h3 = wide_bh + 0.5 * wide_drive
            for m in (0, 1, 2):
                assert np.max(np.abs(sector_block(h3, wide, 3, m))) < EXACT_TOL


def test_criterion_8_soliton_band_and_degeneracy():
    with criterion(8, "band separation (per momentum) and +-nu degeneracy"):
        for f in (3, 5, 7):
            for lam in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
                band = soliton_band(solve_spectrum(f, 3.0, lam))
                # the band state lies strictly below the rest of its own block
                # at every momentum; the cross-block margin is also reported
                # (it is negative on the seven-site ring, where the band edge
                # near k = pi exceeds the continuum edge near k = 0)
                assert band.per_nu_margin > 0.0, (f, lam)
                print(f"    f={f} lam={lam:.1f}: per-momentum margin "
                      f"{band.per_nu_margin:+.4f}, cross-block margin "
                      f"{band.margin:+.4f}", flush=True)
        for f in (3, 5, 7):
            h_bh, h_drive = hamiltonian_pencil(f, 3.0, enumerate_basis(f, at_most(2)))
            for lam in (0.0, 0.25, 0.5):
                result = solve_spectrum(f, 3.0, lam)
                h = h_bh + lam * h_drive
                for bs in result.blocks:
                    if bs.label.nu <= 0:
                        continue
                    mirror = result.block_for(-bs.label.nu)
                    assert np.max(np.abs(bs.eigenvalues - mirror.eigenvalues)) < 1e-9
                    frame = mirror.vectors
                    for i, e in enumerate(bs.eigenvalues):
                        v = bs.eigenvectors[:, i].conj()
                        assert np.linalg.norm(h @ v - e * v) < 1e-8
                        assert np.linalg.norm(frame @ (frame.conj().T @ v) - v) < 1e-8


def test_criterion_9_algebra_suite():
    with criterion(9, "sl(2)/sl(f)/osp structure checks at residual 1e-10"):
        checks = algebra_suite(Rings())
        bad = [c for c in checks if not c.passed]
        assert not bad, bad
        names = " ".join(c.name for c in checks)
        assert "Casimir" in names
        assert "generator count" in names
        assert "commutes with H_BH on V_1" in names
        assert "even generator count" in names


def test_criterion_10_eigenstate_formulas():
    with criterion(10, "closed-form eigenstates (residual 1e-8; ambiguous "
                       "readings resolved and reported)"):
        resolved = {}
        for gamma in (1.0, 3.0, 7.0):
            for lam in (0.1, 0.25, 0.5):
                for f in (1, 2, 3, 4):
                    checks = verify_eigenvector_formulas(solve_spectrum(f, gamma, lam))
                    for c in checks:
                        if c.status == "fail":
                            raise AssertionError((c.name, c.params, c.residual))
                        if c.name.startswith("reading group"):
                            assert c.status == "pass", (c.name, c.params)
                        if c.status == "pass" and "[" in c.name:
                            resolved.setdefault(c.name, 0)
                            resolved[c.name] += 1
            checks = verify_eigenvector_formulas(solve_spectrum(2, gamma, 0.0))
            assert all(c.passed for c in checks)
        # exactly one reading of each ambiguous printed formula matches
        assert set(resolved) == {
            "f2 nu=0 state [c3 const=-32lam^2, c4 gamma-term inside]",
            "f4 nu=0 state [pair coefficient sign-flipped]",
        }
        for name in sorted(resolved):
            print(f"    resolved reading: {name}", flush=True)
