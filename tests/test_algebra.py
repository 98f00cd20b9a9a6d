import numpy as np
import pytest

from qeslattice.algebra import (HEADROOM, _ladders, _restrict, _sector_products,
                                _span_coefficients, verify_canonical_relations,
                                verify_grading_closure, verify_osp_structure, verify_sl2,
                                verify_sl3_diagonal, verify_translation_f3)
from qeslattice.fock import at_most, enumerate_basis
from qeslattice.ops import annihilation, creation, hamiltonian_pencil


def all_pass(checks):
    bad = [c for c in checks if not c.passed]
    assert not bad, bad
    return checks


def find(checks, fragment, **params):
    out = [c for c in checks if fragment in c.name
           and all(c.params.get(k) == v for k, v in params.items())]
    assert out, (fragment, params)
    return out


# ---------------------------------------------------------------- sl(2)

def test_sl2_relations_and_casimir():
    checks = all_pass(verify_sl2())
    for n, scalar in [(0, 0.0), (2, 2.0), (3, 3.75)]:
        c = find(checks, "Casimir", n=n)[0]
        assert c.params["scalar"] == pytest.approx(scalar)


def test_casimir_scalar_directly():
    # C = J+ J- + J0^2/4 - J0/2 acts as n(n+2)/4 on the n-quanta sector
    basis = enumerate_basis(2, at_most(6))
    a = [annihilation(2, j, basis) for j in (1, 2)]
    ad = [creation(2, j, basis) for j in (1, 2)]
    j0 = ad[1] @ a[1] - ad[0] @ a[0]
    c = ad[1] @ a[0] @ ad[0] @ a[1] + 0.25 * j0 @ j0 - 0.5 * j0
    for n in range(5):
        idx = basis.sector_indices(n)
        block = c[idx.start:idx.stop, idx.start:idx.stop]
        assert np.max(np.abs(block - 0.25 * n * (n + 2) * np.eye(len(idx)))) < 1e-12


# ---------------------------------------------------------------- sl(f)

@pytest.mark.parametrize("f", [2, 3, 4])
def test_grading_closure(f):
    checks = all_pass(verify_grading_closure(f, n=2))
    count = find(checks, "generator count")[0]
    assert count.params["count"] == f * f - 1


def test_grading_closure_five_sites():
    checks = all_pass(verify_grading_closure(5, n=1))
    assert find(checks, "generator count")[0].params["count"] == 24


def test_grading_closure_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify_grading_closure(6, n=1)


def test_ladder_bilinear_commutator_example():
    # [a2+ a1, a1+ a2] = n2 - n1 on any sector
    basis = enumerate_basis(2, at_most(4))
    a = [annihilation(2, j, basis) for j in (1, 2)]
    ad = [creation(2, j, basis) for j in (1, 2)]
    jp, jm = ad[1] @ a[0], ad[0] @ a[1]
    j0 = ad[1] @ a[1] - ad[0] @ a[0]
    idx = basis.sector_indices(2)
    sl = slice(idx.start, idx.stop)
    assert np.max(np.abs((jp @ jm - jm @ jp)[sl, sl] - j0[sl, sl])) < 1e-12


def test_grading_two_commutator_is_long_range_hop():
    # [a2+ a1, a3+ a2] has grading 2 and is proportional to a3+ a1
    basis = enumerate_basis(3, at_most(4))
    a = [annihilation(3, j, basis) for j in (1, 2, 3)]
    ad = [creation(3, j, basis) for j in (1, 2, 3)]
    comm = (ad[1] @ a[0]) @ (ad[2] @ a[1]) - (ad[2] @ a[1]) @ (ad[1] @ a[0])
    idx = basis.sector_indices(2)
    sl = slice(idx.start, idx.stop)
    assert np.max(np.abs(comm[sl, sl] + (ad[2] @ a[0])[sl, sl])) < 1e-12


# ---------------------------------------------------------------- sl(3)

@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_sl3_diagonal_pair(n):
    checks = all_pass(verify_sl3_diagonal(n))
    dim = find(checks, "dim V_n")[0]
    assert dim.params["n"] == n


def test_hypercharge_eigenvalue_example():
    basis = enumerate_basis(3, at_most(3))
    a = [annihilation(3, j, basis) for j in (1, 2, 3)]
    ad = [creation(3, j, basis) for j in (1, 2, 3)]
    y = (2 * ad[2] @ a[2] - ad[0] @ a[0] - ad[1] @ a[1]) / 3.0
    i = basis.index[(0, 0, 1)]
    assert np.isclose(y[i, i].real, 2.0 / 3.0)


def test_sl3_sector_dimension_example():
    assert len(enumerate_basis(3, at_most(2)).sector_indices(2)) == 6


# ------------------------------------------------------- translation f=3

def test_translation_bilinear_report():
    h_bh, _ = hamiltonian_pencil(3, 3.0, enumerate_basis(3, at_most(1 + HEADROOM)))
    checks = verify_translation_f3(h_bh)
    all_pass(checks)
    comparison = find(checks, "bilinear vs cyclic translation")[0]
    assert comparison.params["equal"] is False  # transposition, not 3-cycle
    assert find(checks, "commutes with H_BH")[0].status == "pass"
    assert find(checks, "squared = identity")[0].status == "pass"
    assert find(checks, "maps |100> to |001>")[0].status == "pass"


# ---------------------------------------------------------------- osp

@pytest.mark.parametrize("f,even,odd,dim", [(1, 3, 2, 3), (2, 10, 4, 6),
                                            (3, 21, 6, 10), (4, 36, 8, 15)])
def test_osp_structure_counts(f, even, odd, dim):
    checks = all_pass(verify_osp_structure(f))
    assert find(checks, "even generator count")[0].params["count"] == even
    assert find(checks, "odd generator count")[0].params["count"] == odd
    assert find(checks, "invariant subspace dimension")[0].params["dim"] == dim


def test_osp_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify_osp_structure(5)


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_canonical_relations(f):
    all_pass(verify_canonical_relations(f))


@pytest.mark.parametrize("f", [1, 3, 6])
def test_ladders_are_real_and_share_one_array_per_site(f):
    a, ad, basis = _ladders(f, 4)
    for j in range(f):
        assert a[j].dtype == np.float64 and ad[j].base is a[j]
        assert np.array_equal(ad[j], creation(f, j + 1, basis))


# ------------------------------------------- span solve and sector products

def lstsq_reference(target, generators):
    """Per-target least squares: coefficients and distance to the span."""
    cols = np.column_stack([g.ravel() for g in generators])
    coeff, *_ = np.linalg.lstsq(cols, target.ravel(), rcond=None)
    return coeff, float(np.linalg.norm(cols @ coeff - target.ravel()))


def grading_problem(f, n):
    """Every bracket of the sl(f) family on the n-quanta sector, from full
    products restricted afterwards, and the span it must close in."""
    a, ad, basis = _ladders(f, n + 2)
    idx = basis.sector_indices(n)
    mats = [ad[j] @ a[k] for j in range(f) for k in range(f) if j != k]
    mats += [ad[j] @ a[j] - ad[j - 1] @ a[j - 1] for j in range(1, f)]
    targets = [_restrict(x @ y - y @ x, idx)
               for i, x in enumerate(mats) for y in mats[i + 1:]]
    return np.array(targets), [_restrict(m, idx) for m in mats] + [np.eye(len(idx))]


def osp_problems(f):
    """The odd x odd anticommutators with the even span + identity, and the
    even x odd commutators with the odd span, on the 0+1+2-quanta subspace."""
    a, ad, basis = _ladders(f, 4)
    interior = range(basis.sector_indices(2).stop)
    odd = a + ad
    even = [ad[j] @ a[k] for j in range(f) for k in range(f)]
    even += [x[j] @ x[k] for x in (ad, a) for j in range(f) for k in range(j, f)]
    anti = [_restrict(x @ y + y @ x, interior)
            for i, x in enumerate(odd) for y in odd[i:]]
    comms = [_restrict(e @ o - o @ e, interior) for e in even for o in odd]
    cut = lambda ms: [_restrict(m, interior) for m in ms]
    return ((np.array(anti), cut(even) + [np.eye(len(interior))]),
            (np.array(comms), cut(odd)))


def assert_matches_reference(targets, span, coeff_tol=None):
    coeffs, dists = _span_coefficients(targets, span)
    assert coeffs.shape == (len(targets), len(span)) and dists.shape == (len(targets),)
    for target, coeff, dist in zip(targets, coeffs, dists):
        ref_coeff, ref_dist = lstsq_reference(target, span)
        assert abs(dist - ref_dist) < 1e-13
        if coeff_tol is not None:
            assert np.max(np.abs(coeff - ref_coeff)) < coeff_tol
    return dists


@pytest.mark.parametrize("f,n", [(2, 2), (3, 2), (4, 2), (5, 1)])
def test_grading_span_solve_matches_per_target_lstsq(f, n):
    targets, span = grading_problem(f, n)
    dists = assert_matches_reference(targets, span, coeff_tol=1e-10)
    record = find(verify_grading_closure(f, n), "bracket closure")[0]
    assert abs(record.residual - dists.max()) < 1e-13


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_osp_span_solve_matches_per_target_lstsq(f):
    (anti, even_span), (comms, odd_span) = osp_problems(f)
    anti_dists = assert_matches_reference(anti, even_span)
    comm_dists = assert_matches_reference(comms, odd_span)
    checks = verify_osp_structure(f)
    assert abs(find(checks, "odd x odd")[0].residual - anti_dists.max()) < 1e-13
    assert abs(find(checks, "even x odd")[0].residual - comm_dists.max()) < 1e-13


@pytest.mark.parametrize("f", [1, 4])
def test_span_solve_sees_a_defect_outside_the_odd_span(f):
    # E_00 (the vacuum projector) has no overlap with any ladder operator
    _, (comms, odd_span) = osp_problems(f)
    e00 = np.zeros_like(comms[0])
    e00[0, 0] = 1.0
    for hit in (0, len(comms) // 2, len(comms) - 1):
        mutated = comms.copy()
        mutated[hit] += 1e-6 * e00
        dists = _span_coefficients(mutated, odd_span)[1]
        assert abs(dists[hit] - 1e-6) < 1e-9
        assert np.max(np.delete(dists, hit)) < 1e-13
        assert abs(lstsq_reference(mutated[hit], odd_span)[1] - 1e-6) < 1e-9


@pytest.mark.parametrize("f", [2, 3])
def test_sector_products_equal_restricted_full_products(f):
    basis = enumerate_basis(f, at_most(4))
    rng = np.random.default_rng(f)
    shape = (basis.size, basis.size)
    xs = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2)]
    ys = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(3)]
    for n in range(5):
        idx = basis.sector_indices(n)
        products = _sector_products(xs, ys, idx)
        assert products.shape == (2, 3, len(idx), len(idx))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert np.max(np.abs(products[i, j] - _restrict(x @ y, idx))) < 1e-13
