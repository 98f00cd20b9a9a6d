import numpy as np
import pytest

from qeslattice.algebra import (verify_canonical_relations, verify_grading_closure,
                                verify_osp_structure, verify_sl2, verify_sl3_diagonal,
                                verify_translation_f3)
from qeslattice.fock import at_most, enumerate_basis
from qeslattice.ops import annihilation, creation


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
    checks = all_pass(verify_sl2(n_values=(0, 1, 2, 3, 4)))
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
    checks = verify_translation_f3()
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
