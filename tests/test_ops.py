import ast
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from qeslattice import ops
from qeslattice.fock import at_most, enumerate_basis, exactly
from qeslattice.ops import (annihilation, build_number, build_translation, commutator,
                            creation, hamiltonian_pencil, sector_block)
from qeslattice.spectra import hermiticity_defect

SQRT2 = math.sqrt(2)


def unit(basis, occ):
    v = np.zeros(basis.size, dtype=complex)
    v[basis.index[occ]] = 1.0
    return v


def brute_force_ladder(basis, site, kind):
    """Oracle ladder matrix, built directly from the amplitude rule."""
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for col, s in enumerate(basis.states):
        occ = list(s)
        if kind == "lower":
            if occ[site] == 0:
                continue
            amp = math.sqrt(occ[site])
            occ[site] -= 1
        else:
            amp = math.sqrt(occ[site] + 1)
            occ[site] += 1
        row = basis.index.get(tuple(occ))
        if row is not None:
            out[row, col] = amp
    return out


# ---------------------------------------------------------------- ladders

def test_annihilation_two_site_examples():
    basis = enumerate_basis(2, at_most(2))
    a1 = annihilation(2, 1, basis)
    assert a1.shape == (basis.size, basis.size)
    assert np.allclose(a1 @ unit(basis, (2, 0)), SQRT2 * unit(basis, (1, 0)))
    assert np.allclose(a1 @ unit(basis, (1, 1)), unit(basis, (0, 1)))


def test_annihilation_kills_empty_site():
    basis = enumerate_basis(2, at_most(1))
    a1 = annihilation(2, 1, basis)
    assert np.allclose(a1 @ unit(basis, (0, 1)), 0.0)


def test_creation_examples():
    basis = enumerate_basis(2, at_most(2))
    ad1 = creation(2, 1, basis)
    assert np.allclose(ad1 @ unit(basis, (0, 0)), unit(basis, (1, 0)))
    assert np.allclose(ad1 @ unit(basis, (1, 0)), SQRT2 * unit(basis, (2, 0)))
    assert np.allclose(ad1 @ unit(basis, (2, 0)), 0.0)  # truncated at the top sector


@pytest.mark.parametrize("sectors", [exactly(1), exactly(2), range(0, 3, 2)])
def test_ladders_reject_a_basis_that_is_not_at_most(sectors):
    basis = enumerate_basis(2, sectors)
    for ladder in (annihilation, creation):
        with pytest.raises(ValueError):
            ladder(2, 1, basis)


def test_periodic_site_index():
    basis = enumerate_basis(3, at_most(2))
    assert np.allclose(creation(3, 4, basis), creation(3, 1, basis))
    assert np.allclose(annihilation(3, 4, basis), annihilation(3, 1, basis))


@pytest.mark.parametrize("j", [0, -1, 6])
def test_site_index_out_of_range(j):
    basis = enumerate_basis(4, at_most(2))
    with pytest.raises(ValueError):
        annihilation(4, j, basis)


@pytest.mark.parametrize("f", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_creation_is_adjoint_of_annihilation_between_sectors(f, n):
    # both are real, so the adjoint is the transpose, entry for entry; the
    # raising operator is the transposed view of a lowering operator
    basis = enumerate_basis(f, at_most(n))
    for j in range(1, f + 1):
        ad = creation(f, j, basis)
        assert np.array_equal(ad, annihilation(f, j, basis).T)
        assert ad.base is not None and np.array_equal(ad.base, annihilation(f, j, basis))


@pytest.mark.parametrize("f", range(1, 7))
def test_oracle_operators_are_real(f):
    basis = enumerate_basis(f, at_most(2))
    operators = [annihilation(f, j, basis) for j in range(1, f + 1)]
    operators += [creation(f, j, basis) for j in range(1, f + 1)]
    operators += [build_number(f, basis), build_translation(f, basis)]
    operators += hamiltonian_pencil(f, 3.0, basis)
    assert all(op.dtype == np.float64 for op in operators)


@pytest.mark.parametrize("f", range(1, 6))
def test_pencil_sums_each_term_in_order(f):
    # one np.add.at over the term lists gives, bit for bit, the sums of a
    # += per term in the order the terms come
    basis = enumerate_basis(f, at_most(3))
    for matrix, terms in zip(hamiltonian_pencil(f, 2.2, basis),
                             (partial(ops._terms, f, 2.2), partial(ops._drive, f, 1.0))):
        expected = np.zeros((basis.size, basis.size))
        for col, state in enumerate(basis.states):
            for image, amp in terms(state):
                if image in basis.index:
                    expected[basis.index[image], col] += amp
        assert matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_ladders_match_brute_force(f):
    basis = enumerate_basis(f, at_most(3))
    for j in range(f):
        assert np.allclose(annihilation(f, j + 1, basis),
                           brute_force_ladder(basis, j, "lower"))
        assert np.allclose(creation(f, j + 1, basis),
                           brute_force_ladder(basis, j, "raise"))


# ---------------------------------------------------------------- H_BH

def h_bh_on_sector(f, gamma, n):
    """``H_BH`` on the ``n``-quanta sector, cut from the pencil's ``h_bh``."""
    basis = enumerate_basis(f, at_most(max(n, 2)))
    return sector_block(hamiltonian_pencil(f, gamma, basis)[0], basis, n, n)


def test_h_bh_single_site_two_quanta():
    h = h_bh_on_sector(1, 3.0, 2)
    assert np.allclose(h, [[-7.0]])  # -2*2 hopping - gamma


def test_h_bh_two_site_two_quanta_eigenvalues():
    gamma = 3.0
    h = h_bh_on_sector(2, gamma, 2)
    expected = sorted([-gamma,
                       -gamma / 2 - 0.5 * math.sqrt(gamma ** 2 + 64),
                       -gamma / 2 + 0.5 * math.sqrt(gamma ** 2 + 64)])
    assert np.allclose(np.linalg.eigvalsh(h), sorted(expected), atol=1e-12)


def test_h_bh_two_site_one_quantum_eigenpairs():
    v1 = enumerate_basis(2, exactly(1))
    h = h_bh_on_sector(2, 5.0, 1)
    w, v = np.linalg.eigh(h)
    assert np.allclose(w, [-2.0, 2.0])
    sym = (unit(v1, (1, 0)) + unit(v1, (0, 1))) / SQRT2
    asym = (unit(v1, (1, 0)) - unit(v1, (0, 1))) / SQRT2
    assert np.allclose(h @ sym, -2.0 * sym)
    assert np.allclose(h @ asym, 2.0 * asym)


@pytest.mark.parametrize("f", range(1, 7))
def test_h_bh_is_hermitian_and_sector_diagonal(f):
    basis = enumerate_basis(f, at_most(3))
    h, _ = hamiltonian_pencil(f, 2.2, basis)
    assert hermiticity_defect(h) < 1e-12
    for m in range(4):
        for n in range(4):
            if m != n:
                assert np.max(np.abs(sector_block(h, basis, m, n))) == 0.0


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_h_bh_matches_brute_force_operator(f):
    # oracle: -sum_j [adag_j a_{j+1} + adag_j a_{j-1} + (gamma/2) adag_j adag_j a_j a_j]
    # assembled from independently built ladder matrices; every product
    # lowers before it raises, so at_most(3) truncates none of it
    basis = enumerate_basis(f, at_most(3))
    gamma = 2.2
    a = [brute_force_ladder(basis, j, "lower") for j in range(f)]
    ad = [brute_force_ladder(basis, j, "raise") for j in range(f)]
    expected = np.zeros((basis.size, basis.size), dtype=complex)
    for j in range(f):
        expected -= ad[j] @ a[(j + 1) % f] + ad[j] @ a[(j - 1) % f]
        expected -= 0.5 * gamma * ad[j] @ ad[j] @ a[j] @ a[j]
    assert np.allclose(hamiltonian_pencil(f, gamma, basis)[0], expected, atol=1e-14)


# ---------------------------------------------------------------- H_lam

def test_h_lambda_single_site_matrix_element():
    basis = enumerate_basis(1, at_most(2))
    _, h_drive = hamiltonian_pencil(1, 3.0, basis)
    # <0| H_lam |1> = lam * <0|(N-2)a|1> = -2 lam, here at lam = 1
    assert h_drive[basis.index[(0,)], basis.index[(1,)]] == -2.0


def test_h_lambda_zero_coupling_is_zero():
    # the pencil at lam = 0 is H_BH to the bit, signed zeros included
    basis = enumerate_basis(3, at_most(2))
    h_bh, h_drive = hamiltonian_pencil(3, 3.0, basis)
    assert (h_bh + 0.0 * h_drive).tobytes() == h_bh.tobytes()
    assert (h_bh - 0.0 * h_drive).tobytes() == h_bh.tobytes()


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_h_lambda_matches_brute_force_operator(f):
    # oracle: lam * sum_j [adag_j (N - 2) + (N - 2) a_j] assembled from
    # independently built ladder matrices
    basis = enumerate_basis(f, at_most(2))
    lam = 0.31
    number = np.diag([complex(sum(s)) for s in basis.states])
    shift = number - 2 * np.eye(basis.size)
    expected = np.zeros((basis.size, basis.size), dtype=complex)
    for j in range(f):
        a = brute_force_ladder(basis, j, "lower")
        ad = brute_force_ladder(basis, j, "raise")
        expected += lam * (ad @ shift + shift @ a)
    assert np.allclose(lam * hamiltonian_pencil(f, 3.0, basis)[1], expected, atol=1e-14)


def test_h_lambda_requires_mixing_basis():
    # the pencil is built on at_most(n >= 2) only
    for sectors in (exactly(0), exactly(2), exactly(3), range(1, 3), range(0, 3, 2),
                    at_most(0), at_most(1)):
        with pytest.raises(ValueError, match="at_most"):
            hamiltonian_pencil(2, 3.0, enumerate_basis(2, sectors))
    for n_max in (2, 3):
        h_bh, h_drive = hamiltonian_pencil(2, 3.0, enumerate_basis(2, at_most(n_max)))
        assert h_bh.shape == h_drive.shape and h_drive.dtype == np.float64


@pytest.mark.parametrize("f", range(1, 7))
def test_h_lambda_couples_only_adjacent_low_sectors(f):
    basis = enumerate_basis(f, at_most(3))
    h = 0.4 * hamiltonian_pencil(f, 3.0, basis)[1]
    assert hermiticity_defect(h) < 1e-12
    # no coupling between the invariant subspace and three quanta
    assert np.max(np.abs(sector_block(h, basis, 3, 2))) == 0.0
    assert np.max(np.abs(sector_block(h, basis, 2, 3))) == 0.0
    # nonzero mixing inside it
    assert np.max(np.abs(sector_block(h, basis, 1, 2))) > 0.0
    assert np.max(np.abs(sector_block(h, basis, 0, 1))) > 0.0


# ---------------------------------------------------------------- N and T

def test_number_operator_examples():
    b2 = enumerate_basis(2, at_most(2))
    n2 = build_number(2, b2)
    assert np.isclose(n2[b2.index[(1, 1)], b2.index[(1, 1)]], 2.0)
    b3 = enumerate_basis(3, at_most(2))
    assert np.isclose(build_number(3, b3)[0, 0], 0.0)
    b4 = enumerate_basis(4, at_most(2))
    i = b4.index[(1, 0, 1, 0)]
    assert np.isclose(build_number(4, b4)[i, i], 2.0)


def test_translation_is_cyclic_permutation():
    v1 = enumerate_basis(3, exactly(1))
    t = build_translation(3, v1)
    assert np.allclose(t @ unit(v1, (1, 0, 0)), unit(v1, (0, 1, 0)))


def test_translation_single_site_is_identity():
    basis = enumerate_basis(1, at_most(2))
    assert np.allclose(build_translation(1, basis), np.eye(basis.size))


@pytest.mark.parametrize("f", range(1, 7))
def test_translation_unitary_and_order_f(f):
    basis = enumerate_basis(f, at_most(2))
    t = build_translation(f, basis)
    assert np.allclose(t @ t.conj().T, np.eye(basis.size))
    power = np.eye(basis.size)
    for _ in range(f):
        power = t @ power
    assert np.allclose(power, np.eye(basis.size))


# ------------------------------------------------- commutators, symmetry

def test_commutator_basis_mismatch():
    a = build_number(2, enumerate_basis(2, at_most(2)))
    b = build_number(3, enumerate_basis(3, at_most(2)))
    with pytest.raises(ValueError):
        commutator(a, b)


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_canonical_commutation_on_padded_interior(f):
    basis = enumerate_basis(f, at_most(4))  # two quanta of headroom above n = 2
    stop = basis.sector_indices(2).stop
    for i in range(1, f + 1):
        for j in range(1, f + 1):
            ai = annihilation(f, i, basis)
            adj = creation(f, j, basis)
            aj = annihilation(f, j, basis)
            ccr = commutator(ai, adj)[:stop, :stop]
            target = np.eye(stop) if i == j else np.zeros((stop, stop))
            assert np.max(np.abs(ccr - target)) < 1e-12
            assert np.max(np.abs(commutator(ai, aj)[:stop, :stop])) < 1e-12


def test_anticommutator_single_site_number_identity():
    basis = enumerate_basis(1, at_most(3))  # two quanta of headroom above n = 1
    stop = basis.sector_indices(1).stop
    a = annihilation(1, 1, basis)
    ad = creation(1, 1, basis)
    n = build_number(1, basis)
    lhs = (a @ ad + ad @ a)[:stop, :stop]
    rhs = (2 * n + np.eye(basis.size))[:stop, :stop]
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("f", range(1, 7))
@pytest.mark.parametrize("lam", [0.25, 0.5])
def test_symmetry_suite(f, lam):
    gamma = 3.0
    basis = enumerate_basis(f, at_most(2))
    h_bh, h_drive = hamiltonian_pencil(f, gamma, basis)
    h = h_bh + lam * h_drive
    n = build_number(f, basis)
    t = build_translation(f, basis)
    assert np.max(np.abs(commutator(h_bh, n))) < 1e-12
    assert np.max(np.abs(commutator(h_bh, t))) < 1e-12
    assert np.max(np.abs(commutator(h, t))) < 1e-12
    assert np.linalg.norm(commutator(h, n)) > 0.1 * lam


@pytest.mark.parametrize("f", range(1, 7))
def test_invariant_subspace_has_no_three_quanta_leakage(f):
    wide = enumerate_basis(f, at_most(3))
    h_bh, h_drive = hamiltonian_pencil(f, 3.0, wide)
    h = h_bh + 0.5 * h_drive
    for n in (0, 1, 2):
        assert np.max(np.abs(sector_block(h, wide, 3, n))) < 1e-12


def test_sector_block_matches_sector_basis():
    # the block is found by sector, not by position: the same on every basis
    # that holds the sector, in the order of the sector basis itself
    basis, wide = enumerate_basis(2, at_most(2)), enumerate_basis(2, at_most(4))
    h = sector_block(hamiltonian_pencil(2, 3.0, basis)[0], basis, 2, 2)
    assert h.tobytes() == sector_block(hamiltonian_pencil(2, 3.0, wide)[0], wide, 2, 2).tobytes()
    two = enumerate_basis(2, exactly(2))
    assert [basis.states[i] for i in basis.sector_indices(2)] == list(two.states)
    # (2,0), (1,1), (0,2): on-site -gamma, each hop counted twice on two sites
    hop = -2.0 * SQRT2
    assert np.allclose(h, [[-3.0, hop, 0.0], [hop, 0.0, hop], [0.0, hop, -3.0]])


def test_sector_block_rejects_foreign_basis():
    h, _ = hamiltonian_pencil(2, 3.0, enumerate_basis(2, at_most(2)))
    with pytest.raises(ValueError):
        sector_block(h, enumerate_basis(2, at_most(3)), 2, 2)


def test_hermiticity_defect_rejects_non_square():
    with pytest.raises(ValueError):
        hermiticity_defect(annihilation(2, 1, enumerate_basis(2, at_most(2)))[:, 1:])


PRODUCTION_NAMES = {"pencil_stacks", "PencilStack", "_stack", "block_frame", "sweep",
                    "solve_spectra"}


def test_ops_is_independent_of_the_production_construction():
    # the oracles re-derive the blocks on the occupation basis; none may
    # name, import or look up the closed-form construction they check
    tree = ast.parse(Path(ops.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    assert not found & PRODUCTION_NAMES, sorted(found & PRODUCTION_NAMES)
