import cmath
import math
import tracemalloc

import numpy as np
import pytest

from qeslattice.fock import at_most, enumerate_basis, exactly
from qeslattice import momentum
from qeslattice.momentum import (GRAM_TOL, MomentumLabel, block_dimensions, expected_block_dimension,
                                 momentum_values, pencil_stacks, project_block, to_orbit_frame,
                                 two_quanta_seed_count)
from qeslattice.ops import (apply_hamiltonian, build_momentum_vectors, build_translation,
                            hamiltonian_pencil, orbit_block_pencil, two_quanta_seed)
from qeslattice.spectra import MAX_SITES, hermiticity_defect, solve_spectrum
from qeslattice.suites import Rings, momentum_suite

from oracles import pencil_parts

SQRT2 = math.sqrt(2)


def labels_of(f):
    return [l.nu for l in momentum_values(f)]


def block_map(f, gamma, lam):
    return {b.label.nu: b for b in solve_spectrum(f, gamma, lam).blocks}


def pencil_rows(f, gamma):
    """``(label, quanta, b_bh, b_drive, phases)`` of every block, ``nu``
    descending: each row of :func:`pencil_stacks` and its mirror ``-nu``."""
    rows = [(label, s.quanta, b_bh[i], b_drive[i], phases)
            for s in pencil_stacks(f, gamma) for b_bh, b_drive in [pencil_parts(s)]
            for i in range(len(s.labels)) for label, phases in s.blocks_of(i)]
    return sorted(rows, key=lambda row: -row[0].nu)


def two_quanta_block(f, gamma, nu):
    """The two-quanta part of ``B_BH`` at ``nu``, as the builder writes it,
    in the orbit frame."""
    _, quanta, b_bh, _, phases = next(row for row in pencil_rows(f, gamma) if row[0].nu == nu)
    b_bh = to_orbit_frame(b_bh, phases)
    return b_bh[quanta == 2][:, quanta == 2]


# ------------------------------------------------------------- labels

def test_momentum_values_examples():
    assert labels_of(3) == [1, 0, -1]
    assert labels_of(4) == [2, 1, 0, -1]
    assert labels_of(1) == [0]


@pytest.mark.parametrize("f", range(1, 13))
def test_momentum_values_count_and_range(f):
    nus = labels_of(f)
    assert len(nus) == f
    assert nus == sorted(nus, reverse=True)
    if f % 2 == 1:
        assert max(nus) == (f - 1) // 2 and min(nus) == -(f - 1) // 2
    else:
        assert max(nus) == f // 2 and min(nus) == -f // 2 + 1


def test_rejects_foreign_label():
    with pytest.raises(ValueError):
        build_momentum_vectors(4, MomentumLabel(f=4, nu=-2))


def test_rejects_a_basis_of_another_ring_or_without_every_sector():
    label = MomentumLabel(f=4, nu=1)
    with pytest.raises(ValueError, match="site count does not match the basis"):
        build_momentum_vectors(4, label, enumerate_basis(3, at_most(2)))
    with pytest.raises(ValueError, match=r"needs an at_most\(n >= 2\) basis"):
        build_momentum_vectors(4, label, enumerate_basis(4, exactly(2)))


# ------------------------------------------------------------- vectors

def test_two_site_antiperiodic_block_drops_pair_vector():
    vecs = build_momentum_vectors(2, MomentumLabel(f=2, nu=1))
    assert vecs.shape == (6, 2)  # psi_1(pi), psi_21(pi); the (1,1) orbit sums to zero


def test_three_site_zero_momentum_block_has_dimension_four():
    vecs = build_momentum_vectors(3, MomentumLabel(f=3, nu=0))
    assert vecs.shape == (10, 4)  # vacuum, psi_1, psi_21, psi_22


def test_four_site_block_dimensions():
    assert build_momentum_vectors(4, MomentumLabel(4, 1)).shape[1] == 3
    assert build_momentum_vectors(4, MomentumLabel(4, -1)).shape[1] == 3
    assert build_momentum_vectors(4, MomentumLabel(4, 2)).shape[1] == 4
    assert build_momentum_vectors(4, MomentumLabel(4, 0)).shape[1] == 5


def test_vacuum_appears_only_at_zero_momentum():
    basis = enumerate_basis(3, at_most(2))
    for label in momentum_values(3):
        vecs = build_momentum_vectors(3, label, basis)
        weights = np.abs(vecs[0])  # each vector's amplitude on the vacuum
        if label.nu == 0:
            assert np.isclose(weights[0], 1.0)
        else:
            assert np.max(weights) < 1e-12


@pytest.mark.parametrize("f", range(1, 9))
def test_vectors_are_unit_translation_eigenvectors(f):
    basis = enumerate_basis(f, at_most(2))
    t = build_translation(f, basis)
    for label in momentum_values(f):
        vecs = build_momentum_vectors(f, label, basis)
        eig = label.translation_eigenvalue
        assert abs(abs(eig) - 1.0) < 1e-14
        assert not vecs.flags.writeable
        for v in vecs.T:
            assert np.isclose(np.linalg.norm(v), 1.0)
            assert np.max(np.abs(t @ v - eig * v)) < 1e-12


def test_momentum_vector_phases_follow_the_orbit_sum():
    # psi_1(k) carries e^{ik(j-1)} on the j-th translate of (1, 0, 0)
    f = 3
    basis = enumerate_basis(f, at_most(2))
    label = MomentumLabel(f=f, nu=1)
    psi1 = build_momentum_vectors(f, label, basis)[:, 0]
    w = cmath.exp(1j * label.k)
    expected = np.zeros(basis.size, dtype=complex)
    expected[basis.index[(1, 0, 0)]] = 1 / math.sqrt(3)
    expected[basis.index[(0, 1, 0)]] = w / math.sqrt(3)
    expected[basis.index[(0, 0, 1)]] = w * w / math.sqrt(3)
    assert np.max(np.abs(psi1 - expected)) < 1e-14


# ------------------------------------------------------------- blocks

def test_single_site_block_matrix():
    gamma, lam = 3.0, 0.5
    block = block_map(1, gamma, lam)[0]
    expected = np.array([
        [0.0, -2 * lam, 0.0],
        [-2 * lam, -2.0, -SQRT2 * lam],
        [0.0, -SQRT2 * lam, -gamma - 4.0],
    ])
    assert np.max(np.abs(block.hmatrix - expected)) < 1e-12


def test_project_block_rejects_non_orthonormal_vectors():
    f = 2
    basis = enumerate_basis(f, at_most(2))
    h_bh, h_drive = hamiltonian_pencil(f, 3.0, basis)
    h = h_bh + 0.2 * h_drive
    label = momentum_values(f)[1]
    vecs = build_momentum_vectors(f, label, basis).copy()
    vecs[:, 0] += vecs[:, 1]  # breaks orthonormality
    with pytest.raises(ValueError):
        project_block(h, vecs)


# a 4 x 2 frame: V[rows[i], cols[i]] = amps[i], projected from a diagonal h
H4 = np.diag([1.0, 2.0, 3.0, 4.0])


def _frame(rows, cols, amps):
    v = np.zeros((4, 2), dtype=complex)
    v[rows, cols] = amps
    return v


def test_project_block_accepts_an_orthonormal_frame():
    s = 1 / SQRT2
    v = _frame([0, 3, 1], [0, 0, 1], [s, 1j * s, -1.0])
    assert np.max(np.abs(project_block(H4, v) - np.diag([2.5, 2.0]))) < 1e-15


def test_project_block_rejects_columns_that_share_a_row():
    s = 1 / SQRT2
    v = _frame([0, 3, 3], [0, 0, 1], [s, s, 1.0])  # unit columns, but they overlap on row 3
    with pytest.raises(ValueError, match="not orthonormal"):
        project_block(H4, v)


@pytest.mark.parametrize("excess", [3 * GRAM_TOL, -3 * GRAM_TOL])
def test_project_block_rejects_a_column_norm_off_by_more_than_the_tolerance(excess):
    v = _frame([0, 1], [0, 1], [1.0, math.sqrt(1.0 + excess)])
    with pytest.raises(ValueError, match="not orthonormal"):
        project_block(H4, v)


@pytest.mark.parametrize("excess", [GRAM_TOL / 3, -GRAM_TOL / 3])
def test_project_block_accepts_a_column_norm_within_the_tolerance(excess):
    v = _frame([0, 1], [0, 1], [1.0, math.sqrt(1.0 + excess)])
    assert np.max(np.abs(project_block(H4, v) - np.diag([1.0, 2.0 * (1.0 + excess)]))) < 1e-15


def test_project_block_rejects_an_empty_column():
    v = _frame([0], [0], [1.0])
    with pytest.raises(ValueError, match="not orthonormal"):
        project_block(H4, v)


@pytest.mark.parametrize("f", range(1, 9))
def test_one_quantum_diagonal_is_minus_two_cos_k(f):
    blocks = solve_spectrum(f, 3.0, 0.3).blocks
    for b in blocks:
        i = 1 if b.label.nu == 0 else 0
        assert np.isclose(b.hmatrix[i, i].real, -2 * math.cos(b.label.k), atol=1e-12)
        assert abs(b.hmatrix[i, i].imag) < 1e-14


@pytest.mark.parametrize("f", range(1, 9))
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_vacuum_coupling_strength(f, lam):
    blocks = block_map(f, 3.0, lam)
    zero = blocks[0]
    assert np.isclose(zero.hmatrix[0, 1], -2 * lam * math.sqrt(f), atol=1e-12)
    assert np.max(np.abs(zero.hmatrix[0, 2:])) < 1e-12  # vacuum couples to psi_1 only


# ------------------------------------------------- closed-form cross-checks

def test_closed_form_h22_small_rings():
    assert np.allclose(two_quanta_block(1, 3.0, 0), [[-7.0]])
    assert np.allclose(two_quanta_block(2, 3.0, 0), [[-3.0, -4.0], [-4.0, 0.0]])
    assert np.allclose(two_quanta_block(2, 3.0, 1), [[-3.0]])


def test_closed_form_h22_three_sites():
    q = 1 + cmath.exp(2j * math.pi / 3)
    p = cmath.exp(4j * math.pi / 3) + cmath.exp(2j * math.pi / 3)
    out = two_quanta_block(3, 3.0, 1)
    expected = np.array([[-3.0, -SQRT2 * q.conjugate()], [-SQRT2 * q, -p]])
    assert np.max(np.abs(out - expected)) < 1e-14


@pytest.mark.parametrize("f", range(1, 6))
@pytest.mark.parametrize("gamma", [1.0, 3.0])
def test_closed_forms_match_projected_blocks(f, gamma):
    # the closed-form blocks against the orbit construction
    lam = 0.45
    for b, oracle in zip(solve_spectrum(f, gamma, lam).blocks, orbit_block_pencil(f, gamma), strict=True):
        ref = oracle.matrix(lam)
        i0 = 2 if b.label.nu == 0 else 1
        # eigenvalue agreement (the contract) and entrywise agreement (stronger)
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(b.hmatrix[i0:, i0:]))
                             - np.sort(np.linalg.eigvalsh(ref[i0:, i0:])))) < 1e-9
        assert np.max(np.abs(b.hmatrix[i0:, i0:] - ref[i0:, i0:])) < 1e-12
        assert np.max(np.abs(b.hmatrix[i0 - 1, i0:] - ref[i0 - 1, i0:])) < 1e-12


# ------------------------------------------------------------- assembly

def test_assembled_dimensions_examples():
    assert sorted(b.dim for b in solve_spectrum(3, 3.0, 0.1).blocks) == [3, 3, 4]
    assert sorted(b.dim for b in solve_spectrum(4, 3.0, 0.1).blocks) == [3, 3, 4, 5]
    dims7 = sorted(b.dim for b in solve_spectrum(7, 3.0, 0.1).blocks)
    assert dims7 == [5, 5, 5, 5, 5, 5, 6]
    assert sum(dims7) == 36


@pytest.mark.parametrize("f", range(1, 13))
def test_block_dimension_identity(f):
    dims = block_dimensions(f)
    total = (f + 1) * (f + 2) // 2
    assert sum(dims) == total
    if f % 2 == 1:
        assert (f + 5) // 2 + (f - 1) * ((f + 3) // 2) == total
        assert sorted(dims, reverse=True)[0] == (f + 5) // 2
    else:
        assert ((f + 6) // 2 + (f // 2) * ((f + 2) // 2)
                + ((f - 2) // 2) * ((f + 4) // 2)) == total


@pytest.mark.parametrize("f", range(1, 9))
def test_constructed_blocks_have_expected_dimensions(f):
    for b in solve_spectrum(f, 3.0, 0.2).blocks:
        assert b.dim == expected_block_dimension(f, b.label.nu)


@pytest.mark.parametrize("f", range(1, 8))
def test_block_union_matches_brute_force_spectrum(f):
    basis = enumerate_basis(f, at_most(2))
    h_bh, h_drive = hamiltonian_pencil(f, 3.0, basis)
    h = h_bh + 0.5 * h_drive
    blocks = solve_spectrum(f, 3.0, 0.5).blocks
    union = np.sort(np.concatenate([np.linalg.eigvalsh(b.hmatrix) for b in blocks]))
    full = np.sort(np.linalg.eigvalsh(h))
    assert np.max(np.abs(union - full)) < 1e-9


@pytest.mark.parametrize("f", range(1, 7))
def test_no_matrix_elements_between_blocks(f):
    basis = enumerate_basis(f, at_most(2))
    h_bh, h_drive = hamiltonian_pencil(f, 3.0, basis)
    h = h_bh + 0.5 * h_drive
    frames = [build_momentum_vectors(f, label, basis) for label in momentum_values(f)]
    for i, vi in enumerate(frames):
        for vj in frames[i + 1:]:
            cross = vi.conj().T @ h @ vj
            assert np.max(np.abs(cross)) < 1e-12


def test_blocks_are_hermitian():
    for b in solve_spectrum(6, 3.0, 0.4).blocks:
        assert hermiticity_defect(b.hmatrix) < 1e-12


@pytest.mark.parametrize("f", range(1, 10))
def test_distinct_momenta_have_distinct_translation_eigenvalues(f):
    eigs = [l.translation_eigenvalue for l in momentum_values(f)]
    for i, a in enumerate(eigs):
        for b in eigs[i + 1:]:
            assert abs(a - b) > 1e-9


# ------------------------------------------------ direct construction vs oracle

ORACLE_COUPLINGS = [(3.0, 0.5), (1.3, -0.7), (4.2, 0.0), (1e3, -1e3)]


@pytest.mark.parametrize("f", range(1, 13))
@pytest.mark.parametrize("gamma, lam", ORACLE_COUPLINGS)
def test_direct_blocks_match_dense_projection(f, gamma, lam):
    # absolute 1e-12 at couplings of order one, scaled with the largest
    # coupling: the dense projection itself rounds at ~1e-15 of |H|
    tol = 1e-12 * max(1.0, abs(gamma), abs(lam))
    basis = enumerate_basis(f, at_most(2))
    h_bh, h_drive = hamiltonian_pencil(f, gamma, basis)
    h = h_bh + lam * h_drive
    blocks = solve_spectrum(f, gamma, lam).blocks
    assert [b.label for b in blocks] == momentum_values(f)
    for b in blocks:
        oracle = project_block(h, build_momentum_vectors(f, b.label, basis))
        assert b.hmatrix.shape == oracle.shape
        assert np.max(np.abs(b.hmatrix - oracle)) < tol


@pytest.mark.parametrize("f", range(1, 13))
@pytest.mark.parametrize("gamma", [3.0, 1.3, 1e3])
def test_pencil_matches_dense_projection_of_each_term(f, gamma):
    # B_BH and B_drive separately against V^H H_BH V and V^H H_lam(1) V
    tol = 1e-12 * max(1.0, gamma)
    basis = enumerate_basis(f, at_most(2))
    h_bh, h_drive = hamiltonian_pencil(f, gamma, basis)
    rows = pencil_rows(f, gamma)
    assert [label for label, *_ in rows] == momentum_values(f)
    for label, _, b_bh, b_drive, phases in rows:
        vectors = build_momentum_vectors(f, label, basis)
        b_bh, b_drive = (to_orbit_frame(b, phases) for b in (b_bh, b_drive))
        assert np.max(np.abs(b_bh - project_block(h_bh, vectors))) < tol
        assert np.max(np.abs(b_drive - project_block(h_drive, vectors))) < 1e-12


@pytest.mark.parametrize("f", [1, 2, 5, 6])
def test_pencil_splits_by_total_quanta(f):
    basis = enumerate_basis(f, at_most(2))
    for label, quanta, b_bh, b_drive, _ in pencil_rows(f, 3.0):
        # each column's quanta is the sector its block vector lives in
        for column, n in zip(build_momentum_vectors(f, label, basis).T, quanta):
            assert np.all(column[[sum(s) != n for s in basis.states]] == 0)
        same = quanta[:, None] == quanta[None, :]
        assert np.all(b_drive[same] == 0) and np.all(b_bh[~same] == 0)


@pytest.mark.parametrize("f", range(1, 9))
@pytest.mark.parametrize("gamma, lam", ORACLE_COUPLINGS)
def test_apply_hamiltonian_is_a_column_of_dense_h(f, gamma, lam):
    basis = enumerate_basis(f, at_most(2))
    h_bh, h_drive = hamiltonian_pencil(f, gamma, basis)
    h = h_bh + lam * h_drive
    for col, state in enumerate(basis.states):
        column = np.zeros(basis.size, dtype=complex)
        for image, amp in apply_hamiltonian(f, gamma, lam, state).items():
            column[basis.index[image]] += amp
        assert np.max(np.abs(column - h[:, col])) < 1e-12


def test_apply_hamiltonian_rejects_wrong_length_state():
    with pytest.raises(ValueError):
        apply_hamiltonian(3, 3.0, 0.5, (1, 0))


def test_apply_hamiltonian_three_quanta_image_is_untruncated():
    # (N-2) a_j^+ on a three-quanta state reaches four quanta with factor 1
    image = apply_hamiltonian(2, 3.0, 0.5, (3, 0))
    assert image[(4, 0)] == pytest.approx(0.5 * 2.0)
    assert image[(3, 1)] == pytest.approx(0.5)


@pytest.mark.parametrize("f", range(1, 13))
def test_block_vectors_follow_the_full_orbit_sum(f):
    # independent of the orbit table: normalized sum over all f translates
    basis = enumerate_basis(f, at_most(2))
    seeds = [(1,) + (0,) * (f - 1)]
    seeds += [two_quanta_seed(f, b) for b in range(1, two_quanta_seed_count(f) + 1)]
    for label in momentum_values(f):
        expected = [np.eye(basis.size)[0]] if label.nu == 0 else []
        for seed in seeds:
            raw = np.zeros(basis.size, dtype=complex)
            state = seed
            for j in range(f):
                raw[basis.index[state]] += cmath.exp(1j * label.k * j)
                state = state[-1:] + state[:-1]
            norm = np.linalg.norm(raw)
            if norm > 1e-10:
                expected.append(raw / norm)
        vecs = build_momentum_vectors(f, label, basis)
        assert vecs.shape[1] == len(expected)
        assert np.max(np.abs(vecs - np.column_stack(expected))) < 1e-13


def test_momentum_suite_records_dense_projection_agreement():
    records = [c for c in momentum_suite(Rings())
               if c.name == "blocks equal the projection of dense H"]
    assert [c.params["f"] for c in records] == list(range(1, 7))
    assert all(c.passed and c.residual < 1e-12 for c in records)


# ------------------------------------------------------------- block vectors

@pytest.mark.parametrize("f", [*range(1, 13), 47, 48])
def test_orbit_frame_carries_the_columns_of_the_solved_block(f):
    # one column per block column, each one orbit's Fourier sum: the columns
    # share no row, are orthonormal, and each lies in the sector of its
    # column's quanta, so frame @ coefficients carries every eigenvector
    basis = enumerate_basis(f, at_most(2))
    sector = np.array([sum(s) for s in basis.states])
    for b in solve_spectrum(f, 3.0, 0.5).blocks:
        v = build_momentum_vectors(f, b.label, basis)
        assert v.shape == (basis.size, b.dim) and not v.flags.writeable
        assert np.all(np.count_nonzero(v, axis=1) <= 1)
        rows, cols = np.nonzero(v)
        assert np.array_equal(sector[rows], b.quanta[cols])
        assert np.max(np.abs(v.conj().T @ v - np.eye(b.dim))) < 1e-14


# ------------------------------------------------ structured builder vs orbits

@pytest.mark.parametrize("f", range(1, MAX_SITES + 1))
def test_structured_blocks_match_the_orbit_pencil(f):
    # the real gauged pencil B, carried to the orbit frame as P B P^H, and
    # the solved spectra at -nu
    for gamma, lam in [(3.0, 0.5), (1.3, -0.7), (1e3, -1e3)]:
        tol = 1e-12 * max(1.0, abs(gamma), abs(lam))
        rows = pencil_rows(f, gamma)
        oracle = orbit_block_pencil(f, gamma)
        assert [row[0] for row in rows] == [o.label for o in oracle] == momentum_values(f)
        for (label, quanta, b_bh, b_drive, phases), o in zip(rows, oracle):
            assert b_bh.shape == (expected_block_dimension(f, label.nu),) * 2
            assert np.array_equal(quanta, o.quanta)
            assert b_bh.dtype == b_drive.dtype == np.float64
            assert np.array_equal(b_bh, b_bh.T) and np.array_equal(b_drive, b_drive.T)
            assert np.max(np.abs(np.abs(phases) - 1.0)) < 1e-15
            assert np.max(np.abs(to_orbit_frame(b_bh, phases) - o.b_bh)) < tol
            assert np.max(np.abs(to_orbit_frame(b_drive, phases) - o.b_drive)) < tol
            assert np.max(np.abs(to_orbit_frame(b_bh + lam * b_drive, phases)
                                 - o.matrix(lam))) < tol
        # the solve gives -nu the spectrum of nu; the orbit pencil builds the
        # complex block at -nu on its own
        mirrors = {o.label.nu: o for o in oracle if o.label.nu < 0}
        solved = {bs.label.nu: bs for bs in solve_spectrum(f, gamma, lam).blocks}
        for nu, o in mirrors.items():
            expected = np.linalg.eigvalsh(o.matrix(lam))
            assert np.max(np.abs(solved[nu].eigenvalues - expected)) < tol


@pytest.mark.parametrize("f", [1, 2, 3, 4, 7, 10, 119, 120])
def test_pencil_stacks_hold_one_block_shape_each(f):
    stacks = pencil_stacks(f, 3.0)
    assert len(stacks) <= 3
    assert len({s.quanta.size for s in stacks}) == len(stacks)
    # the distinct labels nu >= 0; with their mirrors -nu, every label once
    distinct = sorted((l for s in stacks for l in s.labels), key=lambda l: -l.nu)
    assert distinct == [l for l in momentum_values(f) if l.nu >= 0]
    named = [(l, p) for s in stacks for i in range(len(s.labels)) for l, p in s.blocks_of(i)]
    assert sorted((l for l, _ in named), key=lambda l: -l.nu) == momentum_values(f)
    assert not any(p.flags.writeable for _, p in named)
    for s in stacks:
        assert [l.nu for l in s.labels] == sorted((l.nu for l in s.labels), reverse=True)
        b_bh, b_drive = pencil_parts(s)
        assert b_bh.shape == b_drive.shape == (len(s.labels),) + (s.quanta.size,) * 2
        vacuum = s.labels[0].nu == 0
        pairs = s.quanta.size - 1 - vacuum
        assert list(s.quanta) == [0] * vacuum + [1] + [2] * pairs


def test_pencil_stacks_hold_only_their_fans():
    # O(d) entries a block: the largest ring's stacks hold no dense matrix
    pencil_stacks(2, 3.0)  # warm imports outside the trace
    tracemalloc.start()
    try:
        stacks = pencil_stacks(MAX_SITES, 3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stacks and peak < 0.5e6, peak


def test_half_angle_roots_hold_the_full_angle_roots_bit_for_bit():
    # the builder reads e^{ikj} at entry 2 nu j of the 2f-root table
    for f in range(1, MAX_SITES + 1):
        assert np.array_equal(momentum._roots(2 * f)[::2], momentum._roots(f))


@pytest.mark.parametrize("m", range(1, 61))
def test_roots_are_exact_at_the_quarter_turns(m):
    quarter = momentum._roots(4 * m)[::m]
    assert quarter.tolist() == [1, 1j, -1, -1j]
    parts = np.concatenate([quarter.real, quarter.imag])
    assert not np.signbit(parts[parts == 0.0]).any()  # no -0.0
    half = momentum._roots(2 * m)[m]
    assert half.real == -1.0 and half.imag == 0.0


@pytest.mark.parametrize("f", range(4, MAX_SITES + 1, 2))
def test_k_pi_block_vanishes_exactly_on_its_s_ge_1_hops_and_odd_s_drive(f):
    # cos(pi s / 2) = 0 at odd s: the pair columns s >= 1 have no diagonal
    # and no hops, and the drive reaches only the even ones, all exactly
    stack = next(s for s in pencil_stacks(f, 3.0) if 2 * s.labels[0].nu == f)
    diag, hop, drive = stack.diag[0], stack.hop[0], stack.drive[0]  # no vacuum: drive[s] at s
    assert not diag[1:].any() and not hop.any()
    assert not drive[1::2].any()
    assert np.all(drive[2::2] != 0.0)


FAN_COUPLINGS = [0.0, -0.0, 0.3, -0.3, 1e-300, -1e-300, 1e3, -1e3]


@pytest.mark.parametrize("f", range(1, MAX_SITES + 1))
@pytest.mark.parametrize("gamma", [0.0, -0.0, 3.0, -1.5])
def test_dense_pencils_are_the_fans_they_are_written_from(f, gamma):
    # matrices writes each entry with the arithmetic of B_BH + lam * B_drive,
    # down to the sign of a zero: x + lam * 0.0 on a B_BH fan entry x,
    # 0.0 + lam * z on both sides of a drive entry z, +0.0 everywhere else;
    # one block's grid and paired (row, coupling) calls write the same bytes
    def identical(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    lams = np.array(FAN_COUPLINGS)
    for s in pencil_stacks(f, gamma):
        arrays = (s.quanta, s.phases, s.head, s.diag, s.hop, s.drive)
        assert not any(a.flags.writeable for a in arrays)
        n, d = len(s.labels), s.quanta.size
        head = int(np.flatnonzero(s.quanta == 1)[0])
        pairs = np.flatnonzero(s.quanta == 2)
        others = np.flatnonzero(s.quanta != 1)  # the vacuum first, then the pairs
        fan = np.zeros((d, d), dtype=bool)
        fan[head, head] = fan[head, others] = fan[others, head] = True
        fan[pairs, pairs] = fan[pairs[:-1], pairs[1:]] = fan[pairs[1:], pairs[:-1]] = True
        b = s.matrices(slice(None), lams[:, None])
        assert b.shape == (lams.size, n, d, d) and b.dtype == np.float64
        assert identical(b, np.ascontiguousarray(b.swapaxes(-1, -2)))
        for lam, m in zip(lams, b):
            zero = lam * 0.0
            assert identical(m[:, head, head], s.head + zero)
            assert identical(m[:, pairs, pairs], s.diag + zero)
            assert identical(m[:, pairs[:-1], pairs[1:]], s.hop + zero)
            assert identical(m[:, head, others], 0.0 + lam * s.drive)
            assert identical(m[:, ~fan], np.zeros((n, np.count_nonzero(~fan))))
        for i in range(n):
            assert identical(s.matrices(i, lams), np.ascontiguousarray(b[:, i]))
        rows, points = np.divmod(np.arange(n * lams.size), lams.size)
        assert identical(s.matrices(rows, lams[points]), b[points, rows])
