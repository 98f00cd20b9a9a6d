"""Verification suites aggregating the package invariants.

Each suite returns a list of :class:`~qeslattice.report.Check` records; the
CLI ``verify`` subcommand serializes them and sets its exit status from the
union.  Parameter ranges follow the published coverage of each property:
tables and closed-form polynomials exist for rings of up to four sites, the
closed-form block matrices are compared for up to five, and the structural
symmetries are cheap enough to assert on every ring size the package
targets.
"""

from __future__ import annotations

import numpy as np

from . import algebra
from .fock import at_most, enumerate_basis, exactly
from .momentum import (assemble_h_r, block_dimensions, build_momentum_vectors,
                       closed_form_h12, closed_form_h22, expected_block_dimension,
                       momentum_values)
from .ops import (build_h_bh, build_h_lambda, build_hamiltonian, build_number,
                  build_translation, commutator, sector_block)
from .reference import (CHARPOLY_SAMPLES, CHARPOLY_TOL, REFERENCE_CHAR_POLYS,
                        REFERENCE_GAMMA, REFERENCE_TABLES, TABLE_TOL,
                        f3_dim3_energies)
from .report import Check, check
from .spectra import (brute_force_eigenvalues, char_poly, solve_spectrum,
                      soliton_band, verify_eigenvector_formulas)

EXACT_TOL = 1e-12
ORACLE_TOL = 1e-9


def ops_suite(f_max: int = 6) -> list[Check]:
    """Hermiticity, conserved quantities and invariant-subspace structure."""
    checks: list[Check] = []
    gamma = 3.0
    for f in range(1, f_max + 1):
        basis = enumerate_basis(f, at_most(2))
        n_op = build_number(f, basis)
        t_op = build_translation(f, basis)
        h_bh = build_h_bh(f, gamma, basis)

        r = h_bh.hermiticity_defect()
        checks.append(check("H_BH hermitian", r < EXACT_TOL, residual=r, f=f))
        r = float(np.max(np.abs(commutator(h_bh, n_op).matrix)))
        checks.append(check("[H_BH, N] = 0", r < EXACT_TOL, residual=r, f=f))
        r = float(np.max(np.abs(commutator(h_bh, t_op).matrix)))
        checks.append(check("[H_BH, T] = 0", r < EXACT_TOL, residual=r, f=f))

        for lam in (0.25, 0.5):
            h_lam = build_h_lambda(f, lam, basis)
            h = h_bh + h_lam
            r = max(h_lam.hermiticity_defect(), h.hermiticity_defect(),
                    n_op.hermiticity_defect())
            checks.append(check("H_lam, H, N hermitian", r < EXACT_TOL,
                                residual=r, f=f, lam=lam))
            r = float(np.max(np.abs(commutator(h, t_op).matrix)))
            checks.append(check("[H, T] = 0", r < EXACT_TOL, residual=r, f=f, lam=lam))
            hn = float(np.linalg.norm(commutator(h, n_op).matrix))
            checks.append(check("|[H, N]| > 0.1 lam", hn > 0.1 * lam,
                                residual=hn, f=f, lam=lam))

        # invariance of the 0+1+2-quanta subspace, probed with headroom
        wide = enumerate_basis(f, at_most(3))
        h_wide = build_hamiltonian(f, gamma, 0.5, wide)
        leak = max(float(np.max(np.abs(sector_block(h_wide, 3, n)))) for n in (0, 1, 2))
        checks.append(check("no coupling from 0/1/2 quanta into 3", leak < EXACT_TOL,
                            residual=leak, f=f))
        checks.extend(algebra.verify_canonical_relations(f))
    return checks


def momentum_suite(f_max_dims: int = 12, f_max_blocks: int = 6) -> list[Check]:
    """Block dimensions, orthonormality, translation eigenvectors, coupling
    structure, and agreement with the closed-form block matrices."""
    checks: list[Check] = []
    for f in range(1, f_max_dims + 1):
        dims = block_dimensions(f)
        total = (f + 1) * (f + 2) // 2
        if f % 2 == 1:
            identity = (f + 5) // 2 + (f - 1) * (f + 3) // 2 == total
        else:
            identity = ((f + 6) // 2 + (f // 2) * (f + 2) // 2
                        + ((f - 2) // 2) * (f + 4) // 2 == total)
        checks.append(check("block dimension identity", identity and sum(dims) == total,
                            residual=abs(sum(dims) - total), f=f))

    gamma, lam = 3.0, 0.5
    for f in range(1, f_max_blocks + 1):
        basis = enumerate_basis(f, at_most(2))
        t_op = build_translation(f, basis)
        h = build_hamiltonian(f, gamma, lam, basis)
        blocks = assemble_h_r(f, gamma, lam, basis)
        dim_dev = max(abs(b.dim - expected_block_dimension(f, b.label.nu)) for b in blocks)
        checks.append(check("constructed block dimensions", dim_dev == 0,
                            residual=dim_dev, f=f))
        worst_gram = 0.0
        worst_t = 0.0
        worst_herm = 0.0
        for b in blocks:
            v = b.vectors
            worst_gram = max(worst_gram, float(np.max(np.abs(
                v.conj().T @ v - np.eye(b.dim)))))
            worst_t = max(worst_t, float(np.max(np.abs(
                t_op.matrix @ v - b.label.translation_eigenvalue * v))))
            worst_herm = max(worst_herm, b.hermiticity_defect())
        checks.append(check("block vectors orthonormal", worst_gram < 1e-12,
                            residual=worst_gram, f=f))
        checks.append(check("blocks are translation eigenspaces", worst_t < 1e-12,
                            residual=worst_t, f=f))
        checks.append(check("block matrices hermitian", worst_herm < 1e-12,
                            residual=worst_herm, f=f))
        worst_cross = 0.0
        for i, bi in enumerate(blocks):
            for bj in blocks[i + 1 :]:
                worst_cross = max(worst_cross, float(np.max(np.abs(
                    bi.vectors.conj().T @ h.matrix @ bj.vectors))))
        checks.append(check("no coupling between momentum blocks", worst_cross < 1e-12,
                            residual=worst_cross, f=f))

    for f in range(1, 9):
        basis = enumerate_basis(f, at_most(2))
        h = build_hamiltonian(f, 3.0, lam, basis)
        label = next(l for l in momentum_values(f) if l.nu == 0)
        vectors = build_momentum_vectors(f, label, basis)
        vacuum, psi1 = vectors[0], vectors[1]
        coupling = complex(vacuum.conj() @ h.matrix @ psi1)
        r = abs(coupling - (-2.0 * lam * np.sqrt(f)))
        checks.append(check("vacuum couples only as -2 lam sqrt(f)", r < 1e-12,
                            residual=r, f=f))

    for f in range(1, 6):
        for gam in (1.0, 3.0):
            blocks = assemble_h_r(f, gam, lam)
            worst22 = 0.0
            worst12 = 0.0
            for b in blocks:
                i0 = 2 if b.label.nu == 0 else 1
                ref22 = closed_form_h22(f, gam, b.label)
                e_block = np.sort(np.linalg.eigvalsh(b.hmatrix[i0:, i0:]))
                e_ref = np.sort(np.linalg.eigvalsh(ref22))
                worst22 = max(worst22, float(np.max(np.abs(e_block - e_ref))))
                ref12 = closed_form_h12(f, lam, b.label)
                worst12 = max(worst12, float(np.max(np.abs(
                    b.hmatrix[i0 - 1, i0:] - ref12))))
            checks.append(check("closed-form two-quanta block (eigenvalues)",
                                worst22 < ORACLE_TOL, residual=worst22, f=f, gamma=gam))
            checks.append(check("closed-form one-to-two coupling row",
                                worst12 < 1e-12, residual=worst12, f=f, gamma=gam))
    return checks


def spectra_suite() -> list[Check]:
    """Oracle equivalence, coupling-sign symmetry, momentum degeneracy and
    the decoupled-limit sector structure."""
    checks: list[Check] = []
    for f in range(1, 8):
        for gamma in (1.0, 3.0):
            for lam in (0.0, 0.25, 0.5):
                blocks = solve_spectrum(f, gamma, lam).all_eigenvalues()
                full = brute_force_eigenvalues(f, gamma, lam)
                r = float(np.max(np.abs(blocks - full)))
                checks.append(check("block spectra match brute force", r < ORACLE_TOL,
                                    residual=r, f=f, gamma=gamma, lam=lam))

    for f in (2, 3, 5):
        plus = solve_spectrum(f, 3.0, 0.4).all_eigenvalues()
        minus = solve_spectrum(f, 3.0, -0.4).all_eigenvalues()
        r = float(np.max(np.abs(plus - minus)))
        checks.append(check("spectrum invariant under lam -> -lam", r < ORACLE_TOL,
                            residual=r, f=f))

    for f in (3, 4, 5, 7):
        result = solve_spectrum(f, 3.0, 0.5)
        h = build_hamiltonian(f, 3.0, 0.5, result.basis).matrix
        worst_pair = 0.0
        worst_conj = 0.0
        present = {b.label.nu for b in result.blocks}
        for bs in result.blocks:
            if bs.label.nu <= 0 or -bs.label.nu not in present:
                continue  # nu = f/2 on even rings is its own mirror (k = pi)
            mirror = result.block_for(-bs.label.nu)
            worst_pair = max(worst_pair, float(np.max(np.abs(
                bs.eigenvalues - mirror.eigenvalues))))
            frame = mirror.block.vectors
            for i, e in enumerate(bs.eigenvalues):
                v = bs.eigenvectors[:, i].conj()
                worst_conj = max(worst_conj, float(
                    np.linalg.norm(h @ v - e * v) / np.linalg.norm(v)))
                # membership in the mirror block's span
                proj = frame @ (frame.conj().T @ v)
                worst_conj = max(worst_conj, float(np.linalg.norm(proj - v)))
        checks.append(check("+-nu eigenvalue degeneracy", worst_pair < ORACLE_TOL,
                            residual=worst_pair, f=f))
        checks.append(check("conjugated eigenvectors lie in the mirror block",
                            worst_conj < 1e-8, residual=worst_conj, f=f))

    for f in range(1, 8):
        gamma = 3.0
        result = solve_spectrum(f, gamma, 0.0)
        expected = [0.0]
        expected += [-2.0 * np.cos(2 * np.pi * l.nu / f) for l in momentum_values(f)]
        two = enumerate_basis(f, exactly(2))
        expected += list(np.linalg.eigvalsh(build_h_bh(f, gamma, two).matrix))
        r = float(np.max(np.abs(result.all_eigenvalues() - np.sort(expected))))
        checks.append(check("lam=0 spectrum splits into quanta sectors",
                            r < ORACLE_TOL, residual=r, f=f))
    return checks


def soliton_suite() -> list[Check]:
    """Band minima separation for rings of 3, 5 and 7 sites at gamma = 3.

    Both margins are reported: the per-momentum gap (band state vs the rest
    of its own block, the separation a band plot shows) must be positive;
    the stricter cross-block margin is additionally recorded and is known to
    turn negative on the seven-site ring, where the band edge near k = pi
    lies above the two-quanta continuum edge near k = 0.
    """
    checks: list[Check] = []
    for f in (3, 5, 7):
        for lam in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            band = soliton_band(solve_spectrum(f, 3.0, lam))
            checks.append(check("soliton band separated per momentum",
                                band.per_nu_margin > 0.0,
                                residual=band.per_nu_margin, f=f, lam=lam,
                                note=f"cross-block margin {band.margin:+.4f}"))
    return checks


def charpoly_suite() -> list[Check]:
    """The printed block polynomials, sampled over (gamma, lam)."""
    checks: list[Check] = []
    gammas, lams = CHARPOLY_SAMPLES
    for ref in REFERENCE_CHAR_POLYS:
        worst = 0.0
        for gamma in gammas:
            for lam in lams:
                blocks = {b.label.nu: b for b in assemble_h_r(ref.f, gamma, lam)}
                for nu in ref.nus:
                    computed = char_poly(blocks[nu])
                    target = ref.coefficients(gamma, lam)
                    dev = np.max(np.abs(computed - target)
                                 / np.maximum(1.0, np.abs(target)))
                    worst = max(worst, float(dev))
        checks.append(check(f"characteristic polynomial: {ref.name}",
                            worst < CHARPOLY_TOL, residual=worst, f=ref.f))
    return checks


def tables_suite() -> list[Check]:
    """Reproduce every tabulated eigenvalue at gamma = 3 to +-1.5e-3."""
    checks: list[Check] = []
    for table in REFERENCE_TABLES:
        worst = 0.0
        for lam, energies in table.rows:
            result = solve_spectrum(table.f, REFERENCE_GAMMA, lam)
            for nu in table.nus:
                computed = result.block_for(nu).eigenvalues
                worst = max(worst, float(np.max(np.abs(computed - np.array(energies)))))
        checks.append(check(f"table {table.name}", worst < TABLE_TOL,
                            residual=worst, f=table.f,
                            values=table.value_count * len(table.nus)))
    # the dimension-3 blocks on three sites additionally have exact closed forms
    worst = 0.0
    for lam in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        result = solve_spectrum(3, REFERENCE_GAMMA, lam)
        target = np.array(f3_dim3_energies(lam))
        for nu in (1, -1):
            worst = max(worst, float(np.max(np.abs(
                result.block_for(nu).eigenvalues - target))))
    checks.append(check("f3 dim-3 closed-form energies", worst < 1e-9,
                        residual=worst, f=3))
    return checks


def algebra_suite() -> list[Check]:
    """All Lie-structure verifications at their published ranges."""
    checks: list[Check] = []
    checks.extend(algebra.verify_sl2(n_values=(0, 1, 2, 3, 4)))
    for f in (2, 3, 4):
        checks.extend(algebra.verify_grading_closure(f, n=2))
    for n in (0, 1, 2, 3):
        checks.extend(algebra.verify_sl3_diagonal(n))
    checks.extend(algebra.verify_translation_f3())
    for f in (1, 2, 3, 4):
        checks.extend(algebra.verify_osp_structure(f))
    return checks


def eigvec_suite() -> list[Check]:
    """Closed-form eigenstates at representative couplings.

    Generic-in-gamma formulas are exercised at three interaction strengths;
    the gamma = 3 forms at the tabulated one.  The decoupled-limit forms run
    at lam = 0, everything else at nonzero couplings where no printed
    coefficient vector degenerates to zero.
    """
    checks: list[Check] = []
    for gamma in (1.0, 3.0, 7.0):
        for lam in (0.1, 0.25, 0.5):
            for f in (1, 2, 3, 4):
                checks.extend(verify_eigenvector_formulas(f, gamma, lam))
        checks.extend(verify_eigenvector_formulas(2, gamma, 0.0))
    return checks


SUITES = {
    "ops": ops_suite,
    "momentum": momentum_suite,
    "spectra": spectra_suite,
    "soliton": soliton_suite,
    "charpoly": charpoly_suite,
    "tables": tables_suite,
    "algebra": algebra_suite,
    "eigvec": eigvec_suite,
}


def run_suites(names: list[str] | None = None) -> list[Check]:
    selected = list(SUITES) if not names or "all" in names else names
    checks: list[Check] = []
    for name in selected:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        checks.extend(SUITES[name]())
    return checks
