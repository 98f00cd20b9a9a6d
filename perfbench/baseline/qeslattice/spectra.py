"""Diagonalization of momentum blocks, coupling sweeps and band structure.

The restricted Hamiltonian is real symmetric in the occupation basis, so
every block spectrum is real and the blocks for ``+nu`` and ``-nu`` are
degenerate with complex-conjugate eigenvectors.  Characteristic polynomials
are assembled from eigenvalues (stable at these dimensions) rather than by
determinant expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.optimize import linear_sum_assignment

from .fock import FockBasis, at_most, enumerate_basis
from .momentum import MomentumBlock, MomentumLabel, assemble_h_r
from .ops import build_hamiltonian
from .reference import EIGENSTATE_FORMULAS, EIGENSTATE_RESIDUAL_TOL
from .report import Check, check, skip

EIGH_HERMITICITY_TOL = 1e-10
RESIDUAL_TOL = 1e-9


def diagonalize(block: MomentumBlock) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of one block.

    Eigenvectors are returned as columns over the occupation basis.  Raises
    on a non-Hermitian block; the residual ``|(H - E) v|`` of every pair is
    verified to be below ``1e-9``.
    """
    if block.hermiticity_defect() > EIGH_HERMITICITY_TOL:
        raise ValueError("block matrix is not Hermitian")
    w, v = np.linalg.eigh(block.hmatrix)
    residual = np.max(np.abs(block.hmatrix @ v - v * w[None, :]))
    if residual > RESIDUAL_TOL:
        raise ArithmeticError(f"eigenpair residual {residual:.2e} exceeds {RESIDUAL_TOL}")
    return w, block.vectors @ v


@dataclass(frozen=True)
class BlockSpectrum:
    """Sorted spectrum of one momentum block."""

    block: MomentumBlock
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, over the occupation basis

    def __post_init__(self) -> None:
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def label(self) -> MomentumLabel:
        return self.block.label


@dataclass(frozen=True)
class SpectrumResult:
    """Full block-resolved spectrum at one parameter point."""

    f: int
    gamma: float
    lam: float
    basis: FockBasis
    blocks: tuple[BlockSpectrum, ...]

    def block_for(self, nu: int) -> BlockSpectrum:
        for bs in self.blocks:
            if bs.label.nu == nu:
                return bs
        raise KeyError(f"no block with nu={nu}")

    def all_eigenvalues(self) -> np.ndarray:
        return np.sort(np.concatenate([bs.eigenvalues for bs in self.blocks]))


def solve_spectrum(f: int, gamma: float, lam: float) -> SpectrumResult:
    """Assemble all momentum blocks of ``H`` and diagonalize each."""
    basis = enumerate_basis(f, at_most(2))
    spectra = []
    for block in assemble_h_r(f, gamma, lam, basis):
        w, vecs = diagonalize(block)
        spectra.append(BlockSpectrum(block=block, eigenvalues=w, eigenvectors=vecs))
    return SpectrumResult(f=f, gamma=gamma, lam=lam, basis=basis, blocks=tuple(spectra))


def char_poly(block: MomentumBlock) -> np.ndarray:
    """Monic real characteristic polynomial of a block, highest power first.

    Built as ``prod (E - E_i)`` from the eigenvalues; imaginary residues are
    checked against ``1e-10`` and discarded.
    """
    w, _ = diagonalize(block)
    coeffs = np.poly(w)
    if np.iscomplexobj(coeffs):
        if float(np.max(np.abs(coeffs.imag))) > 1e-10:
            raise ArithmeticError("characteristic polynomial has complex coefficients")
        coeffs = coeffs.real
    return coeffs


def quanta_tag(vector: np.ndarray, basis: FockBasis) -> int:
    """Dominant total-quanta sector of a vector over an occupation basis."""
    best_n, best_mass = 0, -1.0
    for n in basis.selector.totals():
        idx = basis.sector_indices(n)
        mass = float(np.sum(np.abs(vector[idx.start : idx.stop]) ** 2))
        if mass > best_mass:
            best_n, best_mass = n, mass
    return best_n


@dataclass(frozen=True)
class BlockSweep:
    """Eigenvalue curves of one block over a coupling grid.

    Row ``i`` of ``energies`` belongs to grid point ``i``; columns follow one
    continuous level curve each (paired across adjacent grid points by
    eigenvector overlap).  ``tags`` carries the quanta label each curve has
    at the first grid point.
    """

    label: MomentumLabel
    energies: np.ndarray  # shape (n_lambda, dim)
    tags: tuple[int, ...]

    def __post_init__(self) -> None:
        self.energies.setflags(write=False)


@dataclass(frozen=True)
class SweepResult:
    f: int
    gamma: float
    lambdas: np.ndarray
    blocks: tuple[BlockSweep, ...]

    def __post_init__(self) -> None:
        self.lambdas.setflags(write=False)

    def continuity_ratios(self) -> np.ndarray:
        """``|dE| / (d_lambda * (1 + |E|))`` for every curve segment; the
        curves are continuous when these stay below ~10."""
        ratios = []
        dl = np.diff(self.lambdas)
        for bs in self.blocks:
            de = np.abs(np.diff(bs.energies, axis=0))
            scale = dl[:, None] * (1.0 + np.abs(bs.energies[:-1]))
            ratios.append((de / scale).ravel())
        return np.concatenate(ratios)


def sweep(f: int, gamma: float, lambdas: Iterable[float]) -> SweepResult:
    """Eigenvalue curves over an ascending coupling grid.

    Levels are matched across adjacent grid points by eigenvector overlap
    (optimal assignment), which keeps each column of the table on one
    physical curve even where curves cross.
    """
    grid = np.asarray(list(lambdas), dtype=float)
    if grid.size == 0:
        raise ValueError("empty coupling grid")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("coupling grid must be strictly ascending")

    first = solve_spectrum(f, gamma, float(grid[0]))
    labels = [bs.label for bs in first.blocks]
    energies = [[bs.eigenvalues.copy()] for bs in first.blocks]
    prev_vecs = [bs.eigenvectors for bs in first.blocks]
    tags = [tuple(quanta_tag(bs.eigenvectors[:, i], first.basis) for i in range(bs.eigenvalues.size))
            for bs in first.blocks]

    for lam in grid[1:]:
        result = solve_spectrum(f, gamma, float(lam))
        for i, bs in enumerate(result.blocks):
            overlap = np.abs(prev_vecs[i].conj().T @ bs.eigenvectors)
            rows, cols = linear_sum_assignment(-overlap)
            order = np.empty_like(cols)
            order[rows] = cols
            energies[i].append(bs.eigenvalues[order])
            prev_vecs[i] = bs.eigenvectors[:, order]
    block_sweeps = tuple(
        BlockSweep(label=labels[i], energies=np.vstack(energies[i]), tags=tags[i])
        for i in range(len(labels))
    )
    return SweepResult(f=f, gamma=gamma, lambdas=grid, blocks=block_sweeps)


@dataclass(frozen=True)
class SolitonBand:
    """Per-momentum band minima and the two separation margins.

    ``margin`` compares the band as a set against all remaining eigenvalues
    (positive iff every band state lies below every non-band state, across
    blocks).  ``per_nu_margin`` is the smallest gap between a block's band
    state and the next state of the same block: this is the separation a
    band-structure plot shows, and it stays positive in regimes where the
    cross-block margin does not (the band edge at k near pi can lie above
    the two-quanta continuum edge at k near 0 on larger rings).
    """

    minima: tuple[tuple[int, float], ...]  # (nu, E_min) per block
    margin: float
    per_nu_margin: float

    @property
    def separated(self) -> bool:
        return self.margin > 0.0


def soliton_band(result: SpectrumResult) -> SolitonBand:
    """Extract the lowest eigenvalue per momentum block and both margins."""
    minima = []
    rest = []
    per_nu_gaps = []
    for bs in result.blocks:
        w = bs.eigenvalues
        minima.append((bs.label.nu, float(w[0])))
        if w.size > 1:
            rest.extend(w[1:].tolist())
            per_nu_gaps.append(float(w[1] - w[0]))
    band_max = max(e for _, e in minima)
    margin = (min(rest) - band_max) if rest else float("inf")
    per_nu = min(per_nu_gaps) if per_nu_gaps else float("inf")
    return SolitonBand(minima=tuple(minima), margin=float(margin), per_nu_margin=per_nu)


def verify_eigenvector_formulas(f: int, gamma: float, lam: float) -> list:
    """Check every applicable closed-form eigenstate at one parameter point.

    For each formula the computed eigenvalues of its block are substituted
    into the printed coefficients, the state is assembled over the occupation
    basis and the relative residual ``|(H - E) v| / |v|`` is compared against
    ``1e-8``.  Failures are reported, not raised.  Formulas that are
    alternative readings of one printed expression share a group; a summary
    record for the group passes when at least one reading does.  A formula
    whose coefficients vanish identically at the given parameters (the
    mixing amplitudes are proportional to ``lam`` in several of them) is
    reported as a skip.
    """
    if f not in (1, 2, 3, 4):
        raise ValueError("closed-form eigenstates are tabulated for f in 1..4")

    result = solve_spectrum(f, gamma, lam)
    h = build_hamiltonian(f, gamma, lam, result.basis).matrix
    checks: list[Check] = []
    group_results: dict[str, list[bool]] = {}

    for formula in EIGENSTATE_FORMULAS:
        if formula.f != f:
            continue
        if formula.gamma is not None and abs(formula.gamma - gamma) > 1e-12:
            continue
        if formula.lam is not None and abs(formula.lam - lam) > 1e-12:
            continue
        if formula.kind == "block":
            block = result.block_for(formula.nu)
            eigenvalues = block.eigenvalues
            frame = block.block.vectors
        else:
            eigenvalues = result.all_eigenvalues()
            frame = None
        params = {"f": f, "gamma": gamma, "lam": lam, "nu": formula.nu}
        worst = 0.0
        tested = 0
        degenerate = 0
        for E in eigenvalues:
            if not formula.selects(E, gamma, lam):
                continue
            coeffs = formula.coefficients(E, gamma, lam)
            if formula.kind == "block":
                v = frame @ np.asarray(coeffs, dtype=complex)
            else:
                v = np.zeros(result.basis.size, dtype=complex)
                for occ, c in coeffs.items():
                    v[result.basis.index[occ]] = c
            norm = float(np.linalg.norm(v))
            if norm < 1e-12:
                degenerate += 1
                continue
            worst = max(worst, float(np.linalg.norm(h @ v - E * v) / norm))
            tested += 1
        if tested == 0:
            checks.append(skip(formula.name, note="all selected states degenerate here",
                               **params))
            continue
        ok = worst < EIGENSTATE_RESIDUAL_TOL
        note = f"{tested} states" + (f", {degenerate} degenerate skipped" if degenerate else "")
        if formula.group is not None:
            # alternative readings of one printed expression: record which
            # match, but leave the pass/fail verdict to the group summary
            status = "pass" if ok else "reading-mismatch"
            checks.append(Check(name=formula.name, params=params, residual=worst,
                                status=status, note=note))
            group_results.setdefault(formula.group, []).append(ok)
        else:
            checks.append(check(formula.name, ok, residual=worst, note=note, **params))

    for group, oks in sorted(group_results.items()):
        matches = sum(oks)
        checks.append(check(
            f"reading group '{group}'", matches >= 1, residual=0.0,
            note=f"{matches}/{len(oks)} readings match the computed eigenvectors",
            f=f, gamma=gamma, lam=lam))
    return checks


def parity_reflected_spectrum(f: int, gamma: float, lam: float) -> np.ndarray:
    """Spectrum at ``-lam``; equals the spectrum at ``+lam`` because the
    quanta parity ``(-1)^N`` flips the drive term and fixes the rest."""
    return solve_spectrum(f, gamma, -lam).all_eigenvalues()


def brute_force_eigenvalues(f: int, gamma: float, lam: float) -> np.ndarray:
    """Independent oracle: diagonalize ``H`` on the plain occupation basis of
    the 0+1+2-quanta space, with no momentum machinery."""
    basis = enumerate_basis(f, at_most(2))
    h = build_hamiltonian(f, gamma, lam, basis)
    return np.sort(np.linalg.eigvalsh(h.matrix))
