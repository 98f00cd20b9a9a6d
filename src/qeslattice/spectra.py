"""Diagonalization of momentum blocks, coupling sweeps and band structure.

The restricted Hamiltonian is real symmetric in the occupation basis, so
every block spectrum is real and, by time reversal, the blocks for ``+nu``
and ``-nu`` are degenerate with complex-conjugate eigenvectors.  Every block
is solved in the centre-of-mass gauge of :mod:`~qeslattice.momentum`, where
it is real symmetric and the same matrix at ``nu`` and ``-nu``: only the
distinct blocks ``nu >= 0`` are diagonalized, and each pair ``+-nu`` gets the
same eigenvalues, with its eigenvectors carried back to the two orbit frames
by conjugate phases.  The ``+-nu`` degeneracy therefore holds by
construction; the tests and ``verify`` check it against blocks built
independently at ``-nu``.
Characteristic polynomials are assembled from eigenvalues (stable at these
dimensions) rather than by determinant expansion.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .fock import FockBasis, at_most, enumerate_basis
from .momentum import MomentumBlock, MomentumLabel, pencil_stacks
from .ops import build_hamiltonian, hermiticity_defect
from .reference import EIGENSTATE_FORMULAS, EIGENSTATE_RESIDUAL_TOL
from .report import Check, check, skip

EIGH_HERMITICITY_TOL = 1e-10
RESIDUAL_TOL = 1e-9
# Largest accepted |gamma| and |lam|: far above the physical range (lam <= 0.5,
# gamma ~ 1..7) and well below where the absolute tolerances above start to
# fail (|lam| = 1e5 on a 48-site ring).
MAX_COUPLING = 1e3
# Largest accepted ring.  A solve builds no array over the (f+1)(f+2)/2 = D
# occupation states and no block vectors, only the f/2 + 1 distinct block
# pencils (nu >= 0) of d ~ f/2 rows, in at most three real (n_nu, d, d)
# stacks, and their eigenvectors: three real arrays of about f^3 / 8 entries,
# 1.9 MB each at f = 120, and the complex orbit-frame coefficients of all f
# blocks, 7 MB, so memory grows as f^3.  `qeslattice spectrum --f 120` took
# 0.24 s and peaked at 45 MB RSS (whole process, ru_maxrss, 2-vCPU x86-64,
# one BLAS thread).  The cap bounds what a caller can
# still ask for: reading `.vectors` and `.eigenvectors` on every block builds
# dense arrays of 32 * D^2 bytes, about 1.74 GB at f = 120.
MAX_SITES = 120
# Largest accepted sweep, in output rows n_points * (f+1)(f+2)/2.  Every block
# has d^2 <= 3 (f+1)(f+2)/2, so one block's real (n_points, d, d) stack takes
# at most 8 * 3 * MAX_SWEEP_ROWS = 48 MB.  The largest accepted grid on the
# largest ring, `qeslattice sweep --f 120` over 270 points (1,992,870 rows),
# took 11.8 s and peaked at 133 MB RSS (whole process, ru_maxrss, 2-vCPU
# x86-64, one BLAS thread): the stacks, eigenvectors and step overlaps of one
# distinct block at a time plus the energy table; the CLI writes the CSV a
# grid point at a time.
MAX_SWEEP_ROWS = 2_000_000
# Levels whose energies at one grid point differ by at most this much,
# relative to the largest |E| of the block there (and at least absolutely),
# are one degenerate group for level tracking.
DEGENERACY_TOL = 1e-10


def _check_sites(f: int) -> int:
    """``f`` as an ``int``; rejects anything but an integer (``bool``
    included) in ``1..MAX_SITES`` before any array is built."""
    if isinstance(f, (bool, np.bool_)) or not isinstance(f, numbers.Integral):
        raise ValueError(f"site count f = {f!r} is not an integer")
    if not 1 <= f <= MAX_SITES:
        raise ValueError(f"site count f = {f!r} is outside [1, {MAX_SITES}]")
    return int(f)


def _check_coupling(name: str, value: float) -> None:
    """Reject a coupling that is not a real number (``bool`` included) or is
    larger than ``MAX_COUPLING`` in magnitude; NaN and infinities fail the
    comparison too."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} = {value!r} is not a real number")
    if not abs(value) <= MAX_COUPLING:
        raise ValueError(f"{name} = {value!r} is outside [-{MAX_COUPLING:g}, {MAX_COUPLING:g}]")


def _check_rows(f: int, n_points: int) -> None:
    """Reject a sweep of more than ``MAX_SWEEP_ROWS`` output rows."""
    dim = (f + 1) * (f + 2) // 2
    if n_points * dim > MAX_SWEEP_ROWS:
        raise ValueError(f"sweep of {n_points} couplings x {dim} levels has "
                         f"{n_points * dim} rows, more than {MAX_SWEEP_ROWS}")


def eigh_checked(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian
    matrix or of a stack ``(..., d, d)`` of them, in one ``eigh`` call.

    Raises on a matrix that deviates from self-adjointness by more than
    ``EIGH_HERMITICITY_TOL``; the residual ``|(H - E) v|`` of every pair is
    verified to be below ``RESIDUAL_TOL``.
    """
    if hermiticity_defect(h) > EIGH_HERMITICITY_TOL:
        raise ValueError("block matrix is not Hermitian")
    w, v = np.linalg.eigh(h)
    residual = np.max(np.abs(h @ v - v * w[..., None, :]))
    if residual > RESIDUAL_TOL:
        raise ArithmeticError(f"eigenpair residual {residual:.2e} exceeds {RESIDUAL_TOL}")
    return w, v


def quanta_tags(coefficients: np.ndarray, quanta: np.ndarray) -> tuple[int, ...]:
    """Dominant total-quanta sector of each eigenvector column, read in
    block coordinates; ``quanta`` is the sector of each block vector.

    Every block vector lies in one sector and they are orthonormal, so a
    level's weight in sector ``n`` is its ``|c|^2`` summed over the columns
    of that sector, the same weight as summed over the occupation basis.
    Ties go to the lowest sector.
    """
    mass = np.abs(coefficients) ** 2
    sectors = [mass[quanta == n].sum(axis=0) for n in range(3)]
    return tuple(np.argmax(sectors, axis=0).tolist())


@dataclass(frozen=True)
class BlockSpectrum:
    """Sorted spectrum of one momentum block.

    ``coefficients`` holds the eigenvectors as columns in block coordinates;
    ``eigenvectors`` is ``block.vectors @ coefficients``, columns over the
    occupation basis, built on first read.
    """

    block: MomentumBlock
    eigenvalues: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        self.eigenvalues.setflags(write=False)
        self.coefficients.setflags(write=False)

    @property
    def label(self) -> MomentumLabel:
        return self.block.label

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        v = self.block.vectors @ self.coefficients
        v.setflags(write=False)
        return v


@dataclass(frozen=True)
class SpectrumResult:
    """Full block-resolved spectrum at one parameter point; ``basis`` is the
    occupation basis, enumerated on first read."""

    f: int
    gamma: float
    lam: float
    blocks: tuple[BlockSpectrum, ...]

    @cached_property
    def basis(self) -> FockBasis:
        return enumerate_basis(self.f, at_most(2))

    def block_for(self, nu: int) -> BlockSpectrum:
        for bs in self.blocks:
            if bs.label.nu == nu:
                return bs
        raise KeyError(f"no block with nu={nu}")

    def all_eigenvalues(self) -> np.ndarray:
        return np.sort(np.concatenate([bs.eigenvalues for bs in self.blocks]))


def solve_spectrum(f: int, gamma: float, lam: float) -> SpectrumResult:
    """Assemble all momentum blocks of ``H`` and diagonalize them, one real
    :func:`eigh_checked` call per stack of equal-sized distinct blocks
    (``nu >= 0``); each block's ``coefficients`` are its eigenvectors in the
    orbit frame, and a block ``-nu`` shares the eigenvalues of ``nu`` and
    has the conjugate coefficients.

    Raises ``ValueError`` for a ring size ``f`` that is not an integer in
    ``1..MAX_SITES``, and for a coupling that is not a real number, is not
    finite or is larger than ``MAX_COUPLING`` in magnitude.  Blocks are
    returned ``nu`` descending.
    """
    f = _check_sites(f)
    _check_coupling("gamma", gamma)
    _check_coupling("lambda", lam)
    spectra = []
    for stack in pencil_stacks(f, gamma):
        h = stack.matrix(lam)
        w, v = eigh_checked(h)
        # P u: back to the orbit frame
        spectra += [BlockSpectrum(block=block, eigenvalues=w[i],
                                  coefficients=block.phases[:, None] * v[i])
                    for i, block in stack.blocks(h)]
    spectra.sort(key=lambda bs: -bs.label.nu)
    return SpectrumResult(f=f, gamma=gamma, lam=lam, blocks=tuple(spectra))


def char_poly(block: MomentumBlock) -> np.ndarray:
    """Monic real characteristic polynomial of a block, highest power first.

    Built as ``prod (E - E_i)`` from the eigenvalues of ``block.matrix``
    (the block in its gauge, same spectrum); imaginary residues are checked
    against ``1e-10`` and discarded.
    """
    w, _ = eigh_checked(block.matrix)
    coeffs = np.poly(w)
    if np.iscomplexobj(coeffs):
        if float(np.max(np.abs(coeffs.imag))) > 1e-10:
            raise ArithmeticError("characteristic polynomial has complex coefficients")
        coeffs = coeffs.real
    return coeffs


def _real_grid(points: list) -> np.ndarray:
    """The couplings as a float array; rejects the first one that is not a
    real number (``bool`` included)."""
    grid = np.asarray(points)
    if grid.ndim != 1 or grid.dtype.kind not in "iuf":
        for lam in points:
            _check_coupling("lambda", lam)
        raise ValueError(f"coupling grid {points!r} is not a list of real numbers")
    return grid.astype(float)


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


def _assignment(overlap: np.ndarray) -> np.ndarray:
    """``order[r]``: the column matched to row ``r`` by the optimal
    assignment of ``overlap``, which maximizes the summed overlap."""
    from scipy.optimize import linear_sum_assignment  # slow import, rarely needed

    rows, cols = linear_sum_assignment(-overlap)
    order = np.empty_like(cols)
    order[rows] = cols
    return order


def _tied_runs(tied: np.ndarray) -> list[tuple[int, int]]:
    """``(first, last)`` positions of each run of neighbours tied at one
    grid point, from the ``d - 1`` flags ``tied[j]``: ``j`` and ``j + 1``
    are tied."""
    edges = np.diff(np.concatenate(([0], tied.astype(np.int8), [0])))
    return list(zip(np.flatnonzero(edges == 1).tolist(), np.flatnonzero(edges == -1).tolist()))


def _clear_matches(overlap: np.ndarray, tied: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a stack ``(n, d, d)`` of overlaps between orthonormal bases, rows
    grouped by the ties ``(n, d - 1)`` between neighbouring rows (see
    :func:`_tied_runs`): the columns each group of ``g`` rows takes, and per
    matrix whether the match is clear.

    A group takes the ``g`` columns of largest summed squared overlap over
    its rows, its *mass* in each column; for an untied row (``g = 1``) that
    is its largest overlap.  The match is clear when every taken mass
    exceeds ``1/2`` and no column is taken twice.  With no ties a clear
    match is the unique optimal assignment: a row of unit norm holds no
    second overlap above ``sqrt(1 - 1/2)``, so any other assignment loses
    overlap in every row it changes.  A group's mass in a column is the
    squared norm of the column's projection onto the group's span, so it
    does not change under rotations inside a degenerate eigenspace, where
    the overlaps of single rows do; the order of the columns inside a group
    is left to the caller."""
    step = overlap.argmax(axis=-1)
    peak = np.take_along_axis(overlap, step[..., None], axis=-1)[..., 0]
    clear = peak > math.sqrt(0.5)
    for i in np.flatnonzero(tied.any(axis=-1)):
        for first, last in _tied_runs(tied[i]):
            rows = slice(first, last + 1)
            mass = np.square(overlap[i, rows]).sum(axis=0)
            taken = np.argsort(-mass, kind="stable")[:last + 1 - first]
            step[i, rows] = taken
            clear[i, rows] = mass[taken] > 0.5
    distinct = (np.sort(step, axis=-1) == np.arange(step.shape[-1])).all(axis=-1)
    return step, distinct & clear.all(axis=-1)


def track_levels(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Follow each eigenvalue curve over a grid: ``order[i, c]`` is the
    position of curve ``c`` among the ascending eigenvalues ``w[i]`` of grid
    point ``i``, and curve ``c`` starts at position ``c``.

    Adjacent points are paired by the optimal assignment of the overlaps
    ``|V_iᴴ V_{i+1}|`` of their orthonormal eigenvectors ``v[i]``, all
    computed in one batched product.  Curves that are one degenerate group
    at point ``i`` (energies within ``DEGENERACY_TOL``) are matched as a
    group.  Where the overlaps give a clear match (:func:`_clear_matches`)
    it is used as it is; only the other steps solve the assignment.  A
    degenerate group takes its continuations at ``i + 1`` in ascending
    energy, so the order inside a degenerate eigenspace does not depend on
    the basis ``eigh`` returned for it.
    """
    n, d = w.shape
    order = np.empty((n, d), dtype=np.intp)
    order[0] = np.arange(d)
    left = v[:-1].swapaxes(-1, -2)
    overlap = np.abs((left.conj() if np.iscomplexobj(left) else left) @ v[1:])
    scale = DEGENERACY_TOL * np.maximum(1.0, np.abs(w[:-1]).max(axis=1, keepdims=True))
    tied = np.diff(w[:-1], axis=1) <= scale
    step, clear = _clear_matches(overlap, tied)
    for i in np.flatnonzero(~clear):
        step[i] = _assignment(overlap[i])
    # the curves keep their positions across every other step
    moving = (step != order[0]).any(axis=1) | tied.any(axis=1)
    here, start = order[0], 0
    for i in np.flatnonzero(moving):
        order[start:i + 1] = here
        ahead = step[i, here]
        for first, last in _tied_runs(tied[i]):
            group = (here >= first) & (here <= last)
            ahead[group] = np.sort(ahead[group])
        here, start = ahead, i + 1
    order[start:] = here
    return order


def sweep(f: int, gamma: float, lambdas: Iterable[float]) -> SweepResult:
    """Eigenvalue curves over an ascending coupling grid.

    The block pencils ``B_BH + lam * B_drive`` are built once, real in the
    centre-of-mass gauge; each distinct block's (``nu >= 0``) whole grid is
    then one stack of ``(n_points, d, d)`` matrices, diagonalized in one
    :func:`eigh_checked` call, and its levels are followed across the grid
    by :func:`track_levels`, which keeps each column of the table on one
    physical curve even where curves cross.  The block vectors are
    orthonormal and the gauge is unitary, so overlaps and quanta tags are
    read in gauge coordinates.  A block ``-nu`` is the same real matrix
    (:mod:`~qeslattice.momentum`) and shares the energies and tags of
    ``nu``.  Rejects the inputs :func:`solve_spectrum`
    rejects, empty or unsorted grids and grids of more than
    ``MAX_SWEEP_ROWS`` output rows, before any block is built.
    """
    f = _check_sites(f)
    grid = _real_grid(list(lambdas))
    if grid.size == 0:
        raise ValueError("empty coupling grid")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("coupling grid must be strictly ascending")
    _check_rows(f, grid.size)
    _check_coupling("gamma", gamma)
    for lam in grid:
        _check_coupling("lambda", float(lam))

    block_sweeps = []
    for stack in pencil_stacks(f, gamma):
        for i in range(len(stack.labels)):
            w, v = eigh_checked(stack.b_bh[i] + np.multiply.outer(grid, stack.b_drive[i]))
            energies = np.take_along_axis(w, track_levels(w, v), axis=1)
            tags = quanta_tags(v[0], stack.quanta)
            block_sweeps += [BlockSweep(label=label, energies=energies, tags=tags)
                             for label, _ in stack.blocks_of(i)]
    block_sweeps.sort(key=lambda bs: -bs.label.nu)
    return SweepResult(f=f, gamma=gamma, lambdas=grid, blocks=tuple(block_sweeps))


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
    h = build_hamiltonian(f, gamma, lam, result.basis)
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


def brute_force_eigenvalues(f: int, gamma: float, lam: float) -> np.ndarray:
    """Independent oracle: diagonalize ``H`` on the plain occupation basis of
    the 0+1+2-quanta space, with no momentum machinery."""
    basis = enumerate_basis(f, at_most(2))
    return np.sort(np.linalg.eigvalsh(build_hamiltonian(f, gamma, lam, basis)))
