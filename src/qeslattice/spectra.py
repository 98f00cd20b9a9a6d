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
independently at ``-nu`` by :mod:`~qeslattice.ops`, which nothing here imports.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .momentum import (MomentumLabel, block_frame, expected_block_dimension, pencil_stacks,
                       to_orbit_frame)

EIGH_HERMITICITY_TOL = 1e-10
RESIDUAL_TOL = 1e-9
# Largest accepted |gamma| and |lam|: far above the physical range (lam <= 0.5,
# gamma ~ 1..7) and well below where the absolute tolerances above start to
# fail (|lam| = 1e5 on a 48-site ring).
MAX_COUPLING = 1e3
# Largest accepted ring.  A solve builds no array over the D = (f+1)(f+2)/2
# states, but `.vectors` and `.eigenvectors` of every block take 32 D^2 bytes.
MAX_SITES = 120
# The one budget of every request: the bytes :func:`_admit` predicts a call
# holds at its peak.  It admits a sweep of 273 couplings at f = 120.
MAX_BYTES = 32 << 20
# The terms of :func:`_admit` beyond its float64 arrays, traced and rounded up:
# a record (a block of a result or the result), a coupling's objects, and the
# bounded temporaries of the `eigh_checked` checks and of the CLI's CSV writer.
_RECORD_BYTES = 448
_POINT_BYTES = 64
_FIXED_BYTES = 4 << 20
# Matrix entries per chunk of the hermiticity and residual checks of
# `eigh_checked` (1 MB of float64).  One coupling's stacks up to f = 48 and
# every block of a 101-point sweep at f = 15 fit in one chunk, so they are
# checked in one pass.
_CHECK_ENTRIES = 1 << 17


def _check_sites(f: int) -> int:
    """``f`` as an ``int``; rejects anything but an integer (``bool``
    included) in ``1..MAX_SITES`` before any array is built."""
    if isinstance(f, (bool, np.bool_)) or not isinstance(f, numbers.Integral):
        raise ValueError(f"site count f = {f!r} is not an integer")
    if not 1 <= f <= MAX_SITES:
        raise ValueError(f"site count f = {f!r} is outside [1, {MAX_SITES}]")
    return int(f)


def _check_coupling(name: str, value: float) -> None:
    """Reject a coupling that is not a real number (``bool`` included), is
    NaN, or is larger than ``MAX_COUPLING`` in magnitude (infinities
    included)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} = {value!r} is not a real number")
    if math.isnan(value):
        raise ValueError(f"{name} = {value!r} is not a finite number")
    if not abs(value) <= MAX_COUPLING:
        raise ValueError(f"{name} = {value!r} is outside [-{MAX_COUPLING:g}, {MAX_COUPLING:g}]")


def _admit(f: int, n_points: int, keeps_vectors: bool, per_point: bool = False) -> int:
    """The bytes a call on ``f`` sites holds at its peak when it solves
    ``n_points`` couplings, from the block shapes alone; ``ValueError`` if
    that is more than ``MAX_BYTES``, before any array is built.

    With ``d`` the dimensions of the distinct blocks ``nu >= 0``, ``S = sum
    d^2`` and ``L = sum d``, a call holds ``2 S`` float64 pencil entries,
    ``n_points L`` energies and one block's matrices and eigenvectors over
    the grid, ``2 n_points d_max^2`` (every block's at every coupling, ``2
    n_points S``, with ``keeps_vectors``); ``f + 1`` records per result (one,
    or one per coupling with ``keeps_vectors`` or ``per_point``: ``figure2``,
    bounded as one sweep); ``_POINT_BYTES`` per coupling; ``_FIXED_BYTES``."""
    dims = [expected_block_dimension(f, nu) for nu in range(f // 2 + 1)]
    squares = sum(d * d for d in dims)
    stacks = squares if keeps_vectors else dims[0] ** 2  # nu = 0 is the largest block
    records = (f + 1) * (n_points if keeps_vectors or per_point else 1)
    predicted = (8 * (2 * squares + n_points * (sum(dims) + 2 * stacks)) + _RECORD_BYTES * records
                 + _POINT_BYTES * n_points + _FIXED_BYTES)
    if predicted > MAX_BYTES:
        raise ValueError(f"{n_points} couplings on f = {f} sites need about "
                         f"{predicted / 1e6:.2f} MB, more than the {MAX_BYTES / 1e6:.2f} MB budget")
    return predicted


def _checked(f: int, gamma: float, lams: Iterable[float],
             keeps_vectors: bool) -> tuple[int, np.ndarray]:
    """``f`` as an ``int`` and the couplings as a float array, after the
    site and coupling checks and the admission of both solve paths."""
    f = _check_sites(f)
    _check_coupling("gamma", gamma)
    lams = list(lams)
    _admit(f, len(lams), keeps_vectors)
    for lam in lams:
        _check_coupling("lambda", lam)
    return f, np.array(lams, dtype=float)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of a square matrix, or of a stack
    ``(..., d, d)`` of them, from self-adjointness."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("hermiticity is defined for square matrices only")
    return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2))))


def eigh_checked(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian
    matrix or of a stack ``(..., d, d)`` of them, in one ``eigh`` call.

    Raises on a matrix that deviates from self-adjointness by more than
    ``EIGH_HERMITICITY_TOL``; the residual ``|(H - E) v|`` of every pair is
    verified to be below ``RESIDUAL_TOL``.  Both checks take their maximum
    over chunks of at most ``_CHECK_ENTRIES`` matrix entries, so their
    temporaries stay that small whatever the stack.
    """
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError("hermiticity is defined for square matrices only")
    d = h.shape[-1]
    stack = h.reshape(-1, d, d)
    step = max(1, _CHECK_ENTRIES // (d * d))
    chunks = [slice(i, i + step) for i in range(0, len(stack), step)]
    if max(hermiticity_defect(stack[c]) for c in chunks) > EIGH_HERMITICITY_TOL:
        raise ValueError("block matrix is not Hermitian")
    w, v = np.linalg.eigh(h)
    ws, vs = w.reshape(-1, 1, d), v.reshape(stack.shape)
    residual = max(np.max(np.abs(stack[c] @ vs[c] - vs[c] * ws[c])) for c in chunks)
    if residual > RESIDUAL_TOL:
        raise ArithmeticError(f"eigenpair residual {residual:.2e} exceeds {RESIDUAL_TOL}")
    return w, v


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def quanta_tags(coefficients: np.ndarray, quanta: np.ndarray) -> tuple[int, ...]:
    """Dominant total-quanta sector of each eigenvector column, read in
    block coordinates; ``quanta`` is the sector of each block vector.

    Every block vector lies in one sector and they are orthonormal, so a
    level's weight in sector ``n`` is its ``|c|^2`` summed over the columns
    of that sector, the same weight as summed over the occupation basis.
    The column phases of the gauge leave every ``|c|^2`` unchanged, so the
    real eigenvectors ``u`` of a gauged block give the same weights.  Ties
    go to the lowest sector.
    """
    mass = np.abs(coefficients) ** 2
    sectors = [mass[quanta == n].sum(axis=0) for n in range(3)]
    return tuple(np.argmax(sectors, axis=0).tolist())


@dataclass(frozen=True)
class BlockSpectrum:
    """One solved momentum block, read-only.

    ``matrix`` is the block in the centre-of-mass gauge (real symmetric),
    ``phases`` its column phases and ``quanta`` the total quanta of each
    column (0 vacuum, 1, then 2s); ``eigenvalues`` are ascending and the
    columns of ``u`` the matching real eigenvectors of ``matrix``.  Built on
    first read: ``coefficients``, the eigenvectors ``P u`` in block
    coordinates; ``hmatrix``, the block in the orbit frame, ``P B Pᴴ``
    (:func:`~qeslattice.momentum.to_orbit_frame`); ``vectors``, the block
    basis as dense columns over the occupation basis, ordered vacuum
    (``nu = 0`` only), one-quantum vector, then two-quanta vectors by
    increasing pair separation (:func:`~qeslattice.momentum.block_frame`);
    and ``eigenvectors``, ``vectors @ coefficients``.
    """

    label: MomentumLabel
    matrix: np.ndarray
    phases: np.ndarray
    quanta: np.ndarray
    eigenvalues: np.ndarray
    u: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def coefficients(self) -> np.ndarray:
        return _read_only(self.phases[:, None] * self.u)

    @cached_property
    def hmatrix(self) -> np.ndarray:
        return _read_only(to_orbit_frame(self.matrix, self.phases))

    @cached_property
    def vectors(self) -> np.ndarray:
        return block_frame(self.label)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        return _read_only(self.vectors @ self.coefficients)


@dataclass(frozen=True)
class SpectrumResult:
    """Full block-resolved spectrum at one parameter point."""

    f: int
    gamma: float
    lam: float
    blocks: tuple[BlockSpectrum, ...]

    def block_for(self, nu: int) -> BlockSpectrum:
        for bs in self.blocks:
            if bs.label.nu == nu:
                return bs
        raise KeyError(f"no block with nu={nu}")

    def all_eigenvalues(self) -> np.ndarray:
        return np.sort(np.concatenate([bs.eigenvalues for bs in self.blocks]))


def solve_spectra(f: int, gamma: float, lams: Iterable[float]) -> tuple[SpectrumResult, ...]:
    """The spectrum of one ring at each coupling of ``lams``, in that order.

    The block pencils ``B_BH + lam * B_drive`` are built once; each stack of
    equal-sized distinct blocks (``nu >= 0``) is then evaluated at every
    coupling as one ``(n_lams, n_nu, d, d)`` array and diagonalized in one
    real :func:`eigh_checked` call.  ``eigh`` solves every matrix of a stack
    on its own, so a level does not depend on which other couplings it was
    solved with.  A block ``-nu`` shares the matrix, eigenvalues and real
    eigenvectors ``u`` of ``nu`` and has the conjugate phases.

    Raises ``ValueError`` for a ring size ``f`` that is not an integer in
    ``1..MAX_SITES``, for a coupling that is not a real number, is not
    finite or is larger than ``MAX_COUPLING`` in magnitude, and for more
    couplings than ``MAX_BYTES`` admits (:func:`_admit`: each keeps the
    matrices and eigenvectors of every distinct block), before any block is
    built.  The couplings need not be distinct or sorted; an empty
    ``lams`` gives ``()``.  Blocks are returned ``nu`` descending.
    """
    lams = list(lams)
    f, grid = _checked(f, gamma, lams, keeps_vectors=True)
    if not lams:
        return ()
    spectra: list[list[BlockSpectrum]] = [[] for _ in lams]
    for stack in pencil_stacks(f, gamma):
        h = _read_only(stack.b_bh + grid[:, None, None, None] * stack.b_drive)
        w, v = map(_read_only, eigh_checked(h))
        blocks = [(i, label, phases) for i in range(len(stack.labels))
                  for label, phases in stack.blocks_of(i)]
        for j, point in enumerate(spectra):
            point += [BlockSpectrum(label=label, matrix=h[j, i], phases=phases,
                                    quanta=stack.quanta, eigenvalues=w[j, i], u=v[j, i])
                      for i, label, phases in blocks]
    return tuple(SpectrumResult(f=f, gamma=gamma, lam=lam,
                                blocks=tuple(sorted(point, key=lambda bs: -bs.label.nu)))
                 for lam, point in zip(lams, spectra))


def solve_spectrum(f: int, gamma: float, lam: float) -> SpectrumResult:
    """The spectrum at one coupling, ``solve_spectra(f, gamma, [lam])[0]``:
    every momentum block of ``H``, diagonalized."""
    return solve_spectra(f, gamma, [lam])[0]


@dataclass(frozen=True)
class BlockSweep:
    """Eigenvalue curves of one block over a coupling grid.

    Row ``i`` of ``energies`` belongs to grid point ``i``; column ``c`` is
    one level curve, the block's ``c``-th level in ascending order at every
    grid point, the ``k = pi`` block's exact zeros included (:func:`sweep`
    says why that is the continuation).  ``tags`` carries the quanta label
    each curve has at the first grid point.
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


def _coupled_part(b_bh: np.ndarray, b_drive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``3 x 3`` coupled pencil of the ``k = pi`` block of an even ring
    ``f >= 4``, read off its entries.

    The block's first column is the one-quantum vector and its second the
    doubly occupied pair.  ``cos(pi/2)`` is exactly ``0``
    (:func:`~qeslattice.momentum._roots`), so the pair columns at ``s >= 1``
    have no diagonal and no hops, and only the one-quantum row drives them,
    at even ``s``.  That drive row ``z`` couples one combination of them,
    the third column, with entry ``-copysign(|z|, z[0])``; the other
    ``d - 3`` are zero levels at every coupling.  Raises ``ArithmeticError``
    unless every entry that must vanish is exactly zero.
    """
    z = b_drive[0, 2:]
    if b_bh[2:].any() or b_bh[:, 2:].any() or b_drive[1:, 1:].any() or z[::2].any():
        raise ArithmeticError("the zero levels of the k = pi block are not decoupled")
    drive = (b_drive[0, 1], -math.copysign(float(np.linalg.norm(z)), z[0]))
    coupled_drive = np.zeros((3, 3))
    coupled_drive[0, 1:] = coupled_drive[1:, 0] = drive
    return np.pad(b_bh[:2, :2], (0, 1)), coupled_drive


def sweep(f: int, gamma: float, lambdas: Iterable[float]) -> SweepResult:
    """Eigenvalue curves over an ascending coupling grid.

    The block pencils ``B_BH + lam * B_drive`` are built once, real in the
    centre-of-mass gauge; each distinct block's (``nu >= 0``) whole grid is
    then one stack of ``(n_points, d, d)`` matrices, diagonalized in one
    :func:`eigh_checked` call, and curve ``c`` of the block is its ``c``-th
    ascending level at every grid point.  Only the one-quantum row and
    column of a block depend on ``lam``, so each block is an arrowhead
    matrix over the ``lam``-independent rest.  Every block but the
    ``k = pi`` block of an even ring ``f >= 4`` is an unreduced arrowhead:
    for ``lam != 0`` its levels are simple and strictly interlace the
    eigenvalues of the rest (O'Leary & Stewart, J. Comput. Phys. 90 (1990)
    497), so no two curves cross and the ascending order is the
    continuation, on any grid.  The ``k = pi`` block is split first: only
    its three coupled levels are diagonalized (:func:`_coupled_part`); its
    ``d - 3`` decoupled levels join them as exact zeros with tag ``2``, and
    the levels are sorted at each grid point like any block's (for
    ``gamma != 0`` a coupled level is zero only at ``lam = 0``, exactly).
    Quanta tags are read from the eigenvectors at the first grid point, in
    gauge coordinates (the block vectors are orthonormal and the gauge is
    unitary).  A block ``-nu`` is the same real matrix
    (:mod:`~qeslattice.momentum`) and shares the energies and tags of
    ``nu``.  Rejects the inputs :func:`solve_spectra` rejects, empty or
    unsorted grids, and grids longer than ``MAX_BYTES`` admits
    (:func:`_admit`: one block's matrices and eigenvectors at a time), before
    any block is built.
    """
    f, grid = _checked(f, gamma, lambdas, keeps_vectors=False)
    if grid.size == 0:
        raise ValueError("empty coupling grid")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("coupling grid must be strictly ascending")

    block_sweeps = []
    for stack in pencil_stacks(f, gamma):
        for i, label in enumerate(stack.labels):
            b_bh, b_drive = stack.b_bh[i], stack.b_drive[i]
            split = 2 * label.nu == f >= 4
            if split:
                b_bh, b_drive = _coupled_part(b_bh, b_drive)
            energies, v = eigh_checked(b_bh + np.multiply.outer(grid, b_drive))
            tags = quanta_tags(v[0], stack.quanta[:energies.shape[1]])
            del v  # one block's eigenvectors at a time
            if split:
                zeros = stack.quanta.size - 3
                energies = np.hstack([energies, np.zeros((grid.size, zeros))])
                first = np.argsort(energies[0], kind="stable")
                tags = tuple(np.array(tags + (2,) * zeros)[first].tolist())
                energies = np.sort(energies, axis=1)
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
