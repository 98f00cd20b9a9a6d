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

from .momentum import (MomentumLabel, PencilStack, expected_block_dimension, pencil_stacks,
                       to_orbit_frame)

EIGH_HERMITICITY_TOL = 1e-10
RESIDUAL_TOL = 1e-9
# Largest accepted |gamma| and |lam|: far above the physical range (lam <= 0.5,
# gamma ~ 1..7) and well below where the absolute tolerances above start to
# fail (|lam| = 1e5 on a 48-site ring).
MAX_COUPLING = 1e3
# Largest accepted ring: the largest that the tests and CI run end to end.  A
# solve builds no array over the D = (f+1)(f+2)/2 states, and `_admit` bounds
# the bytes of every call.
MAX_SITES = 120
# The one budget of every request: the bytes :func:`_admit` predicts a call
# holds at its peak.  It admits a sweep of 471 couplings at f = 120.
MAX_BYTES = 32 << 20
# The terms of :func:`_admit` beyond its float64 arrays, traced and rounded up:
# a record (a block of a result or the result), a coupling's objects, and the
# bounded temporaries of the `eigh_checked` checks, of the inertia counts of
# `sweep` and of the CLI's level writer, CSV or JSON (the floats of a chunk
# and the text of one grid point).
_RECORD_BYTES = 448
_POINT_BYTES = 64
_FIXED_BYTES = 4 << 20
# Matrix entries per chunk of the hermiticity and residual checks of
# `eigh_checked` (1 MB of float64).  One coupling's stacks up to f = 48 and
# every block of a 101-point sweep at f = 15 fit in one chunk, so they are
# checked in one pass.
_CHECK_ENTRIES = 1 << 17
# Shifts per chunk of the inertia counts of `sweep` (`_uncounted`).  A count
# holds about eight arrays of its chunk, so its temporaries stay at 1 MB too.
_COUNT_ENTRIES = _CHECK_ENTRIES // 8
# Matrix entries of a stack over its whole grid up to which `sweep` runs one
# `eigh_checked` over all of it: on so few entries the checked `eigh` costs
# less than `eigvalsh` plus the fixed cost of the inertia certificate, whose
# Python overhead per stack does not shrink with the grid.
_EIGH_ENTRIES = 1 << 13


def _check_sites(f: int) -> int:
    """``f`` as an ``int``; rejects anything but an integer (``bool``
    included) in ``1..MAX_SITES`` before any array is built."""
    if isinstance(f, (bool, np.bool_)) or not isinstance(f, numbers.Integral):
        raise ValueError(f"site count f = {f!r} is not an integer")
    if not 1 <= f <= MAX_SITES:
        raise ValueError(f"site count f = {f!r} is outside [1, {MAX_SITES}]")
    return int(f)


def _is_real(value: object) -> bool:
    # a plain float or int is answered before the slower ABC check
    return type(value) in (float, int) or (isinstance(value, numbers.Real)
                                           and not isinstance(value, (bool, np.bool_)))


def _check_coupling(name: str, value: float) -> None:
    """Reject a coupling that is not a real number (``bool`` included), is
    NaN, or is larger than ``MAX_COUPLING`` in magnitude (infinities
    included)."""
    if not _is_real(value):
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
    d^2`` and ``L = sum d``, a call holds ``5 L`` float64 pencil entries (the
    fans of :class:`~qeslattice.momentum.PencilStack`, complex phases
    included), ``n_points L`` energies and ``n_points d_max^2`` matrix
    entries: one block's matrices over the grid for ``eigvalsh``, or the
    matrices and eigenvectors of half the grid for the ``eigh`` fallback of
    :func:`_certify` (``2 n_points S``, every block's matrices and
    eigenvectors at every coupling, with ``keeps_vectors``); ``f + 1``
    records per result (one, or one per coupling with ``keeps_vectors`` or
    ``per_point``); ``_POINT_BYTES`` per coupling; ``_FIXED_BYTES`` for the
    bounded temporaries, those of the CLI's level writer in CSV and JSON
    alike.  ``per_point`` is ``figure2``, one one-point sweep and one result per
    coupling: its sweeps take the ``eigh`` path, and it is bounded as that
    path over the whole grid, one block's matrices and eigenvectors at
    every coupling (``2 n_points d_max^2``)."""
    dims = [expected_block_dimension(f, nu) for nu in range(f // 2 + 1)]
    squares = sum(d * d for d in dims)
    # nu = 0 is the largest block
    matrices = 2 * squares if keeps_vectors else (1 + per_point) * dims[0] ** 2
    records = (f + 1) * (n_points if keeps_vectors or per_point else 1)
    predicted = (8 * (5 * sum(dims) + n_points * (sum(dims) + matrices)) + _RECORD_BYTES * records
                 + _POINT_BYTES * n_points + _FIXED_BYTES)
    if predicted > MAX_BYTES:
        raise ValueError(f"{n_points} couplings on f = {f} sites need about "
                         f"{predicted / 1e6:.2f} MB, more than the {MAX_BYTES / 1e6:.2f} MB budget")
    return predicted


def _checked(f: int, gamma: float, lams: Iterable[float],
             keeps_vectors: bool) -> tuple[int, np.ndarray]:
    """``f`` as an ``int`` and the couplings as a float array, after the
    site and coupling checks and the admission of both solve paths.

    The couplings are checked as :func:`_check_coupling` checks each in
    turn, and the error names the same first one that fails: one type pass
    up to the first value that is not a real number, then one array pass
    over the values before it."""
    f = _check_sites(f)
    _check_coupling("gamma", gamma)
    lams = list(lams)
    _admit(f, len(lams), keeps_vectors)
    real = next((i for i, lam in enumerate(lams) if not _is_real(lam)), len(lams))
    grid = np.array(lams[:real], dtype=float)
    outside = np.flatnonzero(~(np.abs(grid) <= MAX_COUPLING))  # NaN included
    if outside.size or real < len(lams):
        _check_coupling("lambda", lams[outside[0] if outside.size else real])
    return f, grid


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


def quanta_tags(coefficients: np.ndarray, quanta: np.ndarray,
                eigenvalues: np.ndarray) -> tuple[int, ...]:
    """Total-quanta sector of each eigenvector column, read in block
    coordinates; ``quanta`` is the sector of each block vector and
    ``eigenvalues`` the ascending levels of the columns.

    Every block vector lies in one sector and they are orthonormal, so a
    level's weight in sector ``n`` is its ``|c|^2`` summed over the columns
    of that sector, the same weight as summed over the occupation basis.
    The column phases of the gauge leave every ``|c|^2`` unchanged, so the
    real eigenvectors ``u`` of a gauged block give the same weights.

    Levels closer than ``RESIDUAL_TOL`` to their neighbour form one group,
    tagged as a whole: sector ``n`` gets ``round(sum of the group's weights
    in n)`` of its tags, lowest sector first.  Those sums do not change when
    the eigenvectors rotate inside a degenerate eigenspace, so rounding
    noise does not decide the tags.  The rounding is by largest remainder,
    ties to the lowest sector, so that the counts add up to the group's
    size.  A level on its own is tagged with its dominant sector.
    """
    mass = np.abs(coefficients) ** 2
    weights = np.array([mass[quanta == n].sum(axis=0) for n in range(3)])
    tags = np.argmax(weights, axis=0)
    close = np.diff(eigenvalues) <= RESIDUAL_TOL
    if close.any():
        starts = np.flatnonzero(~close) + 1
        for group in np.split(np.arange(eigenvalues.size), starts):
            total = weights[:, group].sum(axis=1)
            counts = np.floor(total).astype(int)
            ahead = np.argsort(counts - total, kind="stable")  # largest remainder first
            counts[ahead[:group.size - counts.sum()]] += 1
            tags[group] = np.repeat(np.arange(3), counts)
    return tuple(tags.tolist())


@dataclass(frozen=True)
class BlockSpectrum:
    """One solved momentum block, read-only.

    ``matrix`` is the block in the centre-of-mass gauge (real symmetric),
    ``phases`` its column phases and ``quanta`` the total quanta of each
    column (0 vacuum, 1, then 2s); ``eigenvalues`` are ascending and the
    columns of ``u`` the matching real eigenvectors of ``matrix``.  Built on
    first read: ``coefficients``, the eigenvectors ``P u`` in block
    coordinates, and ``hmatrix``, the block in the orbit frame, ``P B Pᴴ``
    (:func:`~qeslattice.momentum.to_orbit_frame`).  Nothing here is over
    the occupation basis: with the block's vectors as the columns of
    ``frame`` (:func:`~qeslattice.ops.build_momentum_vectors`, an oracle),
    the eigenvectors there are ``frame @ coefficients``.
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

    The block pencils ``B_BH + lam * B_drive`` are built once, as fans; each
    stack of equal-sized distinct blocks (``nu >= 0``) is then written at
    every coupling as one ``(n_lams, n_nu, d, d)`` array
    (:meth:`~qeslattice.momentum.PencilStack.matrices`) and diagonalized in one
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
    return _spectra(pencil_stacks(f, gamma), f, gamma, lams, grid) if lams else ()


def _spectra(stacks: Iterable[PencilStack], f: int, gamma: float, lams: list[float],
             grid: np.ndarray) -> tuple[SpectrumResult, ...]:
    """:func:`solve_spectra` on the ring's ``stacks``, for the couplings
    ``lams`` that :func:`_checked` has read into ``grid``."""
    spectra: list[list[BlockSpectrum]] = [[] for _ in lams]
    for stack in stacks:
        h = _read_only(stack.matrices(slice(None), grid[:, None]))
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


def _coupled_part(stack: PencilStack) -> PencilStack:
    """The coupled part of the ``k = pi`` block of an even ring ``f >= 4``,
    row ``0`` of ``stack``, read off its fan as a one-row fan of three
    columns with unit phases.

    The block's first column is the one-quantum head and its second the
    doubly occupied pair.  ``cos(pi/2)`` is exactly ``0``
    (:func:`~qeslattice.momentum._roots`), so the pair columns at ``s >= 1``
    have no diagonal and no hops, and only the head drives them, at even
    ``s``.  That drive ``z`` couples one combination of them, the third
    column, with entry ``-copysign(|z|, z[0])``; the other ``d - 3`` are
    zero levels at every coupling.  Raises ``ArithmeticError`` unless every
    entry that must vanish is exactly zero.
    """
    diag, drive = stack.diag[0], stack.drive[0]
    z = drive[1:]
    if diag[1:].any() or stack.hop[0].any() or z[::2].any():
        raise ArithmeticError("the zero levels of the k = pi block are not decoupled")
    return PencilStack(labels=stack.labels[:1], quanta=stack.quanta[:3],
                       phases=np.ones((1, 3), dtype=complex), head=stack.head[:1],
                       diag=np.array([[diag[0], 0.0]]), hop=np.zeros((1, 1)),
                       drive=np.array([[drive[0], -math.copysign(float(np.linalg.norm(z)), z[0])]]))


def _count_below(stack: PencilStack, blocks: np.ndarray, lams: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """The number of eigenvalues below ``x[i, r]`` of row ``blocks[r]`` of
    a stack of fans at coupling ``lams[r]``, for every shift ``i`` and row
    ``r`` of ``x``; ``-1`` where the count breaks down (a pivot that is not
    finite).

    The count is the number of negative pivots of the ``LDLᵀ``
    factorization of ``B(lam) - x`` (Sylvester's law of inertia), eliminating
    the vacuum first, then the pairs from the widest separation down to
    ``s = 0``, then the head.  Each pivot updates only the next pair of the
    path and the head, which are already coupled, so nothing fills in and a
    count costs ``O(d)``: the Sturm count of bisection (Kahan 1966; Demmel,
    Applied Numerical Linear Algebra, 5.3.4).  A pivot smaller than
    ``pivmin`` (the smallest normal float times the largest squared fan
    entry, at least 1) in magnitude is taken as ``-pivmin``, as in LAPACK's
    ``dstebz``."""
    # the fan's entries, (entry, row), in elimination order: the diagonal
    # (zero on the vacuum), the head's arm, each pair's hop to the wider pair
    # eliminated before it, and the head's diagonal
    vacuum = stack.drive.shape[1] - stack.diag.shape[1]
    drive = stack.drive[blocks] * lams[:, None]
    arm = np.concatenate([drive[:, :vacuum], drive[:, vacuum:][:, ::-1]], axis=1).T
    diag = np.pad(stack.diag[blocks, ::-1].T, ((vacuum, 0), (0, 0)))
    hops, head = stack.hop[blocks, ::-1].T, stack.head[blocks]
    largest = max(float(np.abs(a).max(initial=0.0)) for a in (arm, diag, hops, head))
    pivmin = np.finfo(float).tiny * max(1.0, largest ** 2)
    count = np.zeros(x.shape, dtype=np.int16)
    last = head - x
    p, q, u, w, tmp = (np.empty(x.shape) for _ in range(5))
    negative = np.empty(x.shape, dtype=bool)
    for k in range(arm.shape[0]):
        np.subtract(diag[k], x, out=q)
        z = arm[k]
        if k > vacuum:  # a pair next to the last one eliminated
            hop = hops[k - vacuum - 1]
            np.divide(hop * hop, p, out=tmp)
            q -= tmp
            np.multiply(u, -hop, out=w)
            w += z
            z = w
        np.less(q, pivmin, out=negative)
        count += negative
        if np.abs(q, out=tmp).min() < pivmin:
            q[tmp < pivmin] = -pivmin
        np.divide(z, q, out=u)  # what this pivot passes on: z / p to the next pair,
        np.multiply(z, u, out=tmp)  # z^2 / p to the head
        last -= tmp
        p, q = q, p
    count += last < pivmin
    count[~np.isfinite(last)] = -1
    return count


def _uncounted(stack: PencilStack, lams: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """The ``(block, coupling)`` rows of a stack of fans with a level that
    the inertia count does not certify, as a boolean ``(n_b, n)`` array;
    ``energies[b, j]`` are the ascending levels of row ``b`` at coupling
    ``lams[j]``.

    Level ``c`` with value ``E`` passes when ``#(< E - tau) <= c < #(< E +
    tau)`` (:func:`_count_below`, ``tau = RESIDUAL_TOL``): then the ``c``-th
    exact level lies within ``tau`` of ``E``, degenerate levels included.
    Both shifts of every level are counted in one pass, over chunks of the
    stack's rows of at most ``_COUNT_ENTRIES`` shifts."""
    n_b, n, d = energies.shape
    levels = energies.reshape(-1, d).T
    uncounted = np.zeros(n_b * n, dtype=bool)
    index = np.arange(d)[:, None]
    step = max(1, _COUNT_ENTRIES // (2 * d))
    for start in range(0, n_b * n, step):
        rows = np.arange(start, min(start + step, n_b * n))
        shifts = np.concatenate([levels[:, rows] - RESIDUAL_TOL, levels[:, rows] + RESIDUAL_TOL])
        count = _count_below(stack, rows // n, lams[rows % n], shifts)
        below, above = count[:d], count[d:]
        uncounted[rows] = ~np.all((0 <= below) & (below <= index) & (index < above), axis=0)
    return uncounted.reshape(n_b, n)


def _certify(stack: PencilStack, lams: np.ndarray, energies: np.ndarray) -> None:
    """Certify every level of :func:`_uncounted`'s arguments, or raise
    ``ArithmeticError``.

    The count can lose a sign to cancellation when a level sits on an
    eigenvalue of the trailing pair path.  The rows it leaves uncertified are
    diagonalized again by :func:`eigh_checked`, at most ``ceil(n / 2)`` of
    them at a time, and each of their levels must lie within ``RESIDUAL_TOL``
    of its ``eigh`` level."""
    rows = np.flatnonzero(_uncounted(stack, lams, energies))
    n = len(lams)
    step = -(-n // 2)
    for start in range(0, rows.size, step):
        block, point = np.divmod(rows[start:start + step], n)
        h = stack.matrices(block, lams[point])
        w = eigh_checked(h)[0]
        del h  # one chunk's matrices at a time
        if not np.max(np.abs(w - energies[block, point])) <= RESIDUAL_TOL:
            raise ArithmeticError("an eigvalsh level is more than RESIDUAL_TOL from its eigh level")


def _curves(stack: PencilStack, grid: np.ndarray) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """The ascending levels ``(n_b, n_points, d)`` of a stack of fans over
    ``grid`` and each row's quanta tags at the first point (:func:`sweep`)."""
    n_b, d = len(stack.labels), stack.quanta.size
    checked = grid.size if grid.size * n_b * d * d <= _EIGH_ENTRIES else 1
    w, v = eigh_checked(stack.matrices(slice(None), grid[:checked, None]))
    tags = [quanta_tags(v[0, i], stack.quanta, w[0, i]) for i in range(n_b)]
    energies = np.empty((n_b, grid.size, d))
    energies[:, :checked] = w.swapaxes(0, 1)
    if checked < grid.size:
        for i, curves in enumerate(energies):
            h = stack.matrices(i, grid[1:])
            curves[1:] = np.linalg.eigvalsh(h)
            del h  # one block's matrices at a time
        _certify(stack, grid[1:], energies[:, 1:])
    return energies, tags


def sweep(f: int, gamma: float, lambdas: Iterable[float]) -> SweepResult:
    """Eigenvalue curves over an ascending coupling grid.

    The block pencils ``B_BH + lam * B_drive`` are built once, real in the
    centre-of-mass gauge, one stack per block shape; curve ``c`` of a block
    is its ``c``-th ascending level at every grid point.  Each stack of
    distinct blocks (``nu >= 0``) is diagonalized with eigenvectors at the
    first grid point only, in one :func:`eigh_checked` call (so a one-point
    sweep is that call alone); its quanta tags are read from those
    eigenvectors in gauge coordinates (the block vectors are orthonormal and
    the gauge is unitary, :func:`quanta_tags`).  A stack with at most
    ``_EIGH_ENTRIES`` matrix entries over the whole grid (a short grid on a
    small ring, such as a reference table's) is instead diagonalized at
    every point in that one call, which costs less there than what follows.
    Otherwise, past the first point, each block's levels come from
    ``eigvalsh``, one block's grid at a time, and every one is certified by an
    inertia count instead of an eigenvector residual (:func:`_certify`):
    each block is a fan, a one-quantum head joined by the drive to a path
    of pair columns and, at ``nu = 0``, to the vacuum, so the count costs
    ``O(d)`` per level (:func:`_count_below`).  Each stack is stored as its
    fans (:class:`~qeslattice.momentum.PencilStack`): the count reads those
    entries, and every dense ``B(lam)`` that ``eigh`` and ``eigvalsh`` see
    is written from them when it is needed (``PencilStack.matrices``), so it
    is exactly symmetric and exactly zero outside its fan.

    Only the one-quantum row and column of a block depend on ``lam``, so
    each block is an arrowhead matrix over the ``lam``-independent rest.
    Every block but the ``k = pi`` block of an even ring ``f >= 4`` is an
    unreduced arrowhead: for ``lam != 0`` its levels are simple and strictly
    interlace the eigenvalues of the rest (O'Leary & Stewart, J. Comput.
    Phys. 90 (1990) 497), so no two curves cross and the ascending order,
    which the count certifies, is the continuation, on any grid.  The
    ``k = pi`` block is split first: only its three coupled levels are
    diagonalized (:func:`_coupled_part`, a fan too); its ``d - 3`` decoupled
    levels join them as exact zeros with tag ``2``, and the levels are
    sorted at each grid point like any block's (for ``gamma != 0`` a
    coupled level is zero only at ``lam = 0``, exactly).  A block ``-nu`` is
    the same real matrix (:mod:`~qeslattice.momentum`) and shares the
    energies and tags of ``nu``.  Rejects the inputs :func:`solve_spectra`
    rejects, empty or unsorted grids, and grids longer than ``MAX_BYTES``
    admits (:func:`_admit`: one block's matrices over the grid at a time),
    before any block is built.
    """
    f, grid = _sweep_grid(f, gamma, lambdas)
    return _sweep(pencil_stacks(f, gamma), f, gamma, grid)


def _sweep_grid(f: int, gamma: float, lambdas: Iterable[float]) -> tuple[int, np.ndarray]:
    """``f`` and the grid of :func:`sweep`, after its checks."""
    f, grid = _checked(f, gamma, lambdas, keeps_vectors=False)
    if grid.size == 0:
        raise ValueError("empty coupling grid")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("coupling grid must be strictly ascending")
    return f, grid


def _sweep_each(f: int, gamma: float, lambdas: Iterable[float]) -> list[SweepResult]:
    """One one-point :func:`sweep` per coupling of ``lambdas``, in that
    order, each with its own tags, on the ring's pencils built once.
    Rejects the inputs :func:`sweep` rejects, except that the couplings need
    not be distinct or sorted."""
    f, grid = _checked(f, gamma, lambdas, keeps_vectors=False)
    stacks = pencil_stacks(f, gamma)
    return [_sweep(stacks, f, gamma, grid[j:j + 1]) for j in range(grid.size)]


def _sweep(stacks: Iterable[PencilStack], f: int, gamma: float, grid: np.ndarray) -> SweepResult:
    """:func:`sweep` on the ring's ``stacks`` over a checked ``grid``."""
    block_sweeps = []
    for stack in stacks:
        split = int(2 * stack.labels[0].nu == f >= 4)  # the k = pi block, nu = f/2, comes first
        if len(stack.labels) > split:
            energies, tags = _curves(stack[split:], grid)
            block_sweeps += [BlockSweep(label=label, energies=curves, tags=block_tags)
                             for i, curves, block_tags in zip(range(split, len(stack.labels)),
                                                              energies, tags)
                             for label, _ in stack.blocks_of(i)]
        if split:
            (energies,), (tags,) = _curves(_coupled_part(stack), grid)
            zeros = stack.quanta.size - 3
            energies = np.hstack([energies, np.zeros((grid.size, zeros))])
            first = np.argsort(energies[0], kind="stable")
            tags = tuple(np.array(tags + (2,) * zeros)[first].tolist())
            block_sweeps += [BlockSweep(label=label, energies=np.sort(energies, axis=1), tags=tags)
                             for label, _ in stack.blocks_of(0)]
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
