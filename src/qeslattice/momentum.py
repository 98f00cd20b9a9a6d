"""Translation-adapted momentum basis of the 0+1+2-quanta subspace.

The translation operator ``T`` commutes with the full Hamiltonian, so the
restriction of ``H`` to the invariant subspace splits into Hermitian blocks
labelled by a discrete momentum ``k = 2*pi*nu/f``:

* odd ``f``:  ``nu = (f-1)/2, (f-3)/2, ..., -(f-1)/2``
* even ``f``: ``nu = f/2, f/2-1, ..., -f/2+1``

Each block is spanned by Fourier combinations of translation orbits,

    ``psi(k) = (1/sqrt(P)) * sum_{r=0}^{P-1} (e^{ik} T)^r |seed>``

with seeds ``|100...0>`` (one quantum), ``|200...0>`` and the two-quantum
pairs ``|10...010...0>`` with ``b-2`` zeros between the ones; the vacuum is
the one-member orbit of ``|00...0>``.  ``P`` is the orbit period: ``f`` for
most seeds, ``1`` for the vacuum and ``f/2`` for the antipodal pair on even
rings.  This is the Fourier sum over all ``f`` translates, normalized: it
vanishes unless ``e^{ikP} = 1`` (``nu * P`` divisible by ``f``), so the
vacuum joins ``nu = 0`` only and the antipodal pair the even ``nu``.  The
resulting block dimensions are

* odd ``f``:  one block of ``(f+5)/2`` (``nu = 0``) and ``f-1`` blocks of
  ``(f+3)/2``;
* even ``f``: one block of ``(f+6)/2`` (``nu = 0``), ``f/2`` blocks of
  ``(f+2)/2`` (odd ``nu``) and ``(f-2)/2`` blocks of ``(f+4)/2``
  (even ``nu != 0``),

which always total ``(f+1)(f+2)/2``.

:func:`block_pencil` builds every block directly, the standard
momentum-state construction, as a pencil in the drive coupling: ``H`` (with
``lam = 1``) is applied once to each seed
(:func:`~qeslattice.ops.apply_hamiltonian`), every image is mapped to its
orbit representative ``a`` and shift ``r`` (image ``= T^r |a>``), and

    ``B_k[a, b] = sqrt(P_b / P_a) * sum_images h * e^{-ik r}``.

``H_BH`` keeps the total quanta of a state and the drive moves it by one, so
each entry comes from one term group only: entries between seeds of equal
total quanta form ``B_BH``, the others ``B_drive``, and the block at any
coupling is ``B(lam) = B_BH + lam * B_drive`` exactly.
:func:`assemble_h_r` evaluates that pencil at one ``lam``; a coupling sweep
builds it once and evaluates it on the whole grid.

Each block's vectors are held as an :class:`OrbitFrame`, the nonzeros of
the ``D x d`` matrix ``V`` of block vectors: one entry per member of each
surviving orbit, its row in the basis, its column and its amplitude
``e^{ikr}/sqrt(P)``.  Distinct orbits share no occupation state, so
``V^H V = I`` reduces to distinct rows (checked once per orbit table) and
unit column norms (checked per block), ``O(D)`` work.  No ``H`` and no array
over the occupation basis is built: the images of all seeds take ``O(f^2)``
work in total, and the dense ``V`` exists only once ``.vectors`` is read.
This is the production path.
:func:`project_block` (``V^H H V`` with an explicitly built dense ``H``) is
its independent oracle; :func:`closed_form_h22` and :func:`closed_form_h12`
transcribe the known closed-form per-``nu`` blocks and are cross-checks as
well.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import FockBasis, Occupation, at_most, enumerate_basis, translate
from .ops import apply_hamiltonian

GRAM_TOL = 1e-10


@dataclass(frozen=True)
class MomentumLabel:
    """Discrete momentum label ``nu`` on a ring of ``f`` sites."""

    f: int
    nu: int

    @property
    def k(self) -> float:
        return 2.0 * math.pi * self.nu / self.f

    @property
    def translation_eigenvalue(self) -> complex:
        """Eigenvalue of ``T`` on this block's vectors (``e^{-ik}`` under the
        phase convention used in :func:`build_momentum_vectors`)."""
        return cmath.exp(-1j * self.k)


@dataclass(frozen=True)
class OrbitFrame:
    """Block vectors ``V`` (``size x dim``, columns over the occupation
    basis) held as their nonzeros: entry ``i`` is ``V[rows[i], cols[i]] =
    amps[i]``.

    In an orbit frame every entry is one member of a surviving orbit and
    ``quanta`` holds the total quanta of each column (0 vacuum, 1, then 2s).
    A frame read off arbitrary vectors (:meth:`of_dense`) has no ``quanta``.
    """

    size: int
    dim: int
    rows: np.ndarray
    cols: np.ndarray
    amps: np.ndarray
    quanta: np.ndarray | None = None

    def __post_init__(self) -> None:
        for array in (self.rows, self.cols, self.amps, self.quanta):
            if array is not None:
                array.setflags(write=False)

    @classmethod
    def of_dense(cls, v: np.ndarray) -> "OrbitFrame":
        """The nonzeros of a dense ``size x dim`` array of column vectors."""
        rows, cols = np.nonzero(v)
        return cls(size=v.shape[0], dim=v.shape[1], rows=rows, cols=cols, amps=v[rows, cols])

    def dense(self) -> np.ndarray:
        """``V`` as a new dense complex array."""
        v = np.zeros((self.size, self.dim), dtype=complex)
        v[self.rows, self.cols] = self.amps
        return v


def _read_only_dense(frame: OrbitFrame) -> np.ndarray:
    v = frame.dense()
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class MomentumBlock:
    """One Hermitian block of the restricted Hamiltonian.

    ``frame`` holds the orthonormal block basis, ordered vacuum (nu = 0
    only), one-quantum vector, then two-quantum vectors by increasing pair
    separation; ``vectors`` is the same basis as dense columns over the
    occupation basis, built on first read.
    """

    label: MomentumLabel
    frame: OrbitFrame
    hmatrix: np.ndarray

    def __post_init__(self) -> None:
        self.hmatrix.setflags(write=False)

    @cached_property
    def vectors(self) -> np.ndarray:
        return _read_only_dense(self.frame)

    @property
    def dim(self) -> int:
        return self.hmatrix.shape[0]


def momentum_values(f: int) -> list[MomentumLabel]:
    """The ``f`` momentum labels, ``nu`` descending."""
    if f < 1:
        raise ValueError("site count f must be >= 1")
    if f % 2 == 1:
        top = (f - 1) // 2
        nus = range(top, -top - 1, -1)
    else:
        nus = range(f // 2, -f // 2, -1)
    return [MomentumLabel(f=f, nu=nu) for nu in nus]


def two_quanta_seed_count(f: int) -> int:
    """Number of two-quantum seed patterns: ``(f+1)/2`` odd, ``f/2+1`` even."""
    return (f + 1) // 2 if f % 2 == 1 else f // 2 + 1


def two_quanta_seed(f: int, b: int) -> Occupation:
    """Seed pattern for the ``b``-th two-quantum family.

    ``b = 1`` is the doubly occupied site ``(2, 0, ..., 0)``; for ``b >= 2``
    the two quanta sit on sites 1 and ``b`` (``b-2`` zeros in between).
    """
    if not 1 <= b <= two_quanta_seed_count(f):
        raise ValueError(f"seed index {b} out of range for f={f}")
    occ = [0] * f
    if b == 1:
        occ[0] = 2
    else:
        occ[0] = 1
        occ[b - 1] = 1
    return tuple(occ)


@dataclass(frozen=True)
class _Orbits:
    """Translation orbits of the 0+1+2-quanta space, shared by all labels.

    Seeds are ordered vacuum, one quantum, then the two-quanta seeds by
    increasing ``b``, which is the column order of every block; ``quanta``
    holds each seed's total quanta.  ``where`` maps each occupation to
    ``(seed, r)`` with occupation ``= T^r |seed>``; ``rows``, ``seed_of`` and
    ``shift`` list the same members as arrays, with ``rows`` their positions
    in one basis of ``size`` states.
    """

    f: int
    size: int
    seeds: tuple[Occupation, ...]
    periods: np.ndarray
    quanta: np.ndarray
    where: dict[Occupation, tuple[int, int]]
    rows: np.ndarray
    seed_of: np.ndarray
    shift: np.ndarray

    def alive(self, nu: int) -> np.ndarray:
        """Seeds whose Fourier sum survives at ``nu``: ``nu * P % f == 0``."""
        return np.flatnonzero(nu * self.periods % self.f == 0)

    def frame(self, nu: int) -> OrbitFrame:
        """The block vectors at ``nu``: ``e^{ikr} / sqrt(P)`` on the
        ``r``-th translate of each surviving seed, one column per seed."""
        alive = self.alive(nu)
        column = np.full(len(self.seeds), -1)
        column[alive] = np.arange(alive.size)
        member = column[self.seed_of] >= 0
        seed = self.seed_of[member]
        return OrbitFrame(
            size=self.size, dim=alive.size, rows=self.rows[member], cols=column[seed],
            amps=_phase(nu, self.shift[member], self.f) / np.sqrt(self.periods[seed]),
            quanta=self.quanta[alive])


def _phase(nu: int | np.ndarray, r: np.ndarray, f: int) -> np.ndarray:
    """``e^{ikr}``, ``k = 2 pi nu / f``, for integer ``nu`` and shifts ``r``
    (broadcast).  ``nu * r`` is reduced modulo ``f`` first, so the angle
    stays below ``2 pi`` and keeps full precision on large rings."""
    return np.exp(2j * math.pi * (nu * r % f) / f)


def _orbits(f: int, basis: FockBasis) -> _Orbits:
    seeds = [(0,) * f, (1,) + (0,) * (f - 1)]
    seeds += [two_quanta_seed(f, b) for b in range(1, two_quanta_seed_count(f) + 1)]
    periods = []
    where: dict[Occupation, tuple[int, int]] = {}
    for a, seed in enumerate(seeds):
        state, r = seed, 0
        while r == 0 or state != seed:
            where[state] = (a, r)
            state, r = translate(state), r + 1
        periods.append(r)
    seed_of, shift = np.array(list(where.values())).T
    return _Orbits(f=f, size=basis.size, seeds=tuple(seeds), periods=np.array(periods),
                   quanta=np.array([sum(seed) for seed in seeds]), where=where,
                   rows=np.array([basis.index[state] for state in where]),
                   seed_of=seed_of, shift=shift)


def build_momentum_vectors(
    f: int, label: MomentumLabel, basis: FockBasis | None = None
) -> list[np.ndarray]:
    """Unit-norm block basis vectors for one momentum label.

    Orbits whose Fourier sum vanishes at this momentum contribute no vector;
    each survivor is ``(1/sqrt(P)) sum_r e^{ikr} T^r |seed>``.
    """
    if label.f != f:
        raise ValueError("label does not match the site count")
    if label not in momentum_values(f):
        raise ValueError(f"nu={label.nu} is not a momentum value for f={f}")
    if basis is None:
        basis = enumerate_basis(f, at_most(2))
    return list(np.ascontiguousarray(_orbits(f, basis).frame(label.nu).dense().T))


def _check_orthonormal(v: np.ndarray) -> None:
    """Dense ``V^H V = I`` to ``GRAM_TOL``, for arbitrary vectors."""
    gram = v.conj().T @ v
    if float(np.max(np.abs(gram - np.eye(v.shape[1])))) > GRAM_TOL:
        raise ValueError("block vectors are not orthonormal")


def _check_disjoint_rows(rows: np.ndarray, size: int) -> None:
    """Frame entries on distinct basis rows: then no two columns share a
    row and every off-diagonal entry of ``V^H V`` is exactly 0."""
    if rows.size and np.bincount(rows, minlength=size).max() > 1:
        raise ValueError("block vectors are not orthonormal: a basis row repeats")


def _check_unit_columns(frame: OrbitFrame) -> None:
    """Column norms within ``GRAM_TOL`` of 1: with disjoint rows, the
    diagonal of ``V^H V = I`` at the tolerance of :func:`_check_orthonormal`."""
    norms = np.bincount(frame.cols, weights=np.abs(frame.amps) ** 2, minlength=frame.dim)
    if np.max(np.abs(norms - 1.0), initial=0.0) > GRAM_TOL:
        raise ValueError("block vectors are not orthonormal")


def project_block(
    h: np.ndarray, vectors: list[np.ndarray] | np.ndarray, label: MomentumLabel
) -> MomentumBlock:
    """Project a Hermitian matrix onto the span of orthonormal vectors.

    Raises if the vectors are not orthonormal (checked densely); the
    projected matrix inherits hermiticity from ``h``.  This is the dense
    oracle for :func:`assemble_h_r`.
    """
    v = np.column_stack(vectors) if isinstance(vectors, list) else vectors
    _check_orthonormal(v)
    hmat = v.conj().T @ h @ v
    return MomentumBlock(label=label, frame=OrbitFrame.of_dense(v), hmatrix=hmat)


def expected_block_dimension(f: int, nu: int) -> int:
    """Closed-form block dimension for one momentum label."""
    if f % 2 == 1:
        return (f + 5) // 2 if nu == 0 else (f + 3) // 2
    if nu == 0:
        return (f + 6) // 2
    if nu % 2 != 0:
        return (f + 2) // 2
    return (f + 4) // 2


def block_dimensions(f: int) -> list[int]:
    """Expected dimensions aligned with :func:`momentum_values` order."""
    return [expected_block_dimension(f, label.nu) for label in momentum_values(f)]


@dataclass(frozen=True)
class BlockPencil:
    """One momentum block as a function of the drive coupling,
    ``B(lam) = b_bh + lam * b_drive``.

    ``frame`` and ``vectors`` are the block basis of :class:`MomentumBlock`;
    ``quanta`` holds the total quanta of each column (0 vacuum, 1, then 2s).
    """

    label: MomentumLabel
    frame: OrbitFrame
    b_bh: np.ndarray
    b_drive: np.ndarray

    def __post_init__(self) -> None:
        self.b_bh.setflags(write=False)
        self.b_drive.setflags(write=False)

    @cached_property
    def vectors(self) -> np.ndarray:
        return _read_only_dense(self.frame)

    @property
    def quanta(self) -> np.ndarray:
        return self.frame.quanta

    def matrix(self, lam: float | np.ndarray) -> np.ndarray:
        """``b_bh + lam * b_drive``; an array of couplings gives the stack of
        their matrices, shape ``lam.shape + (d, d)``."""
        return self.b_bh + np.multiply.outer(lam, self.b_drive)


def block_pencil(f: int, gamma: float, basis: FockBasis | None = None) -> list[BlockPencil]:
    """All momentum blocks of ``H_BH`` and of the drive at unit coupling.

    One pass over the orbit seeds with ``apply_hamiltonian(f, gamma, 1.0,
    seed)``; the block entries are split by the total quanta of their row
    and column seeds (see the module docstring).  The block vectors are
    checked orthonormal on their frames.  Pencils are returned ``nu``
    descending.
    """
    if basis is None:
        basis = enumerate_basis(f, at_most(2))
    orbits = _orbits(f, basis)
    # one entry per (image, seed): row seed a, column seed b, amplitude h, shift r
    rows, cols, amps, shifts = [], [], [], []
    for b, seed in enumerate(orbits.seeds):
        for image, h in apply_hamiltonian(f, gamma, 1.0, seed).items():
            a, r = orbits.where[image]
            rows.append(a)
            cols.append(b)
            amps.append(h)
            shifts.append(r)
    rows, cols = np.array(rows), np.array(cols)
    weights = np.array(amps) * np.sqrt(orbits.periods[cols] / orbits.periods[rows])
    labels = momentum_values(f)
    nus = np.array([label.nu for label in labels])[:, None]
    n = len(orbits.seeds)
    full = np.zeros((len(labels), n, n), dtype=complex)
    np.add.at(full, (slice(None), rows, cols), weights * _phase(nus, -np.array(shifts), f))
    same = orbits.quanta[:, None] == orbits.quanta[None, :]
    b_bh, b_drive = np.where(same, full, 0.0), np.where(same, 0.0, full)
    _check_disjoint_rows(orbits.rows, orbits.size)
    pencils = []
    for i, label in enumerate(labels):
        alive = orbits.alive(label.nu)
        frame = orbits.frame(label.nu)
        _check_unit_columns(frame)
        rows = alive[:, None]
        pencils.append(BlockPencil(label=label, frame=frame,
                                   b_bh=b_bh[i, rows, alive], b_drive=b_drive[i, rows, alive]))
    return pencils


def assemble_h_r(
    f: int, gamma: float, lam: float, basis: FockBasis | None = None
) -> list[MomentumBlock]:
    """All momentum blocks of ``H = H_BH + H_lam`` on the 0+1+2-quanta space.

    Each block is the pencil of :func:`block_pencil` at ``lam``, with no
    dense ``H``.  The union of the block spectra reproduces the spectrum of
    the full restricted Hamiltonian; blocks are returned ``nu`` descending.
    """
    return [MomentumBlock(label=p.label, frame=p.frame, hmatrix=p.matrix(lam))
            for p in block_pencil(f, gamma, basis)]


def closed_form_h22(f: int, gamma: float, label: MomentumLabel) -> np.ndarray:
    """Closed-form two-quanta block for one momentum value (cross-check only).

    With ``q = 1 + e^{2i pi nu/f}`` the block is tridiagonal over the pair
    separation index: diagonal ``(-gamma, 0, ..., 0)`` plus, for odd ``f``, a
    final entry ``-p`` with ``p = e^{i(f+1)pi nu/f} + e^{i(f-1)pi nu/f}``;
    the first coupling is ``-sqrt(2) q`` and the inner ones ``-q`` (upper
    triangle conjugated).  On even rings the antipodal family only exists for
    even ``nu`` and couples with strength ``-sqrt(2) q``.  The small rings
    ``f = 1`` (scalar ``-gamma - 4``) and ``f = 2`` are degenerate shapes and
    are handled explicitly.
    """
    nu = label.nu
    if f == 1:
        return np.array([[-gamma - 4.0]], dtype=complex)
    if f == 2:
        if nu % 2 == 0:
            return np.array([[-gamma, -4.0], [-4.0, 0.0]], dtype=complex)
        return np.array([[-gamma]], dtype=complex)
    q = 1.0 + cmath.exp(2j * math.pi * nu / f)
    if f % 2 == 1:
        m = (f + 1) // 2
        out = np.zeros((m, m), dtype=complex)
        out[0, 0] = -gamma
        p = cmath.exp(1j * (f + 1) * math.pi * nu / f) + cmath.exp(1j * (f - 1) * math.pi * nu / f)
        out[m - 1, m - 1] = -p
        couplings = [-math.sqrt(2) * q] + [-q] * (m - 2)
    else:
        m = f // 2 + 1 if nu % 2 == 0 else f // 2
        out = np.zeros((m, m), dtype=complex)
        out[0, 0] = -gamma
        couplings = [-math.sqrt(2) * q] + [-q] * (f // 2 - 2)
        if nu % 2 == 0:
            couplings.append(-math.sqrt(2) * q)
    for i, c in enumerate(couplings):
        out[i + 1, i] = c
        out[i, i + 1] = c.conjugate()
    return out


def closed_form_h12(f: int, lam: float, label: MomentumLabel) -> np.ndarray:
    """Closed-form one-to-two-quanta coupling row for one momentum value.

    Entry ``b`` couples the one-quantum vector to the ``b``-th two-quantum
    vector: ``-sqrt(2) lam`` for the doubly occupied family, conjugate of
    ``-lam (1 + e^{2i pi (b-1) nu/f})`` for separated pairs, and
    ``-sqrt(2) lam`` for the antipodal family on even rings (even ``nu``
    only).  Aligned with the surviving columns of the projected block.
    """
    nu = label.nu
    entries: list[complex] = [-math.sqrt(2) * lam]
    if f % 2 == 1:
        for j in range(1, (f + 1) // 2):
            entries.append(-lam * (1.0 + cmath.exp(2j * math.pi * j * nu / f)).conjugate())
    else:
        for j in range(1, f // 2):
            entries.append(-lam * (1.0 + cmath.exp(2j * math.pi * j * nu / f)).conjugate())
        if nu % 2 == 0:
            entries.append(-math.sqrt(2) * lam)
    return np.array(entries, dtype=complex)
