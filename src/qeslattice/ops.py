"""Every construction on the occupation basis: the oracles.

The production path writes each momentum block down from its closed-form
shape (:mod:`~qeslattice.momentum`) and builds no occupation state; every
builder here does.  The dense operators return a square real (float64)
``np.ndarray`` over the caller's basis: column ``c`` holds the image of
``basis.states[c]``.  Every operator of the model is real on the occupation
basis; complex arrays appear only where momentum phases do, in the block
vectors and the orbit pencils.

Everything here is built by explicit action on basis states, not by tensor
products of single-mode matrices, so matrix elements are exact up to floating
point:

* ladder operators ``a_j``, ``a_j^+`` with periodic site indexing
  (site ``f+1`` means site ``1``), on an ``at_most`` basis; ``a_j^+`` is
  the transposed view of ``a_j``,
* the Bose-Hubbard ring Hamiltonian
  ``H_BH = -sum_j [a_j^+ a_{j+1} + a_j^+ a_{j-1} + (gamma/2) a_j^+ a_j^+ a_j a_j]``,
  implemented literally: for ``f <= 2`` the two neighbor terms coincide and
  each hop is counted twice,
* the sector-mixing drive
  ``H_lam = lam * sum_j [a_j^+ (N-2) + (N-2) a_j]`` whose ``N-2`` factor
  makes the 0+1+2-quanta subspace invariant,
* the total number operator ``N`` and the cyclic translation ``T``,
* the commutator and sector blocks of a matrix.

The terms of ``H_BH`` are written out once, in :func:`_terms`, and those of
the drive in :func:`_drive`.  :func:`apply_hamiltonian` sums both into the
image of one occupation state, a sparse ``{occupation: amplitude}`` map;
:func:`hamiltonian_pencil` scatters each, in one ``np.add.at``, into the
one dense ``H = h_bh + lam * h_drive``, built once per ring and evaluated at
each coupling; :func:`brute_force_eigenvalues` diagonalizes it with no
momentum machinery.  No ``gamma`` enters ``h_drive``, and on more than one
site ``gamma`` enters ``h_bh`` only on its diagonal, where no hop lands: so
``verify`` (:class:`~qeslattice.suites.Rings`) builds the drive and the hops
(``h_bh`` at ``gamma = 0.0``) once per ring, basis and process, and gives
each ``gamma`` a copy of the hops with its on-site term on the diagonal.

Two independent constructions of the momentum blocks are the oracles for
:func:`~qeslattice.momentum.pencil_stacks`.  :func:`orbit_block_pencil` is
the standard momentum-state construction: ``H`` is applied once to each
seed (:func:`apply_hamiltonian`), every image is mapped to its orbit
representative ``a`` and shift ``r`` (image ``= T^r |a>``) through an orbit
table, and

    ``B_k[a, b] = sqrt(P_b / P_a) * sum_images h * e^{-ik r}``.

:func:`~qeslattice.momentum.project_block` projects an explicitly built
dense ``H`` onto the vectors of :func:`build_momentum_vectors`, which are
read off the same orbit table.

The orbit table of a ring (:func:`_orbits`) walks each seed's translates
with :func:`~qeslattice.fock.translate` once and keeps arrays over the
``at_most(2)`` basis: each occupation's row, seed and shift, beside each
seed's period and quanta, all read-only.  A frame is then one scatter of
roots of unity, and an image's orbit one lookup of its row.  The public
builders make a table per call; ``verify`` builds one per ring and process,
and reads every frame and orbit pencil of that ring off it.

Truncation caveat: on an ``at_most(n_max)`` basis a raising operator loses the
part of its image above ``n_max``.  Operator identities involving products of
ladder operators therefore hold only on sectors with enough headroom; build
with two extra quanta relative to the sector you assert on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Iterator

import numpy as np

from .fock import FockBasis, Occupation, at_most, enumerate_basis, translate
from .momentum import MomentumLabel, _roots, momentum_values, two_quanta_seed_count


def _check_sites(f: int, basis: FockBasis) -> None:
    if f != basis.f:
        raise ValueError("site count does not match the basis")


def _check_at_most(basis: FockBasis, n_min: int = 0) -> None:
    """Reject any basis but ``at_most(n)`` with ``n >= n_min``."""
    if basis.sectors != range(basis.sectors.stop) or len(basis.sectors) <= n_min:
        raise ValueError(f"needs an at_most(n >= {n_min}) basis, not the sectors {basis.sectors}")


def _ladder_site(f: int, j: int, basis: FockBasis) -> int:
    """Storage index of the 1-based site ``j`` (``f+1`` means ``1``) of a
    ladder acting on ``basis``."""
    _check_sites(f, basis)
    _check_at_most(basis)
    if not 1 <= j <= f + 1:
        raise ValueError(f"site index {j} out of range 1..{f + 1}")
    return (j - 1) % f


def annihilation(f: int, j: int, basis: FockBasis) -> np.ndarray:
    """Lowering operator ``a_j`` on an ``at_most`` basis: removes one quantum
    from site ``j`` with amplitude ``sqrt(n_j)``."""
    site = _ladder_site(f, j, basis)
    out = np.zeros((basis.size, basis.size))
    for col, v in enumerate(basis.states):
        if v[site] > 0:
            out[basis.index[v[:site] + (v[site] - 1,) + v[site + 1 :]], col] = math.sqrt(v[site])
    return out


def creation(f: int, j: int, basis: FockBasis) -> np.ndarray:
    """Raising operator ``a_j^+`` on an ``at_most`` basis: adds one quantum
    to site ``j`` with amplitude ``sqrt(n_j + 1)``.

    The image above the bound is truncated away, so this is exactly the
    transpose of :func:`annihilation`, returned as its transposed view.
    """
    return annihilation(f, j, basis).T


def _drive(f: int, lam: float, state: Occupation) -> Iterator[tuple[Occupation, float]]:
    """Every ``(image, amplitude)`` term of ``lam H_lam|state>``: the raise
    and then the lower at each site.  Images above any ``n_max`` are kept."""
    n = sum(state)
    for site in range(f):
        # a_j^+ (N-2) with N on the unraised state, (N-2) a_j with N on the lowered one
        occ = state[site]
        yield state[:site] + (occ + 1,) + state[site + 1 :], lam * (n - 2) * math.sqrt(occ + 1)
        if occ > 0:
            yield state[:site] + (occ - 1,) + state[site + 1 :], lam * (n - 3) * math.sqrt(occ)


def _terms(f: int, gamma: float, state: Occupation) -> Iterator[tuple[Occupation, float]]:
    """Every ``(image, amplitude)`` term of ``H_BH|state>``: the on-site
    term, then the hops by site and then by direction.  One image may recur,
    and images above any ``n_max`` are kept."""
    yield state, -0.5 * gamma * sum(n * (n - 1) for n in state)
    for site in range(f):
        for delta in (1, -1):
            src = (site + delta) % f
            if state[src] == 0:
                continue
            moved = list(state)
            amp = math.sqrt(moved[src])
            moved[src] -= 1
            amp *= math.sqrt(moved[site] + 1)
            moved[site] += 1
            yield tuple(moved), -amp


def apply_hamiltonian(f: int, gamma: float, lam: float,
                      state: Occupation) -> dict[Occupation, float]:
    """Image ``H|state>`` of one occupation state, ``H = H_BH + H_lam``.

    Returns ``{occupation: amplitude}`` in the order of :func:`_terms` and
    then of :func:`_drive`, with zero amplitudes (the drive's at ``lam == 0``)
    omitted, so on an ``at_most(2)`` basis the map equals the state's column
    of the :func:`hamiltonian_pencil` at ``lam``.  No truncation is applied:
    raising out of the two-quanta sector carries ``N - 2 = 0`` and is
    omitted, but a state with three or more quanta has images above any
    ``n_max``.
    """
    if len(state) != f:
        raise ValueError(f"state has {len(state)} sites, ring has {f}")
    image: dict[Occupation, float] = {}
    for target, amp in chain(_terms(f, gamma, state), _drive(f, lam, state)):
        image[target] = image.get(target, 0.0) + amp
    return {target: amp for target, amp in image.items() if amp != 0.0}


def _scatter(f: int, basis: FockBasis,
             terms: Callable[[Occupation], Iterator[tuple[Occupation, float]]]) -> np.ndarray:
    """Dense real matrix on ``basis`` whose column ``c`` sums the terms of
    ``basis.states[c]``; images outside the basis are dropped.  One
    ``np.add.at`` adds the terms in the order they come, so the terms of a
    recurring image always sum in the same order."""
    _check_sites(f, basis)
    rows, cols, amps = [], [], []
    for col, state in enumerate(basis.states):
        for image, amp in terms(state):
            row = basis.index.get(image)
            if row is not None:
                rows.append(row)
                cols.append(col)
                amps.append(amp)
    out = np.zeros((basis.size, basis.size))
    np.add.at(out, (rows, cols), amps)
    return out


def hamiltonian_pencil(f: int, gamma: float, basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """``(h_bh, h_drive)`` with ``H = h_bh + lam * h_drive`` on an
    ``at_most(n_max >= 2)`` basis, the drive at unit coupling; ``H_BH`` on one
    sector is ``sector_block(h_bh, basis, n, n)``.  Raising out of the
    two-quanta sector carries ``N - 2 = 0``: for ``n_max = 2`` nothing is
    truncated."""
    _check_at_most(basis, 2)
    return _h_bh(f, gamma, basis), _h_drive(f, basis)


def _h_bh(f: int, gamma: float, basis: FockBasis) -> np.ndarray:
    """The ``h_bh`` of :func:`hamiltonian_pencil`."""
    return _scatter(f, basis, partial(_terms, f, gamma))


def _h_drive(f: int, basis: FockBasis) -> np.ndarray:
    """The ``h_drive`` of :func:`hamiltonian_pencil`, which no ``gamma``
    enters."""
    return _scatter(f, basis, partial(_drive, f, 1.0))


def build_number(f: int, basis: FockBasis) -> np.ndarray:
    """Total number operator ``N = sum_j a_j^+ a_j`` (diagonal)."""
    _check_sites(f, basis)
    return np.diag([float(sum(v)) for v in basis.states])


def build_translation(f: int, basis: FockBasis) -> np.ndarray:
    """Cyclic translation ``T`` as a permutation matrix: unitary, ``T^f = 1``."""
    _check_sites(f, basis)
    out = np.zeros((basis.size, basis.size))
    for col, v in enumerate(basis.states):
        out[basis.index[translate(v)], col] = 1.0
    return out


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[a, b] = ab - ba``; both matrices must act on one basis."""
    return a @ b - b @ a


def sector_block(op: np.ndarray, basis: FockBasis, n_bra: int, n_ket: int) -> np.ndarray:
    """Matrix block ``<n_bra-quanta| op |n_ket-quanta>`` of a square operator
    on ``basis``."""
    if op.shape != (basis.size, basis.size):
        raise ValueError(f"operator shape {op.shape} does not match the basis size {basis.size}")
    rows = basis.sector_indices(n_bra)
    cols = basis.sector_indices(n_ket)
    return op[rows.start : rows.stop, cols.start : cols.stop]


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


def brute_force_eigenvalues(f: int, gamma: float, lam: float) -> np.ndarray:
    """Independent oracle: diagonalize ``H`` on the plain occupation basis of
    the 0+1+2-quanta space, with no momentum machinery."""
    h_bh, h = hamiltonian_pencil(f, gamma, enumerate_basis(f, at_most(2)))
    # H formed in the drive's array, h_bh dropped before eigvalsh copies H
    h *= lam
    h += h_bh
    del h_bh
    return np.sort(np.linalg.eigvalsh(h))


@dataclass(frozen=True)
class BlockPencil:
    """One momentum block of the orbit construction
    (:func:`orbit_block_pencil`) as a function of the drive coupling,
    ``b_bh + lam * b_drive``, in the orbit frame; ``quanta`` holds the total
    quanta of each column (0 vacuum, 1, then 2s)."""

    label: MomentumLabel
    quanta: np.ndarray
    b_bh: np.ndarray
    b_drive: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.b_bh, self.b_drive):
            array.setflags(write=False)

    def matrix(self, lam: float) -> np.ndarray:
        return self.b_bh + lam * self.b_drive


@dataclass(frozen=True)
class _Orbits:
    """Translation orbits of the 0+1+2-quanta space, shared by all labels.

    Seeds are ordered vacuum, one quantum, then the two-quanta seeds by
    increasing ``b``, which is the column order of every block; ``quanta``
    holds each seed's total quanta and ``periods`` its orbit period.  The
    occupation in row ``i`` of the ``at_most(2)`` basis is ``T^shift[i]
    |seeds[seed[i]]>``, and ``index`` maps each occupation to its row.
    """

    f: int
    seeds: tuple[Occupation, ...]
    periods: np.ndarray
    quanta: np.ndarray
    index: dict[Occupation, int]
    seed: np.ndarray
    shift: np.ndarray
    roots: np.ndarray  # _roots(f)

    def __post_init__(self) -> None:
        for array in (self.periods, self.quanta, self.seed, self.shift, self.roots):
            array.setflags(write=False)

    def alive(self, nu: int) -> np.ndarray:
        """Seeds whose Fourier sum survives at ``nu``: ``nu * P % f == 0``."""
        return np.flatnonzero(nu * self.periods % self.f == 0)

    def frame(self, nu: int, size: int) -> np.ndarray:
        """The ``(size, d)`` block vectors at ``nu`` over an ``at_most(n >=
        2)`` basis of ``size`` states: ``e^{ikr} / sqrt(P)`` on the ``r``-th
        translate of each surviving seed, one column per seed."""
        alive = self.alive(nu)
        column = np.full(len(self.seeds), -1)
        column[alive] = np.arange(alive.size)
        rows = np.flatnonzero(column[self.seed] >= 0)
        seed = self.seed[rows]
        v = np.zeros((size, alive.size), dtype=complex)
        v[rows, column[seed]] = (self.roots[nu * self.shift[rows] % self.f]
                                 / np.sqrt(self.periods[seed]))
        return v


def _orbits(basis: FockBasis) -> _Orbits:
    """The orbit table of ``basis``, an ``at_most(n >= 2)`` basis, whose
    first rows are those of ``at_most(2)`` (the enumeration runs by sector)."""
    f = basis.f
    seeds = [(0,) * f, (1,) + (0,) * (f - 1)]
    seeds += [two_quanta_seed(f, b) for b in range(1, two_quanta_seed_count(f) + 1)]
    rows, seed, shift, periods = [], [], [], []
    for a, start in enumerate(seeds):
        state, r = start, 0
        while r == 0 or state != start:
            rows.append(basis.index[state])
            seed.append(a)
            shift.append(r)
            state, r = translate(state), r + 1
        periods.append(r)
    order = np.argsort(rows)
    return _Orbits(f=f, seeds=tuple(seeds), periods=np.array(periods),
                   quanta=np.array([sum(s) for s in seeds]), index=basis.index,
                   seed=np.array(seed)[order], shift=np.array(shift)[order], roots=_roots(f))


def build_momentum_vectors(f: int, label: MomentumLabel,
                           basis: FockBasis | None = None) -> np.ndarray:
    """The block vectors of one momentum label from the orbit table, as the
    columns of a read-only ``(D, d)`` array over ``basis``, an ``at_most(n
    >= 2)`` basis of ``f`` sites (``at_most(2)`` if not given), in the
    column order of the block: vacuum (``nu = 0`` only), one quantum, then
    the pairs by increasing separation.

    Orbits whose Fourier sum vanishes at this momentum contribute no vector;
    each survivor is ``(1/sqrt(P)) sum_r e^{ikr} T^r |seed>``.  These are
    the only block vectors the package builds: the frame that
    :func:`~qeslattice.momentum.project_block` projects dense ``H`` onto,
    and that carries a block's eigenvectors (``frame @ coefficients``) onto
    the occupation basis.
    """
    if label.f != f:
        raise ValueError("label does not match the site count")
    if label not in momentum_values(f):
        raise ValueError(f"nu={label.nu} is not a momentum value for f={f}")
    if basis is None:
        basis = enumerate_basis(f, at_most(2))
    _check_sites(f, basis)
    _check_at_most(basis, 2)
    v = _orbits(basis).frame(label.nu, basis.size)
    v.setflags(write=False)
    return v


def orbit_block_pencil(f: int, gamma: float) -> list[BlockPencil]:
    """The oracle for :func:`pencil_stacks`: every block built from the
    images of the orbit seeds.

    One pass over the seeds with ``apply_hamiltonian(f, gamma, 1.0, seed)``;
    each image is looked up in the orbit table, and the entries are split by
    the total quanta of their row and column seeds: ``H_BH`` keeps the
    quanta and the drive moves them by one.  The pencils are complex, in the
    orbit frame itself, and returned ``nu`` descending.
    """
    return _block_pencils(_orbits(enumerate_basis(f, at_most(2))), gamma)


def _block_pencils(orbits: _Orbits, gamma: float) -> list[BlockPencil]:
    """:func:`orbit_block_pencil` on the ring of ``orbits``."""
    f = orbits.f
    # one entry per (image, seed): row seed a, column seed b, amplitude h, shift r
    images, cols, amps = [], [], []
    for b, seed in enumerate(orbits.seeds):
        for image, h in apply_hamiltonian(f, gamma, 1.0, seed).items():
            images.append(orbits.index[image])
            cols.append(b)
            amps.append(h)
    rows, cols, shifts = orbits.seed[images], np.array(cols), orbits.shift[images]
    weights = np.array(amps) * np.sqrt(orbits.periods[cols] / orbits.periods[rows])
    labels = momentum_values(f)
    nus = np.array([label.nu for label in labels])[:, None]
    n = len(orbits.seeds)
    full = np.zeros((len(labels), n, n), dtype=complex)
    np.add.at(full, (slice(None), rows, cols), weights * orbits.roots[-nus * shifts % f])
    same = orbits.quanta[:, None] == orbits.quanta[None, :]
    b_bh, b_drive = np.where(same, full, 0.0), np.where(same, 0.0, full)
    pencils = []
    for i, label in enumerate(labels):
        alive = orbits.alive(label.nu)
        rows = alive[:, None]
        pencils.append(BlockPencil(label=label, quanta=orbits.quanta[alive],
                                   b_bh=b_bh[i, rows, alive], b_drive=b_drive[i, rows, alive]))
    return pencils
