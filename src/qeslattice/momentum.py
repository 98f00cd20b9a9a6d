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

which always total ``(f+1)(f+2)/2``.  Columns are ordered vacuum (``nu = 0``
only), one quantum, then the pairs by increasing separation ``s = b - 1``.

Each block is written in the *centre-of-mass gauge*: the pair column at
separation ``s`` is the orbit vector times ``e^{iks/2}``, so the amplitude on
a pair reads ``e^{ik(r + s/2)}``, the phase at the pair's centre of mass.
With ``P`` the diagonal of these unit phases (``1`` on the vacuum and
one-quantum columns), the orbit-frame block is ``P B Pᴴ`` and ``B`` is real
symmetric.  :func:`pencil_stacks` writes it down from its known shape, as a
pencil in the drive coupling, ``B(lam) = B_BH + lam * B_drive``, for all
``nu`` at once and with the pair separation as the index (every cosine read
from one table of the ``2f`` roots ``e^{i pi j / f}``, ``cos(k j / 2)`` at
``nu * j mod 2f``, exact at the quarter turns, so that ``cos(pi/2)`` is
``0``):

* ``B_BH`` is ``-2 cos k`` on the one-quantum column and tridiagonal on the
  pair columns: diagonal ``-gamma`` at ``s = 0``, zero elsewhere except
  ``-2 cos(k (f+1)/2)`` at the last separation of an odd ring; hop
  ``-2 cos(k/2)`` between ``s`` and ``s + 1``, times ``sqrt(2)`` out of the
  doubly occupied pair and again into the antipodal pair;
* ``B_drive`` couples the one-quantum column to the vacuum with
  ``-2 sqrt(f)`` and to the pair at separation ``s`` with ``-2 cos(k s/2)``,
  or ``-sqrt(2)`` for the doubly occupied pair and ``-sqrt(2) cos(k f/4)
  = -sqrt(2) (-1)^(nu/2)`` for the antipodal pair, and has no other entry.

``f = 1`` and ``f = 2`` fold these rules onto one or two sites; both are
handled by the same builder.

``H`` is real in the occupation basis, so complex conjugation (time
reversal) commutes with it and maps the block at ``nu`` onto the block at
``-nu``: the orbit vectors at ``-nu`` are the conjugates of those at ``nu``,
the orbit-frame block at ``-nu`` is the conjugate of the one at ``nu``, and
in the centre-of-mass gauge both are the same real matrix ``B``, with column
phases ``P`` at ``nu`` and ``conj(P)`` at ``-nu``.  Only the ``floor(f/2) + 1``
labels ``nu >= 0`` are therefore built; :meth:`PencilStack.blocks_of` is
the one place that turns a block at ``nu > 0`` into its mirror at ``-nu``
(same arrays, conjugate phases), for every ``nu`` but ``0`` and, on even
rings, ``f/2``, which are their own mirrors.  Blocks of one dimension share
one shape, so the distinct pencils come as at most three stacks, each
stored as its blocks' fans, the ``O(d)`` entries listed above
(:class:`PencilStack`) and nothing else; a solve has
:meth:`PencilStack.matrices` write the dense real ``B(lam)`` of the rows
and couplings it needs from them and diagonalizes each stack with one
batched real ``eigh``; an eigenvector ``u`` of ``B`` is the eigenvector
``P u`` of the orbit-frame block at ``nu`` and ``conj(P) u`` of the one at
``-nu``.  No occupation state, orbit table or dense ``H`` is built on this
path.

The block vectors ``psi(k)`` over the occupation basis are built only by
the oracles: :func:`~qeslattice.ops.build_momentum_vectors` reads them off
an orbit table, and it and every other construction on occupation states
are in :mod:`~qeslattice.ops`, which nothing here imports.
"""

from __future__ import annotations

import cmath
import copy
import math
from dataclasses import dataclass

import numpy as np

GRAM_TOL = 1e-10
SQRT2 = math.sqrt(2.0)


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
        phase convention ``e^{ikr}`` on the ``r``-th translate of a seed)."""
        return cmath.exp(-1j * self.k)


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


def _roots(f: int) -> np.ndarray:
    """``e^{2 pi i j / f}`` for ``j = 0..f-1``; the phase ``e^{ikr}`` is entry
    ``nu * r % f``, so no angle outside ``[0, 2 pi)`` reaches ``exp``, and
    the quarter turns (``4 j % f == 0``) are the exact ``1, i, -1, -i``.
    Entry ``2 j`` of ``_roots(2 f)`` equals entry ``j`` of ``_roots(f)`` bit
    for bit (the same correctly rounded angle, or the same quarter turn)."""
    j = np.arange(f)
    roots = np.exp(2j * math.pi * j / f)
    quarter = 4 * j % f == 0
    roots[quarter] = np.array([1, 1j, -1, 0 - 1j])[4 * j[quarter] // f]
    return roots


def to_orbit_frame(matrix: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """``P M Pᴴ`` with ``P = diag(phases)``: a block written in the
    centre-of-mass gauge, read in the orbit frame.  The product is averaged
    with its conjugate transpose, which changes a symmetric ``M``'s image
    only by rounding and makes it exactly Hermitian."""
    h = matrix * np.multiply.outer(phases, phases.conj())
    return (h + h.conj().T) * 0.5


def _has_antipodal_pair(f: int, nu: int) -> bool:
    """The antipodal pair (even rings, period ``f/2``) survives at even ``nu``."""
    return f % 2 == 0 and nu % 2 == 0


@dataclass(frozen=True)
class PencilStack:
    """The pencils of every distinct block (``nu >= 0``) of one dimension,
    stored as fans: row ``i`` has label ``labels[i]``, column phases
    ``phases[i]`` and, in the centre-of-mass gauge, the real symmetric
    ``B_BH + lam * B_drive`` whose only entries are ``head[i]`` (``B_BH`` on
    the one-quantum column), ``diag[i, s]`` (``B_BH`` on the pair at
    separation ``s``), ``hop[i, s]`` (``B_BH`` between the pairs ``s`` and
    ``s + 1``) and ``drive[i]`` (``B_drive`` from the one-quantum column to
    every other, the vacuum first); all rows share the column quanta
    ``quanta``.  A stack holds ``O(d)`` entries a block and no dense
    matrix: :meth:`matrices` writes ``B(lam)`` from the fields when a solve
    asks for it.  Every array is read-only.  Each row also stands for the
    mirror block at ``-nu`` (:meth:`blocks_of`)."""

    labels: tuple[MomentumLabel, ...]
    quanta: np.ndarray  # (d,)
    phases: np.ndarray  # (n_nu, d) complex, unit modulus
    head: np.ndarray  # (n_nu,)
    diag: np.ndarray  # (n_nu, n_pairs)
    hop: np.ndarray  # (n_nu, n_pairs - 1)
    drive: np.ndarray  # (n_nu, d - 1)

    def __post_init__(self) -> None:
        for array in (self.quanta, self.phases, self.head, self.diag, self.hop, self.drive):
            array.setflags(write=False)

    def __getitem__(self, rows: slice) -> PencilStack:
        """The stack of the rows ``rows`` alone, its arrays views of these."""
        part = copy.copy(self)
        object.__setattr__(part, "labels", self.labels[rows])
        for name in ("phases", "head", "diag", "hop", "drive"):
            object.__setattr__(part, name, getattr(self, name)[rows])
        return part

    def matrices(self, rows: int | slice | np.ndarray, lams: float | np.ndarray) -> np.ndarray:
        """The dense ``B(lam)`` of the rows ``rows`` (any index of the
        fields) at the couplings ``lams``, broadcast against each other, as
        a new float64 array of shape ``(..., d, d)``.

        Each entry is written with the arithmetic of ``B_BH + lam *
        B_drive`` on the dense pair: ``x + lam * 0.0`` on a ``B_BH`` entry
        ``x``, ``0.0 + lam * z`` on both sides of a drive entry ``z`` and
        ``+0.0`` everywhere else, so every entry, signed zeros included, is
        that sum's, and the matrices are exactly symmetric."""
        lams = np.asarray(lams, dtype=float)[..., None]
        head, diag, hop, drive = (a[rows] for a in (self.head, self.diag, self.hop, self.drive))
        d = drive.shape[-1] + 1
        one = d - 1 - diag.shape[-1]  # the head's column: 1 after the vacuum, else 0
        zero, arm = lams * 0.0, 0.0 + lams * drive
        head = head + zero[..., 0]  # of the broadcast shape
        flat = np.zeros(head.shape + (d * d,))
        m = flat.reshape(head.shape + (d, d))
        first = (one + 1) * (d + 1)  # the diagonal of the pair s = 0
        flat[..., one * (d + 1)] = head
        flat[..., first::d + 1] = diag + zero
        flat[..., first + 1::d + 1] = flat[..., first + d::d + 1] = hop + zero
        m[..., one, :one] = m[..., :one, one] = arm[..., :one]
        m[..., one, one + 1:] = m[..., one + 1:, one] = arm[..., one:]
        return m

    def blocks_of(self, i: int) -> list[tuple[MomentumLabel, np.ndarray]]:
        """``(label, phases)`` of every block row ``i`` stands for: its own
        label ``nu`` with ``phases[i]`` and, when ``-nu`` is another label of
        the ring (``0 < 2 nu < f``), the mirror ``-nu`` with the conjugate
        phases, which time reversal gives the same real matrix."""
        label, phases = self.labels[i], self.phases[i]
        if not 0 < 2 * label.nu < label.f:
            return [(label, phases)]
        mirror = phases.conj()
        mirror.setflags(write=False)
        return [(label, phases), (MomentumLabel(f=label.f, nu=-label.nu), mirror)]


def _stack(f: int, gamma: float, labels: list[MomentumLabel], root: np.ndarray) -> PencilStack:
    """The fans of blocks that share one shape (see the module docstring);
    ``root`` is ``_roots(2 f)``."""
    nu = np.array([label.nu for label in labels])[:, None]
    vacuum, antipodal = int(labels[0].nu == 0), _has_antipodal_pair(f, labels[0].nu)
    s = np.arange(two_quanta_seed_count(f) - (f % 2 == 0 and not antipodal))  # pair separations

    # diagonals as the sums of the two hop terms the orbit construction forms
    head = -(root[2 * nu % (2 * f)] + root[-2 * nu % (2 * f)])[:, 0].real
    diag = np.zeros((len(labels), s.size))
    diag[:, 0] = -gamma
    if f == 1:  # both hops of the doubly occupied site land on itself
        diag[:, 0] -= 4.0
    elif f % 2 == 1:  # the widest pair hops onto its own orbit, either way
        diag[:, -1] = -(root[-nu * (f + 1) % (2 * f)] + root[-nu * (f - 1) % (2 * f)])[:, 0].real
    hop = np.repeat(-2.0 * root[nu % (2 * f)].real, s.size - 1, axis=1)  # s <-> s + 1
    if f == 2:  # the doubly occupied pair hops into the antipodal one both ways
        hop[:] = -4.0
    elif hop.shape[1]:
        hop[:, 0] *= SQRT2
        if antipodal:
            hop[:, -1] *= SQRT2

    gauge = root[nu * s % (2 * f)]  # e^{iks/2} on the pair at separation s
    drive = np.empty((len(labels), vacuum + s.size))
    drive[:, vacuum:] = -2.0 * gauge.real
    drive[:, vacuum] = -SQRT2
    if antipodal:
        drive[:, -1] = -SQRT2 * gauge[:, -1].real
    if vacuum:
        drive[:, 0] = -2.0 * math.sqrt(f)
    phases = np.ones((len(labels), 1 + vacuum + s.size), dtype=complex)
    phases[:, 1 + vacuum:] = gauge
    return PencilStack(labels=tuple(labels), quanta=np.array([0] * vacuum + [1] + [2] * s.size),
                       phases=phases, head=head, diag=diag, hop=hop, drive=drive)


def pencil_stacks(f: int, gamma: float) -> list[PencilStack]:
    """The pencils of the distinct momentum blocks, the labels ``nu >= 0``,
    one stack per block shape (at most three), each stack ``nu``
    descending; :meth:`PencilStack.blocks_of` names the blocks ``-nu`` each
    row also stands for."""
    shapes: dict[tuple[bool, bool], list[MomentumLabel]] = {}
    for label in momentum_values(f):
        if label.nu >= 0:
            key = (label.nu == 0, _has_antipodal_pair(f, label.nu))
            shapes.setdefault(key, []).append(label)
    root = _roots(2 * f)  # e^{ikj/2} at nu * j % 2f, e^{ikj} at 2 nu j % 2f
    return [_stack(f, gamma, labels, root) for labels in shapes.values()]


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


def _check_orthonormal(v: np.ndarray) -> None:
    """Dense ``V^H V = I`` to ``GRAM_TOL``, for arbitrary vectors."""
    gram = v.conj().T @ v
    if float(np.max(np.abs(gram - np.eye(v.shape[1])))) > GRAM_TOL:
        raise ValueError("block vectors are not orthonormal")


def project_block(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``Vᴴ h V``: a Hermitian matrix projected onto the span of the
    orthonormal columns of ``V``.

    Raises if the vectors are not orthonormal (checked densely); the
    projected matrix inherits hermiticity from ``h``.  This is the dense
    oracle for :func:`pencil_stacks`.
    """
    _check_orthonormal(v)
    return v.conj().T @ h @ v
