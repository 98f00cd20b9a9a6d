"""Translation-adapted momentum basis of the 0+1+2-quanta subspace.

The translation operator ``T`` commutes with the full Hamiltonian, so the
restriction of ``H`` to the invariant subspace splits into Hermitian blocks
labelled by a discrete momentum ``k = 2*pi*nu/f``:

* odd ``f``:  ``nu = (f-1)/2, (f-3)/2, ..., -(f-1)/2``
* even ``f``: ``nu = f/2, f/2-1, ..., -f/2+1``

Each block is spanned by Fourier combinations of translation orbits,

    ``psi(k) = (1/sqrt(f)) * sum_{j=1}^{f} (e^{ik} T)^{j-1} |seed>``

with seeds ``|100...0>`` (one quantum), ``|200...0>`` and the two-quantum
pairs ``|10...010...0>`` with ``b-2`` zeros between the ones; the vacuum is
T-invariant and joins the ``nu = 0`` block.  Seeds whose orbit has period
``f/2`` (the antipodal pair on even rings) produce a vanishing sum for odd
``nu`` and a norm-``sqrt(2)`` sum for even ``nu``; raw vectors are therefore
renormalized after summation, and vanishing ones are dropped.  The resulting
block dimensions are

* odd ``f``:  one block of ``(f+5)/2`` (``nu = 0``) and ``f-1`` blocks of
  ``(f+3)/2``;
* even ``f``: one block of ``(f+6)/2`` (``nu = 0``), ``f/2`` blocks of
  ``(f+2)/2`` (odd ``nu``) and ``(f-2)/2`` blocks of ``(f+4)/2``
  (even ``nu != 0``),

which always total ``(f+1)(f+2)/2``.

:func:`project_block` (direct matrix elements of an explicitly built ``H``)
is the source of truth; :func:`closed_form_h22` and :func:`closed_form_h12`
transcribe the known closed-form per-``nu`` blocks and exist only as
cross-checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import FockBasis, Occupation, at_most, enumerate_basis, translate
from .ops import LinearOperator, build_hamiltonian

DROP_TOL = 1e-10
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
class MomentumBlock:
    """One Hermitian block of the restricted Hamiltonian.

    ``vectors`` holds the orthonormal block basis as columns over the
    occupation basis, ordered vacuum (nu = 0 only), one-quantum vector, then
    two-quantum vectors by increasing pair separation.
    """

    label: MomentumLabel
    basis: FockBasis
    vectors: np.ndarray
    hmatrix: np.ndarray

    def __post_init__(self) -> None:
        self.vectors.setflags(write=False)
        self.hmatrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.hmatrix.shape[0]

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.hmatrix - self.hmatrix.conj().T)))


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


def _orbit_vector(basis: FockBasis, seed: Occupation, k: float) -> np.ndarray:
    """Raw Fourier sum ``(1/sqrt(f)) sum_j e^{ik(j-1)} T^{j-1}|seed>``."""
    f = basis.f
    raw = np.zeros(basis.size, dtype=complex)
    state = seed
    for j in range(f):
        raw[basis.index[state]] += cmath.exp(1j * k * j) / math.sqrt(f)
        state = translate(state)
    return raw


def build_momentum_vectors(
    f: int, label: MomentumLabel, basis: FockBasis | None = None
) -> list[np.ndarray]:
    """Unit-norm block basis vectors for one momentum label.

    Raw Fourier sums with norm below ``1e-10`` are dropped (not an error);
    the survivors are normalized by their explicit norm, keeping the phase
    produced by the sum.
    """
    if label.f != f:
        raise ValueError("label does not match the site count")
    if label not in momentum_values(f):
        raise ValueError(f"nu={label.nu} is not a momentum value for f={f}")
    if basis is None:
        basis = enumerate_basis(f, at_most(2))
    vectors: list[np.ndarray] = []
    if label.nu == 0:
        vacuum = np.zeros(basis.size, dtype=complex)
        vacuum[basis.index[(0,) * f]] = 1.0
        vectors.append(vacuum)
    seeds = [(1,) + (0,) * (f - 1)]
    seeds += [two_quanta_seed(f, b) for b in range(1, two_quanta_seed_count(f) + 1)]
    for seed in seeds:
        raw = _orbit_vector(basis, seed, label.k)
        norm = float(np.linalg.norm(raw))
        if norm < DROP_TOL:
            continue
        vectors.append(raw / norm)
    return vectors


def project_block(
    h: LinearOperator, vectors: list[np.ndarray] | np.ndarray, label: MomentumLabel
) -> MomentumBlock:
    """Project a Hermitian operator onto the span of orthonormal vectors.

    Raises if the vectors are not orthonormal; the projected matrix inherits
    hermiticity from ``h``.
    """
    v = np.column_stack(vectors) if isinstance(vectors, list) else vectors
    gram = v.conj().T @ v
    if float(np.max(np.abs(gram - np.eye(v.shape[1])))) > GRAM_TOL:
        raise ValueError("block vectors are not orthonormal")
    hmat = v.conj().T @ h.matrix @ v
    return MomentumBlock(label=label, basis=h.domain, vectors=v, hmatrix=hmat)


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


def assemble_h_r(
    f: int, gamma: float, lam: float, basis: FockBasis | None = None
) -> list[MomentumBlock]:
    """All momentum blocks of ``H = H_BH + H_lam`` on the 0+1+2-quanta space.

    The union of the block spectra reproduces the spectrum of the full
    restricted Hamiltonian; blocks are returned ``nu`` descending.
    """
    if basis is None:
        basis = enumerate_basis(f, at_most(2))
    h = build_hamiltonian(f, gamma, lam, basis)
    blocks = []
    for label in momentum_values(f):
        vectors = build_momentum_vectors(f, label, basis)
        blocks.append(project_block(h, vectors, label))
    return blocks


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
