"""Second-quantized operators as dense complex matrices on occupation bases.

Everything here is built by explicit action on basis states, not by tensor
products of single-mode matrices, so matrix elements are exact up to floating
point:

* ladder operators ``a_j``, ``a_j^+`` with periodic site indexing
  (site ``f+1`` means site ``1``),
* the Bose-Hubbard ring Hamiltonian
  ``H_BH = -sum_j [a_j^+ a_{j+1} + a_j^+ a_{j-1} + (gamma/2) a_j^+ a_j^+ a_j a_j]``,
  implemented literally: for ``f <= 2`` the two neighbor terms coincide and
  each hop is counted twice,
* the sector-mixing drive
  ``H_lam = lam * sum_j [a_j^+ (N-2) + (N-2) a_j]`` whose ``N-2`` factor
  makes the 0+1+2-quanta subspace invariant,
* the total number operator ``N`` and the cyclic translation ``T``,
* generic commutator/anticommutator helpers.

Truncation caveat: on an ``at_most(n_max)`` basis a raising operator loses the
part of its image above ``n_max``.  Operator identities involving products of
ladder operators therefore hold only on sectors with enough headroom; build
with two extra quanta relative to the sector you assert on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockBasis, at_most, enumerate_basis, exactly, translate

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class LinearOperator:
    """Dense complex matrix tagged with its domain/codomain bases.

    Rows index codomain states, columns index domain states.
    """

    domain: FockBasis
    codomain: FockBasis
    matrix: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.codomain.size, self.domain.size)
        if self.matrix.shape != expected:
            raise ValueError(f"matrix shape {self.matrix.shape} != {expected}")
        self.matrix.setflags(write=False)

    @property
    def is_square(self) -> bool:
        return self.domain is self.codomain or self.domain == self.codomain

    def dagger(self) -> "LinearOperator":
        return LinearOperator(self.codomain, self.domain, self.matrix.conj().T.copy())

    def hermiticity_defect(self) -> float:
        """Largest entrywise deviation from self-adjointness."""
        if not self.is_square:
            raise ValueError("hermiticity is defined for square operators only")
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return self.hermiticity_defect() <= tol

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        if other.codomain != self.domain:
            raise ValueError("basis mismatch in composition")
        return LinearOperator(other.domain, self.codomain, self.matrix @ other.matrix)

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ValueError("basis mismatch in sum")
        return LinearOperator(self.domain, self.codomain, self.matrix + other.matrix)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ValueError("basis mismatch in difference")
        return LinearOperator(self.domain, self.codomain, self.matrix - other.matrix)

    def __rmul__(self, scalar: complex) -> "LinearOperator":
        return LinearOperator(self.domain, self.codomain, scalar * self.matrix)

    def __neg__(self) -> "LinearOperator":
        return LinearOperator(self.domain, self.codomain, -self.matrix)


def identity(basis: FockBasis) -> LinearOperator:
    return LinearOperator(basis, basis, np.eye(basis.size, dtype=complex))


def zero(domain: FockBasis, codomain: FockBasis | None = None) -> LinearOperator:
    codomain = domain if codomain is None else codomain
    return LinearOperator(domain, codomain, np.zeros((codomain.size, domain.size), dtype=complex))


def _site_index(f: int, j: int) -> int:
    """Map a 1-based site label to a storage index, with ``f+1 -> 1``."""
    if not 1 <= j <= f + 1:
        raise ValueError(f"site index {j} out of range 1..{f + 1}")
    return (j - 1) % f


def _default_lower_codomain(domain: FockBasis) -> FockBasis:
    if domain.selector.kind == "at_most":
        return domain
    n = domain.selector.bound
    if n == 0:
        raise ValueError("no sector below exactly-0; pass a codomain explicitly")
    return enumerate_basis(domain.f, exactly(n - 1))


def _default_raise_codomain(domain: FockBasis) -> FockBasis:
    if domain.selector.kind == "at_most":
        return domain
    return enumerate_basis(domain.f, exactly(domain.selector.bound + 1))


def annihilation(
    f: int, j: int, domain: FockBasis, codomain: FockBasis | None = None
) -> LinearOperator:
    """Lowering operator ``a_j``: removes one quantum from site ``j`` with
    amplitude ``sqrt(n_j)``.

    On an ``exactly(n)`` domain the codomain defaults to ``exactly(n-1)``;
    on an ``at_most`` domain the operator closes on the same basis.
    """
    if f != domain.f:
        raise ValueError("site count does not match the basis")
    site = _site_index(f, j)
    codomain = _default_lower_codomain(domain) if codomain is None else codomain
    out = np.zeros((codomain.size, domain.size), dtype=complex)
    for col, v in enumerate(domain.states):
        if v[site] == 0:
            continue
        target = v[:site] + (v[site] - 1,) + v[site + 1 :]
        row = codomain.position(target)
        if row is not None:
            out[row, col] = math.sqrt(v[site])
    return LinearOperator(domain, codomain, out)


def creation(
    f: int, j: int, domain: FockBasis, codomain: FockBasis | None = None
) -> LinearOperator:
    """Raising operator ``a_j^+``: adds one quantum to site ``j`` with
    amplitude ``sqrt(n_j + 1)``.

    Between ``exactly(n)`` and ``exactly(n+1)`` this is the exact adjoint of
    :func:`annihilation`; on an ``at_most`` basis the image above the bound is
    truncated away.
    """
    if f != domain.f:
        raise ValueError("site count does not match the basis")
    site = _site_index(f, j)
    codomain = _default_raise_codomain(domain) if codomain is None else codomain
    out = np.zeros((codomain.size, domain.size), dtype=complex)
    for col, v in enumerate(domain.states):
        target = v[:site] + (v[site] + 1,) + v[site + 1 :]
        row = codomain.position(target)
        if row is not None:
            out[row, col] = math.sqrt(v[site] + 1)
    return LinearOperator(domain, codomain, out)


def build_h_bh(f: int, gamma: float, basis: FockBasis) -> LinearOperator:
    """Bose-Hubbard ring Hamiltonian on ``basis`` (any selector).

    ``H_BH = -sum_j [a_j^+ a_{j+1} + a_j^+ a_{j-1} + (gamma/2) n_j (n_j - 1)]``

    The neighbor sum is kept literal, so for ``f = 1`` the hopping contributes
    ``-2 a^+ a`` and for ``f = 2`` each hop appears twice.  Hermitian and
    block-diagonal across total-quanta sectors.
    """
    if f != basis.f:
        raise ValueError("site count does not match the basis")
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for col, v in enumerate(basis.states):
        out[col, col] -= 0.5 * gamma * sum(n * (n - 1) for n in v)
        for site in range(f):
            for delta in (1, -1):
                src = (site + delta) % f
                if v[src] == 0:
                    continue
                lowered = list(v)
                amp = math.sqrt(lowered[src])
                lowered[src] -= 1
                amp *= math.sqrt(lowered[site] + 1)
                lowered[site] += 1
                row = basis.position(tuple(lowered))
                if row is not None:
                    out[row, col] -= amp
    return LinearOperator(basis, basis, out)


def build_h_lambda(f: int, lam: float, basis: FockBasis) -> LinearOperator:
    """Sector-mixing drive ``lam * sum_j [a_j^+ (N-2) + (N-2) a_j]``.

    Requires an ``at_most(n_max >= 2)`` basis since it couples neighboring
    quanta sectors.  Raising out of the two-quanta sector carries the factor
    ``N - 2 = 0``, so the 0+1+2-quanta subspace is exactly invariant; for
    ``n_max = 2`` no truncation error occurs at all.
    """
    if f != basis.f:
        raise ValueError("site count does not match the basis")
    if basis.selector.kind != "at_most" or basis.selector.bound < 2:
        raise ValueError("drive term needs an at_most(n_max >= 2) basis")
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for col, v in enumerate(basis.states):
        n = sum(v)
        for site in range(f):
            # a_j^+ (N-2): the number factor acts on the unraised state.
            raised = v[:site] + (v[site] + 1,) + v[site + 1 :]
            row = basis.position(raised)
            if row is not None:
                out[row, col] += lam * (n - 2) * math.sqrt(v[site] + 1)
            # (N-2) a_j: the number factor acts on the lowered state.
            if v[site] > 0:
                lowered = v[:site] + (v[site] - 1,) + v[site + 1 :]
                row = basis.position(lowered)
                if row is not None:
                    out[row, col] += lam * (n - 3) * math.sqrt(v[site])
    return LinearOperator(basis, basis, out)


def build_number(f: int, basis: FockBasis) -> LinearOperator:
    """Total number operator ``N = sum_j a_j^+ a_j`` (diagonal)."""
    if f != basis.f:
        raise ValueError("site count does not match the basis")
    diag = np.array([sum(v) for v in basis.states], dtype=complex)
    return LinearOperator(basis, basis, np.diag(diag))


def build_translation(f: int, basis: FockBasis) -> LinearOperator:
    """Cyclic translation ``T`` as a permutation matrix: unitary, ``T^f = 1``."""
    if f != basis.f:
        raise ValueError("site count does not match the basis")
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for col, v in enumerate(basis.states):
        row = basis.position(translate(v))
        out[row, col] = 1.0
    return LinearOperator(basis, basis, out)


def build_hamiltonian(f: int, gamma: float, lam: float, basis: FockBasis) -> LinearOperator:
    """Full Hamiltonian ``H = H_BH + H_lam`` on an ``at_most`` basis."""
    return build_h_bh(f, gamma, basis) + build_h_lambda(f, lam, basis)


def commutator(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    """``[a, b] = ab - ba``; both operators must close on one basis pair."""
    return (a @ b) - (b @ a)


def anticommutator(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    """``{a, b} = ab + ba``."""
    return (a @ b) + (b @ a)


def sector_block(op: LinearOperator, n_bra: int, n_ket: int) -> np.ndarray:
    """Matrix block ``<n_bra-quanta| op |n_ket-quanta>`` of a square operator."""
    if not op.is_square:
        raise ValueError("sector blocks are defined for square operators only")
    rows = op.codomain.sector_indices(n_bra)
    cols = op.domain.sector_indices(n_ket)
    return op.matrix[np.ix_(list(rows), list(cols))]


def restrict_to_quanta(op: LinearOperator, n: int) -> LinearOperator:
    """Restriction of a square operator to the exactly-``n`` sector."""
    block = sector_block(op, n, n)
    sector = enumerate_basis(op.domain.f, exactly(n))
    if block.shape != (sector.size, sector.size):
        raise ValueError(f"sector {n} is not fully contained in the basis")
    return LinearOperator(sector, sector, block.copy())


def padded_basis(f: int, n_assert: int, headroom: int = 2) -> FockBasis:
    """Basis with ``headroom`` extra quanta above the sector asserted on,
    so products of two ladder operators are exact there."""
    return enumerate_basis(f, at_most(n_assert + headroom))
