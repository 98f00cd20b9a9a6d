"""Second-quantized operators as dense complex matrices on occupation bases.

Every builder returns a plain complex ``np.ndarray``: rows index the
codomain basis and columns the domain basis, both held by the caller.

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
* the commutator, sector blocks and the hermiticity defect of a matrix.

:func:`apply_hamiltonian` applies the same ``H`` to a single occupation state
and returns its image as a sparse ``{occupation: amplitude}`` map; the
momentum blocks are built from it, while the dense builders above stay as the
brute-force reference.

Truncation caveat: on an ``at_most(n_max)`` basis a raising operator loses the
part of its image above ``n_max``.  Operator identities involving products of
ladder operators therefore hold only on sectors with enough headroom; build
with two extra quanta relative to the sector you assert on.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import FockBasis, Occupation, enumerate_basis, exactly, translate


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
) -> np.ndarray:
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
    return out


def creation(
    f: int, j: int, domain: FockBasis, codomain: FockBasis | None = None
) -> np.ndarray:
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
    return out


def build_h_bh(f: int, gamma: float, basis: FockBasis) -> np.ndarray:
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
    return out


def build_h_lambda(f: int, lam: float, basis: FockBasis) -> np.ndarray:
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
    return out


def build_number(f: int, basis: FockBasis) -> np.ndarray:
    """Total number operator ``N = sum_j a_j^+ a_j`` (diagonal)."""
    if f != basis.f:
        raise ValueError("site count does not match the basis")
    diag = np.array([sum(v) for v in basis.states], dtype=complex)
    return np.diag(diag)


def build_translation(f: int, basis: FockBasis) -> np.ndarray:
    """Cyclic translation ``T`` as a permutation matrix: unitary, ``T^f = 1``."""
    if f != basis.f:
        raise ValueError("site count does not match the basis")
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for col, v in enumerate(basis.states):
        row = basis.position(translate(v))
        out[row, col] = 1.0
    return out


def build_hamiltonian(f: int, gamma: float, lam: float, basis: FockBasis) -> np.ndarray:
    """Full Hamiltonian ``H = H_BH + H_lam`` on an ``at_most`` basis."""
    h = build_h_bh(f, gamma, basis)
    h += build_h_lambda(f, lam, basis)
    return h


def apply_hamiltonian(f: int, gamma: float, lam: float,
                      state: Occupation) -> dict[Occupation, float]:
    """Image ``H|state>`` of one occupation state, ``H = H_BH + H_lam``.

    Returns ``{occupation: amplitude}`` with zero amplitudes omitted.  The
    terms are those of :func:`build_h_bh` and :func:`build_h_lambda`, summed
    in the same order, so on an ``at_most(2)`` basis the map equals the
    state's column of :func:`build_hamiltonian`.  No truncation is applied:
    raising out of the two-quanta sector carries ``N - 2 = 0`` and is
    omitted, but a state with three or more quanta has images above any
    ``n_max``.
    """
    if len(state) != f:
        raise ValueError(f"state has {len(state)} sites, ring has {f}")
    image: dict[Occupation, float] = {state: -0.5 * gamma * sum(n * (n - 1) for n in state)}
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
            target = tuple(moved)
            image[target] = image.get(target, 0.0) - amp
    n = sum(state)
    for site in range(f):
        # a_j^+ (N-2) and (N-2) a_j: each image is reached by this term only
        raised = state[:site] + (state[site] + 1,) + state[site + 1 :]
        image[raised] = lam * (n - 2) * math.sqrt(state[site] + 1)
        if state[site] > 0:
            lowered = state[:site] + (state[site] - 1,) + state[site + 1 :]
            image[lowered] = lam * (n - 3) * math.sqrt(state[site])
    return {target: amp for target, amp in image.items() if amp != 0.0}


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[a, b] = ab - ba``; both matrices must act on one basis."""
    return a @ b - b @ a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of a square matrix, or of a stack
    ``(..., d, d)`` of them, from self-adjointness."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("hermiticity is defined for square matrices only")
    return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2))))


def sector_block(op: np.ndarray, basis: FockBasis, n_bra: int, n_ket: int) -> np.ndarray:
    """Matrix block ``<n_bra-quanta| op |n_ket-quanta>`` of a square operator
    on ``basis``."""
    if op.shape != (basis.size, basis.size):
        raise ValueError(f"operator shape {op.shape} does not match the basis size {basis.size}")
    rows = basis.sector_indices(n_bra)
    cols = basis.sector_indices(n_ket)
    return op[rows.start : rows.stop, cols.start : cols.stop]
