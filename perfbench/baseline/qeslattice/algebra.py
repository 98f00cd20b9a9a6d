"""Numerical verification of the Lie structures behind the lattice model.

The hopping bilinears ``a_j^+ a_k`` close, sector by sector, into the
traceless algebra sl(f) (graded by ``j - k``, gradings adding under the
bracket); adding the bare ladder operators extends this to the
orthosymplectic superalgebra osp(1|2f), whose even part is spanned by the
``2f^2 + f`` bilinears ``a_j^+ a_k``, ``a_j^+ a_k^+``, ``a_j a_k`` and whose
odd part is the ``2f`` ladder operators.  The checks below verify the
defining relations in the Fock-matrix realization:

* the sl(2) triple ``J0 = a_2^+ a_2 - a_1^+ a_1``, ``J+ = a_2^+ a_1``,
  ``J- = a_1^+ a_2`` with Casimir ``C = J+ J- + J0^2/4 - J0/2`` acting as the
  scalar ``n (n + 2) / 4`` on the ``n``-quanta sector,
* grading closure and the ``f^2 - 1`` generator count for sl(f),
* the diagonal hypercharge/isospin pair on three sites,
* the three-site one-quantum bilinear ``a_3^+ a_1 + a_1^+ a_3 + a_2^+ a_2``
  versus the cyclic translation matrix,
* parity closure and the ``(f+1)(f+2)/2`` invariant-subspace dimension for
  osp(1|2f).

All operators are built with two quanta of headroom above the sector being
asserted on, so ladder-product truncation cannot leak in; thresholds of
``1e-10`` are slack for accumulated rounding only.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fock import at_most, enumerate_basis, exactly
from .ops import annihilation, build_h_bh, build_translation, creation
from .report import Check, check

SPAN_TOL = 1e-10


def _ladders(f: int, n_pad: int) -> tuple[list[np.ndarray], list[np.ndarray], object]:
    """Ladder matrices on an ``at_most(n_pad)`` basis; returns (a, adag, basis)."""
    basis = enumerate_basis(f, at_most(n_pad))
    a = [annihilation(f, j, basis).matrix for j in range(1, f + 1)]
    ad = [creation(f, j, basis).matrix for j in range(1, f + 1)]
    return a, ad, basis


def _restrict(m: np.ndarray, idx: range) -> np.ndarray:
    sl = slice(idx.start, idx.stop)
    return m[sl, sl]


def _restrict_upto(m: np.ndarray, basis, n_max: int) -> np.ndarray:
    stop = basis.sector_indices(n_max).stop
    return m[:stop, :stop]


def _span_residual(target: np.ndarray, generators: list[np.ndarray]) -> float:
    """Least-squares distance from ``target`` to the span of ``generators``."""
    cols = np.column_stack([g.ravel() for g in generators])
    rhs = target.ravel()
    coeff, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
    return float(np.linalg.norm(cols @ coeff - rhs))


def _span_coefficients(target: np.ndarray, generators: list[np.ndarray]) -> tuple[np.ndarray, float]:
    cols = np.column_stack([g.ravel() for g in generators])
    rhs = target.ravel()
    coeff, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
    return coeff, float(np.linalg.norm(cols @ coeff - rhs))


def verify_sl2(n_values: tuple[int, ...] = (0, 1, 2, 3, 4), headroom: int = 2) -> list[Check]:
    """sl(2) relations and Casimir scalar on each ``n``-quanta sector (f=2)."""
    f = 2
    n_pad = max(n_values) + headroom
    a, ad, basis = _ladders(f, n_pad)
    j0 = ad[1] @ a[1] - ad[0] @ a[0]
    jp = ad[1] @ a[0]
    jm = ad[0] @ a[1]
    casimir = jp @ jm + 0.25 * j0 @ j0 - 0.5 * j0

    checks = []
    for n in n_values:
        idx = basis.sector_indices(n)
        rel = {
            "[J0,J+] = 2J+": _restrict(j0 @ jp - jp @ j0 - 2 * jp, idx),
            "[J0,J-] = -2J-": _restrict(j0 @ jm - jm @ j0 + 2 * jm, idx),
            "[J+,J-] = J0": _restrict(jp @ jm - jm @ jp - j0, idx),
        }
        for name, defect in rel.items():
            r = float(np.max(np.abs(defect))) if defect.size else 0.0
            checks.append(check(f"sl2 {name}", r < SPAN_TOL, residual=r, n=n))
        scalar = 0.25 * n * (n + 2)
        defect = _restrict(casimir, idx) - scalar * np.eye(len(idx))
        r = float(np.max(np.abs(defect))) if defect.size else 0.0
        checks.append(check("sl2 Casimir = n(n+2)/4", r < SPAN_TOL, residual=r,
                            n=n, scalar=scalar))
    return checks


def verify_grading_closure(f: int, n: int, headroom: int = 2) -> list[Check]:
    """Closure of the sl(f) family on the ``n``-quanta sector, plus grading
    additivity of every nonzero commutator of definite-grading generators."""
    if not 2 <= f <= 5:
        raise ValueError("grading closure is checked for f in 2..5")
    a, ad, basis = _ladders(f, n + headroom)
    idx = basis.sector_indices(n)

    mats: list[np.ndarray] = []
    gradings: list[int] = []
    names: list[str] = []
    for j in range(1, f + 1):
        for k in range(1, f + 1):
            if j != k:
                mats.append(ad[j - 1] @ a[k - 1])
                gradings.append(j - k)
                names.append(f"a{j}+a{k}")
    for j in range(1, f):
        mats.append(ad[j] @ a[j] - ad[j - 1] @ a[j - 1])
        gradings.append(0)
        names.append(f"n{j+1}-n{j}")

    checks = [check("sl(f) generator count = f^2-1", len(mats) == f * f - 1,
                    residual=abs(len(mats) - (f * f - 1)), f=f, count=len(mats))]

    restricted = [_restrict(m, idx) for m in mats]
    span = restricted + [np.eye(len(idx))]
    span_names = names + ["identity"]
    worst_span = 0.0
    worst_grading = 0.0
    for (i, gi), (j, gj) in itertools.combinations(enumerate(gradings), 2):
        comm = _restrict(mats[i] @ mats[j] - mats[j] @ mats[i], idx)
        coeff, resid = _span_coefficients(comm, span)
        worst_span = max(worst_span, resid)
        if float(np.max(np.abs(comm))) < SPAN_TOL:
            continue
        # every generator contributing to the expansion must carry grading gi+gj
        for c, g_name, grading in zip(coeff, span_names, gradings + [0]):
            if abs(c) > 1e-8 and grading != gi + gj:
                worst_grading = max(worst_grading, abs(c))
    checks.append(check("sl(f) bracket closure on sector", worst_span < SPAN_TOL,
                        residual=worst_span, f=f, n=n))
    checks.append(check("sl(f) gradings add under bracket", worst_grading < SPAN_TOL,
                        residual=worst_grading, f=f, n=n))
    return checks


def verify_sl3_diagonal(n: int, headroom: int = 2) -> list[Check]:
    """Hypercharge / isospin diagonal pair on three sites.

    ``Y = (2 a_3^+ a_3 - a_1^+ a_1 - a_2^+ a_2) / 3`` acts on an occupation
    state as ``(2 n_3 - n_1 - n_2) / 3``; ``T3 = (a_2^+ a_2 - a_1^+ a_1)/2``
    commutes with it, and the ``n``-quanta sector has dimension
    ``(n+1)(n+2)/2``.
    """
    f = 3
    a, ad, basis = _ladders(f, n + headroom)
    idx = basis.sector_indices(n)
    y = (2 * ad[2] @ a[2] - ad[0] @ a[0] - ad[1] @ a[1]) / 3.0
    t3 = (ad[1] @ a[1] - ad[0] @ a[0]) / 2.0
    yr, t3r = _restrict(y, idx), _restrict(t3, idx)

    checks = []
    r = float(np.max(np.abs(yr @ t3r - t3r @ yr)))
    checks.append(check("[Y,T3] = 0 on sector", r < SPAN_TOL, residual=r, n=n))
    off = max(float(np.max(np.abs(yr - np.diag(np.diag(yr))))),
              float(np.max(np.abs(t3r - np.diag(np.diag(t3r))))))
    checks.append(check("Y, T3 diagonal in occupation basis", off < SPAN_TOL,
                        residual=off, n=n))
    states = [basis.states[i] for i in idx]
    expected = np.array([(2 * s[2] - s[0] - s[1]) / 3.0 for s in states])
    r = float(np.max(np.abs(np.diag(yr).real - expected))) if states else 0.0
    checks.append(check("Y eigenvalue = (2n3-n1-n2)/3", r < SPAN_TOL, residual=r, n=n))
    dim_ok = len(idx) == (n + 1) * (n + 2) // 2
    checks.append(check("dim V_n = (n+1)(n+2)/2", dim_ok,
                        residual=abs(len(idx) - (n + 1) * (n + 2) // 2), n=n))
    return checks


def verify_translation_f3() -> list[Check]:
    """Compare the one-quantum bilinear ``a_3^+ a_1 + a_1^+ a_3 + a_2^+ a_2``
    with the cyclic translation on the one-quantum sector of three sites.

    The bilinear commutes with the hopping Hamiltonian there (asserted); it
    is, however, the site-1<->3 transposition rather than the cyclic shift,
    so the comparison against the translation matrix is reported, not
    asserted: its square (not its cube) is the identity, and a transposition
    is not conjugate to a 3-cycle under any site relabeling.
    """
    f, n = 3, 1
    basis = enumerate_basis(f, at_most(n + 2))
    a = [annihilation(f, j, basis).matrix for j in range(1, f + 1)]
    ad = [creation(f, j, basis).matrix for j in range(1, f + 1)]
    idx = basis.sector_indices(n)
    bilinear = _restrict(ad[2] @ a[0] + ad[0] @ a[2] + ad[1] @ a[1], idx)

    v1 = enumerate_basis(f, exactly(1))
    t_matrix = build_translation(f, v1).matrix
    h_bh = build_h_bh(f, 3.0, v1).matrix

    checks = []
    r = float(np.max(np.abs(bilinear @ h_bh - h_bh @ bilinear)))
    checks.append(check("one-quantum bilinear commutes with H_BH on V_1",
                        r < SPAN_TOL, residual=r))
    eq = float(np.max(np.abs(bilinear - t_matrix)))
    checks.append(Check(
        name="bilinear vs cyclic translation on V_1",
        params={"equal": bool(eq < SPAN_TOL)},
        residual=eq, status="pass",
        note=("bilinear is the site-1<->3 transposition: square = identity, "
              "cube = itself; not a relabeling of the 3-cycle. "
              f"bilinear={bilinear.real.astype(int).tolist()} "
              f"translation={t_matrix.real.astype(int).tolist()}")))
    sq = float(np.max(np.abs(bilinear @ bilinear - np.eye(3))))
    checks.append(check("bilinear squared = identity on V_1", sq < SPAN_TOL, residual=sq))
    cube_is_self = float(np.max(np.abs(
        bilinear @ bilinear @ bilinear - bilinear)))
    checks.append(check("bilinear cubed = bilinear on V_1", cube_is_self < SPAN_TOL,
                        residual=cube_is_self))
    r = float(np.max(np.abs(ad[2] @ a[0] @ _unit(basis, (1, 0, 0)) - _unit(basis, (0, 0, 1)))))
    checks.append(check("a3+ a1 maps |100> to |001>", r < SPAN_TOL, residual=r))
    return checks


def _unit(basis, occ) -> np.ndarray:
    v = np.zeros(basis.size, dtype=complex)
    v[basis.index[occ]] = 1.0
    return v


def verify_osp_structure(f: int, headroom: int = 2) -> list[Check]:
    """Generator counts and parity closure of osp(1|2f) on the invariant
    0+1+2-quanta subspace.

    Odd family: the ``2f`` ladder operators.  Even family: all ``f^2``
    bilinears ``a_j^+ a_k`` plus ``f(f+1)/2`` pair raisings and as many pair
    lowerings, ``2f^2 + f`` in total.  Anticommutators of odd generators must
    land in the even span extended by the identity (canonical commutators
    produce the constant shift, e.g. ``{a_1, a_1^+} = 2 a_1^+ a_1 + 1``);
    commutators of even with odd generators must land in the odd span.
    """
    if not 1 <= f <= 4:
        raise ValueError("osp structure is checked for f in 1..4")
    n_assert = 2
    a, ad, basis = _ladders(f, n_assert + headroom)

    odd = [("a%d" % (j + 1), a[j]) for j in range(f)]
    odd += [("a%d+" % (j + 1), ad[j]) for j in range(f)]
    even = [("a%d+a%d" % (j + 1, k + 1), ad[j] @ a[k])
            for j in range(f) for k in range(f)]
    even += [("a%d+a%d+" % (j + 1, k + 1), ad[j] @ ad[k])
             for j in range(f) for k in range(j, f)]
    even += [("a%da%d" % (j + 1, k + 1), a[j] @ a[k])
             for j in range(f) for k in range(j, f)]

    checks = [
        check("osp even generator count = 2f^2+f", len(even) == 2 * f * f + f,
              residual=abs(len(even) - (2 * f * f + f)), f=f, count=len(even)),
        check("osp odd generator count = 2f", len(odd) == 2 * f,
              residual=abs(len(odd) - 2 * f), f=f, count=len(odd)),
        check("invariant subspace dimension = (f+1)(f+2)/2",
              enumerate_basis(f, at_most(2)).size == (f + 1) * (f + 2) // 2,
              f=f, dim=enumerate_basis(f, at_most(2)).size),
    ]

    cut = lambda m: _restrict_upto(m, basis, n_assert)
    even_span = [cut(m) for _, m in even] + [np.eye(basis.sector_indices(n_assert).stop)]
    odd_span = [cut(m) for _, m in odd]

    worst = 0.0
    for (_, x), (_, y) in itertools.combinations_with_replacement(odd, 2):
        worst = max(worst, _span_residual(cut(x @ y + y @ x), even_span))
    checks.append(check("odd x odd anticommutators close in even span + identity",
                        worst < SPAN_TOL, residual=worst, f=f))

    worst = 0.0
    for _, e in even:
        for _, o in odd:
            worst = max(worst, _span_residual(cut(e @ o - o @ e), odd_span))
    checks.append(check("even x odd commutators close in odd span",
                        worst < SPAN_TOL, residual=worst, f=f))
    return checks


def verify_canonical_relations(f: int, headroom: int = 2) -> list[Check]:
    """Canonical commutation relations on the padded interior:
    ``[a_i, a_j^+] = delta_ij`` and ``[a_i, a_j] = 0`` hold exactly on all
    states with two quanta of headroom below the truncation."""
    n_assert = 2
    a, ad, basis = _ladders(f, n_assert + headroom)
    cut = lambda m: _restrict_upto(m, basis, n_assert)
    dim = basis.sector_indices(n_assert).stop
    worst_ccr = 0.0
    worst_comm = 0.0
    for i in range(f):
        for j in range(f):
            delta = np.eye(dim) if i == j else np.zeros((dim, dim))
            worst_ccr = max(worst_ccr, float(np.max(np.abs(
                cut(a[i] @ ad[j] - ad[j] @ a[i]) - delta))))
            worst_comm = max(worst_comm, float(np.max(np.abs(
                cut(a[i] @ a[j] - a[j] @ a[i])))))
    number = sum(ad[j] @ a[j] for j in range(f))
    shifted = cut(2 * number) + np.eye(dim) if f == 1 else None
    checks = [
        check("[a_i, a_j+] = delta_ij on padded interior", worst_ccr < SPAN_TOL,
              residual=worst_ccr, f=f),
        check("[a_i, a_j] = 0 on padded interior", worst_comm < SPAN_TOL,
              residual=worst_comm, f=f),
    ]
    if f == 1:
        r = float(np.max(np.abs(cut(a[0] @ ad[0] + ad[0] @ a[0]) - shifted)))
        checks.append(check("{a, a+} = 2N + 1 on padded interior", r < SPAN_TOL,
                            residual=r, f=f))
    return checks
