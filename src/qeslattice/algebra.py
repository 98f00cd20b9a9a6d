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
``1e-10`` are slack for accumulated rounding only.  The ladders are real
float64 matrices, each ``a_j^+`` the transposed view of ``a_j``, so every
product below is a real matmul.

Two rules keep the checks cheap.  A bracket is only formed on the block it
is asserted on: ``(x @ y)[sl, sl] == x[sl, :] @ y[:, sl]`` holds for any
matrices, so the sl(f), osp and canonical-relation brackets multiply row
slices by column slices (:func:`verify_sl2`, :func:`verify_sl3_diagonal` and
:func:`verify_translation_f3` form their few small products whole and then
restrict them; slicing those would move the rounding of their residuals).
``_sector_products`` does all pairs of two small families in one stacked
matmul; the osp even x odd brackets go one odd generator at a time and the
canonical relations pair by pair, so that no stacked copy outgrows the
operators themselves.  And each span is factorised once per check:
``_span_coefficients`` takes all targets of the check together and expands
them through one pseudo-inverse of the generator matrix, which gives the
minimum-norm least-squares solution.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fock import at_most, enumerate_basis, exactly
from .ops import annihilation, build_translation, sector_block
from .report import Check, check

SPAN_TOL = 1e-10
HEADROOM = 2  # quanta above the asserted sector in every ladder basis
# targets whose span residuals are formed at once; bounds the temporaries
_RESIDUAL_CHUNK = 16


def _ladders(f: int, n_pad: int) -> tuple[list[np.ndarray], list[np.ndarray], object]:
    """Real ladder matrices on an ``at_most(n_pad)`` basis; returns (a,
    adag, basis), each ``a_j^+`` the transposed view of its ``a_j``
    (:func:`~qeslattice.ops.creation`)."""
    basis = enumerate_basis(f, at_most(n_pad))
    a = [annihilation(f, j, basis) for j in range(1, f + 1)]
    return a, [x.T for x in a], basis


def _restrict(m: np.ndarray, idx: range) -> np.ndarray:
    sl = slice(idx.start, idx.stop)
    return m[sl, sl]


def _sector_products(xs: list[np.ndarray], ys: list[np.ndarray], idx: range) -> np.ndarray:
    """``_restrict(x @ y, idx)`` for every ``x`` in ``xs`` and ``y`` in
    ``ys``, shape ``(len(xs), len(ys), d, d)``, from one stacked matmul of
    row slices by column slices, without forming the rest of any product."""
    sl = slice(idx.start, idx.stop)
    rows = np.stack([x[sl] for x in xs])
    cols = np.stack([y[:, sl] for y in ys])
    return rows[:, None] @ cols[None]


def _span_coefficients(targets: np.ndarray,
                       generators: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares expansion of each of the stacked ``targets`` in
    ``generators`` and each target's distance to their span.

    The generator matrix is factorised once; the pseudo-inverse cut-off
    ``eps * max(shape)`` is the one ``lstsq(rcond=None)`` uses, so the
    coefficients are the same minimum-norm solution."""
    cols = np.column_stack([g.ravel() for g in generators])
    rhs = targets.reshape(len(targets), -1)
    inverse = np.linalg.pinv(cols, rcond=np.finfo(float).eps * max(cols.shape))
    coeffs = rhs @ inverse.T
    dists = np.empty(len(rhs))
    for start in range(0, len(rhs), _RESIDUAL_CHUNK):
        part = slice(start, start + _RESIDUAL_CHUNK)
        dists[part] = np.linalg.norm(coeffs[part] @ cols.T - rhs[part], axis=1)
    return coeffs, dists


def verify_sl2() -> list[Check]:
    """sl(2) relations and Casimir scalar on each ``n``-quanta sector (f=2)."""
    f = 2
    n_values = range(5)
    a, ad, basis = _ladders(f, n_values[-1] + HEADROOM)
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
            checks.append(check(f"sl2 {name}", r, below=SPAN_TOL, n=n))
        scalar = 0.25 * n * (n + 2)
        defect = _restrict(casimir, idx) - scalar * np.eye(len(idx))
        r = float(np.max(np.abs(defect))) if defect.size else 0.0
        checks.append(check("sl2 Casimir = n(n+2)/4", r, below=SPAN_TOL, n=n, scalar=scalar))
    return checks


def verify_grading_closure(f: int, n: int) -> list[Check]:
    """Closure of the sl(f) family on the ``n``-quanta sector, plus grading
    additivity of every nonzero commutator of definite-grading generators."""
    if not 2 <= f <= 5:
        raise ValueError("grading closure is checked for f in 2..5")
    a, ad, basis = _ladders(f, n + HEADROOM)
    idx = basis.sector_indices(n)

    mats: list[np.ndarray] = []
    gradings: list[int] = []
    for j in range(1, f + 1):
        for k in range(1, f + 1):
            if j != k:
                mats.append(ad[j - 1] @ a[k - 1])
                gradings.append(j - k)
    for j in range(1, f):
        mats.append(ad[j] @ a[j] - ad[j - 1] @ a[j - 1])
        gradings.append(0)

    checks = [check("sl(f) generator count = f^2-1", abs(len(mats) - (f * f - 1)), below=1,
                    f=f, count=len(mats))]

    first, second = np.array(list(itertools.combinations(range(len(mats)), 2))).T
    products = _sector_products(mats, mats, idx)
    comms = products[first, second] - products[second, first]
    span = [_restrict(m, idx) for m in mats] + [np.eye(len(idx))]
    coeffs, resids = _span_coefficients(comms, span)
    worst_span = float(resids.max())
    # every generator contributing to a nonzero bracket must carry the sum of
    # the two bracketed gradings
    span_gradings = np.array(gradings + [0])
    bracket_gradings = span_gradings[first] + span_gradings[second]
    nonzero = np.abs(comms).max(axis=(1, 2)) >= SPAN_TOL
    size = np.abs(coeffs)
    stray = ((span_gradings[None] != bracket_gradings[:, None])
             & (size > 1e-8) & nonzero[:, None])
    worst_grading = float(size[stray].max(initial=0.0))
    checks.append(check("sl(f) bracket closure on sector", worst_span, below=SPAN_TOL, f=f, n=n))
    checks.append(check("sl(f) gradings add under bracket", worst_grading, below=SPAN_TOL,
                        f=f, n=n))
    return checks


def verify_sl3_diagonal(n: int) -> list[Check]:
    """Hypercharge / isospin diagonal pair on three sites.

    ``Y = (2 a_3^+ a_3 - a_1^+ a_1 - a_2^+ a_2) / 3`` acts on an occupation
    state as ``(2 n_3 - n_1 - n_2) / 3``; ``T3 = (a_2^+ a_2 - a_1^+ a_1)/2``
    commutes with it, and the ``n``-quanta sector has dimension
    ``(n+1)(n+2)/2``.
    """
    f = 3
    a, ad, basis = _ladders(f, n + HEADROOM)
    idx = basis.sector_indices(n)
    y = (2 * ad[2] @ a[2] - ad[0] @ a[0] - ad[1] @ a[1]) / 3.0
    t3 = (ad[1] @ a[1] - ad[0] @ a[0]) / 2.0
    yr, t3r = _restrict(y, idx), _restrict(t3, idx)

    checks = []
    r = float(np.max(np.abs(yr @ t3r - t3r @ yr)))
    checks.append(check("[Y,T3] = 0 on sector", r, below=SPAN_TOL, n=n))
    off = max(float(np.max(np.abs(yr - np.diag(np.diag(yr))))),
              float(np.max(np.abs(t3r - np.diag(np.diag(t3r))))))
    checks.append(check("Y, T3 diagonal in occupation basis", off, below=SPAN_TOL, n=n))
    states = [basis.states[i] for i in idx]
    expected = np.array([(2 * s[2] - s[0] - s[1]) / 3.0 for s in states])
    r = float(np.max(np.abs(np.diag(yr) - expected))) if states else 0.0
    checks.append(check("Y eigenvalue = (2n3-n1-n2)/3", r, below=SPAN_TOL, n=n))
    checks.append(check("dim V_n = (n+1)(n+2)/2", abs(len(idx) - (n + 1) * (n + 2) // 2),
                        below=1, n=n))
    return checks


def verify_translation_f3(h_bh: np.ndarray) -> list[Check]:
    """Compare the one-quantum bilinear ``a_3^+ a_1 + a_1^+ a_3 + a_2^+ a_2``
    with the cyclic translation on the one-quantum sector of three sites.

    The bilinear commutes with the hopping Hamiltonian there (asserted); it
    is, however, the site-1<->3 transposition rather than the cyclic shift,
    so the comparison against the translation matrix is reported, not
    asserted: its square (not its cube) is the identity, and a transposition
    is not conjugate to a 3-cycle under any site relabeling.  ``h_bh`` is
    ``H_BH`` at ``gamma = 3`` on the ladders' basis ``at_most(1 + HEADROOM)``
    of three sites, the first array of
    :func:`~qeslattice.ops.hamiltonian_pencil` there.
    """
    f, n = 3, 1
    a, ad, basis = _ladders(f, n + HEADROOM)
    idx = basis.sector_indices(n)
    bilinear = _restrict(ad[2] @ a[0] + ad[0] @ a[2] + ad[1] @ a[1], idx)

    t_matrix = build_translation(f, enumerate_basis(f, exactly(1)))
    h_bh = sector_block(h_bh, basis, n, n)

    checks = []
    r = float(np.max(np.abs(bilinear @ h_bh - h_bh @ bilinear)))
    checks.append(check("one-quantum bilinear commutes with H_BH on V_1",
                        r, below=SPAN_TOL))
    eq = float(np.max(np.abs(bilinear - t_matrix)))
    checks.append(Check(
        name="bilinear vs cyclic translation on V_1",
        params={"equal": bool(eq < SPAN_TOL)},
        residual=eq, status="pass",
        note=("bilinear is the site-1<->3 transposition: square = identity, "
              "cube = itself; not a relabeling of the 3-cycle. "
              f"bilinear={bilinear.astype(int).tolist()} "
              f"translation={t_matrix.astype(int).tolist()}")))
    sq = float(np.max(np.abs(bilinear @ bilinear - np.eye(3))))
    checks.append(check("bilinear squared = identity on V_1", sq, below=SPAN_TOL))
    cube_is_self = float(np.max(np.abs(
        bilinear @ bilinear @ bilinear - bilinear)))
    checks.append(check("bilinear cubed = bilinear on V_1", cube_is_self, below=SPAN_TOL))
    r = float(np.max(np.abs(ad[2] @ a[0] @ _unit(basis, (1, 0, 0)) - _unit(basis, (0, 0, 1)))))
    checks.append(check("a3+ a1 maps |100> to |001>", r, below=SPAN_TOL))
    return checks


def _unit(basis, occ) -> np.ndarray:
    v = np.zeros(basis.size)
    v[basis.index[occ]] = 1.0
    return v


def verify_osp_structure(f: int) -> list[Check]:
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
    a, ad, basis = _ladders(f, n_assert + HEADROOM)

    odd = a + ad
    even = [(ad[j], a[k]) for j in range(f) for k in range(f)]
    even += [(ad[j], ad[k]) for j in range(f) for k in range(j, f)]
    even += [(a[j], a[k]) for j in range(f) for k in range(j, f)]

    invariant_dim = enumerate_basis(f, at_most(2)).size
    checks = [
        check("osp even generator count = 2f^2+f", abs(len(even) - (2 * f * f + f)), below=1,
              f=f, count=len(even)),
        check("osp odd generator count = 2f", abs(len(odd) - 2 * f), below=1,
              f=f, count=len(odd)),
        check("invariant subspace dimension = (f+1)(f+2)/2",
              abs(invariant_dim - (f + 1) * (f + 2) // 2), below=1, f=f, dim=invariant_dim),
    ]

    interior = range(basis.sector_indices(n_assert).stop)
    dim = len(interior)
    # an even generator x @ y is only read on its interior rows and columns,
    # kept side by side so that each odd generator meets all of them in one
    # matmul per side
    even_rows = np.concatenate([x[:dim] @ y for x, y in even])
    even_cols = np.concatenate([x @ y[:, :dim] for x, y in even], axis=1)
    even_span = list(even_rows.reshape(len(even), dim, -1)[:, :, :dim]) + [np.eye(dim)]
    odd_span = [_restrict(m, interior) for m in odd]

    first, second = np.array(list(itertools.combinations_with_replacement(range(len(odd)), 2))).T
    targets = _sector_products(odd, odd, interior)
    targets = targets[first, second] + targets[second, first]
    worst = float(_span_coefficients(targets, even_span)[1].max())
    checks.append(check("odd x odd anticommutators close in even span + identity",
                        worst, below=SPAN_TOL, f=f))

    # [e, o] on the interior for every even e, one odd o at a time
    targets = np.empty((len(even), len(odd), dim, dim))
    for i, o in enumerate(odd):
        targets[:, i] = ((even_rows @ o[:, :dim]).reshape(len(even), dim, dim)
                         - (o[:dim] @ even_cols).reshape(dim, len(even), dim).swapaxes(0, 1))
    worst = float(_span_coefficients(targets.reshape(-1, dim, dim), odd_span)[1].max())
    checks.append(check("even x odd commutators close in odd span",
                        worst, below=SPAN_TOL, f=f))
    return checks


def verify_canonical_relations(f: int) -> list[Check]:
    """Canonical commutation relations on the padded interior:
    ``[a_i, a_j^+] = delta_ij`` and ``[a_i, a_j] = 0`` hold exactly on all
    states with two quanta of headroom below the truncation."""
    n_assert = 2
    a, ad, basis = _ladders(f, n_assert + HEADROOM)
    dim = basis.sector_indices(n_assert).stop
    # pair by pair on views of the cut operands: stacking them copies more
    # than the f^2 small products cost; [a_i, a_i] = 0 and [a_j, a_i] =
    # -[a_i, a_j] need no products of their own
    eye = np.eye(dim)
    worst_ccr = 0.0
    worst_comm = 0.0
    for i, j in itertools.product(range(f), repeat=2):
        ccr = a[i][:dim] @ ad[j][:, :dim] - ad[j][:dim] @ a[i][:, :dim]
        if i == j:
            ccr -= eye
        worst_ccr = max(worst_ccr, float(np.max(np.abs(ccr))))
        if i < j:
            comm = a[i][:dim] @ a[j][:, :dim] - a[j][:dim] @ a[i][:, :dim]
            worst_comm = max(worst_comm, float(np.max(np.abs(comm))))
    checks = [
        check("[a_i, a_j+] = delta_ij on padded interior", worst_ccr, below=SPAN_TOL, f=f),
        check("[a_i, a_j] = 0 on padded interior", worst_comm, below=SPAN_TOL, f=f),
    ]
    if f == 1:
        a_ad, ad_a = a[0][:dim] @ ad[0][:, :dim], ad[0][:dim] @ a[0][:, :dim]
        r = float(np.max(np.abs(a_ad + ad_a - (2 * ad_a + eye))))
        checks.append(check("{a, a+} = 2N + 1 on padded interior", r, below=SPAN_TOL, f=f))
    return checks
