"""Verification suites aggregating the package invariants.

Each suite returns a list of :class:`~qeslattice.report.Check` records; the
CLI ``verify`` subcommand serializes them and sets its exit status from the
union.  Parameter ranges follow the published coverage of each property:
tables and closed-form polynomials exist for rings of up to four sites, the
closed-form block matrices are compared for up to five, and the structural
symmetries are cheap enough to assert on every ring size the package
targets.

Every suite takes the :class:`Rings` of its run and builds nothing that the
table already holds.  What no coupling enters (each ring's bases, orbit
table, block frames, drives, ``N``, ``T`` and hop matrices) is built once per
process and shared by every run; what a coupling enters (the dense and
momentum pencils of each ``gamma`` and the solves) is built once per run,
however many suites read it, and dropped when the run returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from . import algebra
from .fock import FockBasis, at_most, enumerate_basis
from .momentum import (MomentumLabel, PencilStack, block_dimensions, expected_block_dimension,
                       momentum_values, pencil_stacks, project_block)
from .ops import (BlockPencil, _block_pencils, _h_bh, _h_drive, _orbits, _Orbits, build_number,
                  build_translation, commutator, sector_block)
from .reference import (CHARPOLY_SAMPLES, CHARPOLY_TOL, EIGENSTATE_FORMULAS,
                        EIGENSTATE_RESIDUAL_TOL, REFERENCE_CHAR_POLYS, REFERENCE_GAMMA,
                        REFERENCE_TABLES, TABLE_TOL, f3_dim3_energies)
from .report import Check, check, skip
from .spectra import (SpectrumResult, SweepResult, _checked, _read_only, _spectra, _sweep,
                      _sweep_grid, hermiticity_defect, soliton_band)

EXACT_TOL = 1e-12
ORACLE_TOL = 1e-9

T = TypeVar("T")


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector, by its own formula, without
    its dispatch."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _once(built: dict, key, build: Callable[[], T]) -> T:
    if key not in built:
        built[key] = build()
    return built[key]


@dataclass
class _Kept:
    """The constructions of every ring that no coupling enters: per ``(f,
    n)`` the occupation basis ``at_most(n)``, the drive, the hop matrix and
    the pair count ``sum n_j (n_j - 1)`` of each state; per ``f`` the orbit
    table, ``N`` and ``T``; per label the block frame."""

    bases: dict[tuple[int, int], FockBasis] = field(default_factory=dict)
    drives: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    hops: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    pairs: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    orbits: dict[int, _Orbits] = field(default_factory=dict)
    numbers: dict[int, np.ndarray] = field(default_factory=dict)
    translations: dict[int, np.ndarray] = field(default_factory=dict)
    frames: dict[MomentumLabel, np.ndarray] = field(default_factory=dict)


# built on first use by any run and kept, read-only, for the process; each
# entry holds the bytes of a fresh build, so no run depends on an earlier one
_KEPT = _Kept()


class Rings:
    """The constructions of one verification run, each built on first use
    and then shared, read-only, by every suite of the run: per ring ``f``
    its occupation basis ``at_most(n)``, the drive and the hop matrix of
    its dense pencil on it, ``N`` and ``T``, and per ``gamma`` the
    pencil's ``h_bh`` (:func:`~qeslattice.ops.hamiltonian_pencil`), its
    momentum pencils (:func:`~qeslattice.momentum.pencil_stacks`) and its
    solve at each coupling; its orbit table, which gives each label's block
    vectors (:func:`~qeslattice.ops.build_momentum_vectors`) and the orbit
    pencils (:func:`~qeslattice.ops.orbit_block_pencil`).

    What no coupling enters (bases, drives, hop matrices, orbit tables,
    frames, ``N`` and ``T``) is kept for the process in ``_KEPT`` and
    shared by every run, 0.35 MB after a full one.  The rest is built per
    run: :func:`run_suites` makes one table per run and drops it when the
    run returns, so no pencil, stack or solve is kept from one run to the
    next.  Each ``h_bh`` is its ring's hop matrix with the on-site term of
    its ``gamma`` written on the diagonal, and each momentum pencil is the
    ``gamma``-free pencil that :func:`~qeslattice.momentum.pencil_stacks`
    keeps per ring size and process, shifted by ``gamma``; both give the
    bytes of a fresh build, so no output depends on an earlier run.  Solves
    and sweeps take the checks and the admission of
    :func:`~qeslattice.spectra.solve_spectra` and
    :func:`~qeslattice.spectra.sweep`, on the pencils held here; the
    couplings a solve adds are solved together, and ``eigh`` solves each
    matrix on its own, so a result does not depend on which suite asked
    first."""

    def __init__(self) -> None:
        self._pencils: dict[tuple[int, float, int], tuple[np.ndarray, np.ndarray]] = {}
        self._stacks: dict[tuple[int, float], tuple[PencilStack, ...]] = {}
        self._solved: dict[tuple[int, float, float], SpectrumResult] = {}

    def basis(self, f: int, n: int = 2) -> FockBasis:
        """The occupation basis ``at_most(n)`` of ``f`` sites."""
        return _once(_KEPT.bases, (f, n), lambda: enumerate_basis(f, at_most(n)))

    def hop(self, f: int, n: int = 2) -> np.ndarray:
        """The hops of ``h_bh`` on :meth:`basis` ``(f, n)``: its ``h_bh`` at
        ``gamma = 0.0``, read-only."""
        return _once(_KEPT.hops, (f, n), lambda: _read_only(_h_bh(f, 0.0, self.basis(f, n))))

    def number(self, f: int) -> np.ndarray:
        """``N`` on :meth:`basis` ``(f)``, read-only."""
        return _once(_KEPT.numbers, f, lambda: _read_only(build_number(f, self.basis(f))))

    def translation(self, f: int) -> np.ndarray:
        """``T`` on :meth:`basis` ``(f)``, read-only."""
        return _once(_KEPT.translations, f,
                     lambda: _read_only(build_translation(f, self.basis(f))))

    def pencil(self, f: int, gamma: float, n: int = 2) -> tuple[np.ndarray, np.ndarray]:
        """``(h_bh, h_drive)`` on :meth:`basis` ``(f, n)``, read-only; every
        ``gamma`` shares one ``h_drive``."""
        return _once(self._pencils, (f, gamma, n), lambda: (
            _read_only(self._h_bh(f, gamma, n)),
            _once(_KEPT.drives, (f, n), lambda: _read_only(_h_drive(f, self.basis(f, n))))))

    def _h_bh(self, f: int, gamma: float, n: int) -> np.ndarray:
        """``_h_bh(f, gamma, basis(f, n))``: a copy of :meth:`hop` whose
        diagonal is the on-site term plus the hop diagonal.  No hop lands on
        the diagonal, which holds ``+0.0``; adding it turns an on-site
        ``-0.0`` into the ``0.0`` that ``np.add.at`` leaves.  On one site
        every hop lands on the diagonal, summed after the on-site term, so
        that ring is built directly."""
        basis = self.basis(f, n)
        if f == 1:
            return _h_bh(f, gamma, basis)
        hop = self.hop(f, n)
        pairs = _once(_KEPT.pairs, (f, n), lambda: _read_only(np.array(
            [float(sum(k * (k - 1) for k in state)) for state in basis.states])))
        h = hop.copy()
        np.fill_diagonal(h, -0.5 * gamma * pairs + hop.diagonal())
        return h

    def stacks(self, f: int, gamma: float) -> tuple[PencilStack, ...]:
        """The momentum pencils of ``f`` sites at ``gamma``."""
        return _once(self._stacks, (f, gamma), lambda: tuple(pencil_stacks(f, gamma)))

    def orbits(self, f: int) -> _Orbits:
        """The orbit table of ``f`` sites over :meth:`basis` ``(f)``."""
        return _once(_KEPT.orbits, f, lambda: _orbits(self.basis(f)))

    def frame(self, label: MomentumLabel) -> np.ndarray:
        """The block vectors at ``label``, the columns of a read-only array
        over :meth:`basis` ``(label.f)``."""
        return _once(_KEPT.frames, label, lambda: _read_only(
            self.orbits(label.f).frame(label.nu, self.basis(label.f).size)))

    def block_pencils(self, f: int, gamma: float) -> list[BlockPencil]:
        """``orbit_block_pencil(f, gamma)`` on :meth:`orbits` ``(f)``."""
        return _block_pencils(self.orbits(f), gamma)

    def solve(self, f: int, gamma: float, lams: Iterable[float]) -> tuple[SpectrumResult, ...]:
        """``solve_spectra(f, gamma, lams)``, solving only the couplings no
        earlier call solved; a coupling equal to one solved before (``0.0``
        and ``-0.0`` are equal) gets that result, its ``lam`` included."""
        lams = list(lams)
        new = [lam for lam in dict.fromkeys(lams) if (f, gamma, lam) not in self._solved]
        if new:
            f, grid = _checked(f, gamma, new, keeps_vectors=True)
            for lam, result in zip(new, _spectra(self.stacks(f, gamma), f, gamma, new, grid)):
                self._solved[f, gamma, lam] = result
        return tuple(self._solved[f, gamma, lam] for lam in lams)

    def sweep(self, f: int, gamma: float, lams: Iterable[float]) -> SweepResult:
        """``sweep(f, gamma, lams)``."""
        f, grid = _sweep_grid(f, gamma, lams)
        return _sweep(self.stacks(f, gamma), f, gamma, grid)


def ops_suite(rings: Rings) -> list[Check]:
    """Hermiticity, conserved quantities and invariant-subspace structure."""
    checks: list[Check] = []
    gamma = 3.0
    for f in range(1, 7):
        n_op = rings.number(f)
        t_op = rings.translation(f)
        h_bh, h_drive = rings.pencil(f, gamma)

        r = hermiticity_defect(h_bh)
        checks.append(check("H_BH hermitian", r, below=EXACT_TOL, f=f))
        r = float(np.max(np.abs(commutator(h_bh, n_op))))
        checks.append(check("[H_BH, N] = 0", r, below=EXACT_TOL, f=f))
        r = float(np.max(np.abs(commutator(h_bh, t_op))))
        checks.append(check("[H_BH, T] = 0", r, below=EXACT_TOL, f=f))

        for lam in (0.25, 0.5):
            h_lam = lam * h_drive
            h = h_bh + h_lam
            r = max(hermiticity_defect(h_lam), hermiticity_defect(h),
                    hermiticity_defect(n_op))
            checks.append(check("H_lam, H, N hermitian", r, below=EXACT_TOL, f=f, lam=lam))
            r = float(np.max(np.abs(commutator(h, t_op))))
            checks.append(check("[H, T] = 0", r, below=EXACT_TOL, f=f, lam=lam))
            hn = float(np.linalg.norm(commutator(h, n_op)))
            checks.append(check("|[H, N]| > 0.1 lam", hn, above=0.1 * lam, f=f, lam=lam))

        # invariance of the 0+1+2-quanta subspace, probed with headroom
        wide_bh, wide_drive = rings.pencil(f, gamma, 3)
        h_wide = wide_bh + 0.5 * wide_drive
        wide = rings.basis(f, 3)
        leak = max(float(np.max(np.abs(sector_block(h_wide, wide, 3, n)))) for n in (0, 1, 2))
        checks.append(check("no coupling from 0/1/2 quanta into 3", leak, below=EXACT_TOL, f=f))
        checks.extend(algebra.verify_canonical_relations(f))
    return checks


def momentum_suite(rings: Rings) -> list[Check]:
    """Block dimensions, orthonormality, translation eigenvectors, coupling
    structure, and agreement of the closed-form block matrices with the
    projection of dense ``H`` and with the orbit construction."""
    checks: list[Check] = []
    for f in range(1, 13):
        dims = block_dimensions(f)
        total = (f + 1) * (f + 2) // 2
        if f % 2 == 1:
            closed = (f + 5) // 2 + (f - 1) * (f + 3) // 2
        else:
            closed = (f + 6) // 2 + (f // 2) * (f + 2) // 2 + ((f - 2) // 2) * (f + 4) // 2
        checks.append(check("block dimension identity",
                            max(abs(sum(dims) - total), abs(closed - total)), below=1, f=f))

    gamma, lam = 3.0, 0.5
    vacuum_checks = []  # recorded after the block checks of every ring
    for f in range(1, 9):
        h_bh, h_drive = rings.pencil(f, gamma)
        h = h_bh + lam * h_drive
        label = next(l for l in momentum_values(f) if l.nu == 0)
        # as contiguous rows: the products round differently on strided columns
        vacuum, psi1 = np.ascontiguousarray(rings.frame(label).T)[:2]
        coupling = complex(vacuum.conj() @ h @ psi1)
        r = abs(coupling - (-2.0 * lam * np.sqrt(f)))
        vacuum_checks.append(check("vacuum couples only as -2 lam sqrt(f)", r, below=1e-12, f=f))
        if f > 6:
            continue
        t_op = rings.translation(f)
        (result,) = rings.solve(f, gamma, [lam])
        blocks = result.blocks
        dim_dev = max(abs(b.dim - expected_block_dimension(f, b.label.nu)) for b in blocks)
        checks.append(check("constructed block dimensions", dim_dev, below=1, f=f))
        worst_gram = 0.0
        worst_t = 0.0
        worst_herm = 0.0
        for b in blocks:
            v = rings.frame(b.label)
            worst_gram = max(worst_gram, float(np.max(np.abs(
                v.conj().T @ v - np.eye(b.dim)))))
            worst_t = max(worst_t, float(np.max(np.abs(
                t_op @ v - b.label.translation_eigenvalue * v))))
            worst_herm = max(worst_herm, hermiticity_defect(b.hmatrix))
        checks.append(check("block vectors orthonormal", worst_gram, below=1e-12, f=f))
        checks.append(check("blocks are translation eigenspaces", worst_t, below=1e-12, f=f))
        checks.append(check("block matrices hermitian", worst_herm, below=1e-12, f=f))
        worst_cross = 0.0
        worst_proj = 0.0
        for i, bi in enumerate(blocks):
            for bj in blocks[i:]:
                projected = rings.frame(bi.label).conj().T @ h @ rings.frame(bj.label)
                if bj is bi:
                    worst_proj = max(worst_proj, float(np.max(np.abs(projected - bi.hmatrix))))
                else:
                    worst_cross = max(worst_cross, float(np.max(np.abs(projected))))
        checks.append(check("no coupling between momentum blocks", worst_cross, below=1e-12, f=f))
        checks.append(check("blocks equal the projection of dense H", worst_proj, below=EXACT_TOL,
                            f=f))

    checks += vacuum_checks

    for f in range(1, 6):
        for gam in (1.0, 3.0):
            worst22 = 0.0
            worst12 = 0.0
            # the closed-form blocks against the orbit construction
            (result,) = rings.solve(f, gam, [lam])
            for b, oracle in zip(result.blocks, rings.block_pencils(f, gam)):
                ref = oracle.matrix(lam)
                i0 = 2 if b.label.nu == 0 else 1
                e_block = np.sort(np.linalg.eigvalsh(b.hmatrix[i0:, i0:]))
                e_ref = np.sort(np.linalg.eigvalsh(ref[i0:, i0:]))
                worst22 = max(worst22, float(np.max(np.abs(e_block - e_ref))))
                worst12 = max(worst12, float(np.max(np.abs(
                    b.hmatrix[i0 - 1, i0:] - ref[i0 - 1, i0:]))))
            checks.append(check("closed-form two-quanta block (eigenvalues)",
                                worst22, below=ORACLE_TOL, f=f, gamma=gam))
            checks.append(check("closed-form one-to-two coupling row",
                                worst12, below=1e-12, f=f, gamma=gam))
    return checks


def spectra_suite(rings: Rings) -> list[Check]:
    """Oracle equivalence, coupling-sign symmetry, momentum degeneracy and
    the decoupled-limit sector structure."""
    checks: list[Check] = []
    for f in range(1, 8):
        for gamma in (1.0, 3.0):
            h_bh, h_drive = rings.pencil(f, gamma)
            lams = (0.0, 0.25, 0.5)
            for lam, result in zip(lams, rings.solve(f, gamma, lams)):
                blocks = result.all_eigenvalues()
                full = np.linalg.eigvalsh(h_bh + lam * h_drive)
                r = float(np.max(np.abs(blocks - full)))
                checks.append(check("block spectra match brute force", r, below=ORACLE_TOL,
                                    f=f, gamma=gamma, lam=lam))

    for f in (2, 3, 5):
        plus, minus = (r.all_eigenvalues() for r in rings.solve(f, 3.0, (0.4, -0.4)))
        r = float(np.max(np.abs(plus - minus)))
        checks.append(check("spectrum invariant under lam -> -lam", r, below=ORACLE_TOL, f=f))

    for f in (3, 4, 5, 7):
        (result,) = rings.solve(f, 3.0, [0.5])
        h_bh, h_drive = rings.pencil(f, 3.0)
        h = h_bh + 0.5 * h_drive
        worst_pair = 0.0
        worst_conj = 0.0
        present = {b.label.nu for b in result.blocks}
        for bs in result.blocks:
            if bs.label.nu <= 0 or -bs.label.nu not in present:
                continue  # nu = f/2 on even rings is its own mirror (k = pi)
            mirror = result.block_for(-bs.label.nu)
            # the solve gives -nu the spectrum of nu: compare both with the
            # dense projection of H onto the orbit vectors at -nu
            frame = rings.frame(mirror.label)
            projected = np.linalg.eigvalsh(project_block(h, frame))
            for w in (bs.eigenvalues, mirror.eigenvalues):
                worst_pair = max(worst_pair, float(np.max(np.abs(w - projected))))
            eigenvectors = rings.frame(bs.label) @ bs.coefficients
            for i, e in enumerate(bs.eigenvalues):
                v = eigenvectors[:, i].conj()
                worst_conj = max(worst_conj, _norm(h @ v - e * v) / _norm(v))
                # membership in the mirror block's span
                proj = frame @ (frame.conj().T @ v)
                worst_conj = max(worst_conj, _norm(proj - v))
        checks.append(check("+-nu eigenvalue degeneracy", worst_pair, below=ORACLE_TOL, f=f))
        checks.append(check("conjugated eigenvectors lie in the mirror block",
                            worst_conj, below=1e-8, f=f))

    for f in range(1, 8):
        gamma = 3.0
        (result,) = rings.solve(f, gamma, [0.0])
        expected = [0.0]
        expected += [-2.0 * np.cos(2 * np.pi * l.nu / f) for l in momentum_values(f)]
        expected += list(np.linalg.eigvalsh(sector_block(rings.pencil(f, gamma)[0],
                                                         rings.basis(f), 2, 2)))
        r = float(np.max(np.abs(result.all_eigenvalues() - np.sort(expected))))
        checks.append(check("lam=0 spectrum splits into quanta sectors",
                            r, below=ORACLE_TOL, f=f))
    return checks


def soliton_suite(rings: Rings) -> list[Check]:
    """Band minima separation for rings of 3, 5 and 7 sites at gamma = 3.

    Both margins are reported: the per-momentum gap (band state vs the rest
    of its own block, the separation a band plot shows) must be positive;
    the stricter cross-block margin is additionally recorded and is known to
    turn negative on the seven-site ring, where the band edge near k = pi
    lies above the two-quanta continuum edge near k = 0.
    """
    checks: list[Check] = []
    for f in (3, 5, 7):
        lams = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
        for lam, result in zip(lams, rings.solve(f, 3.0, lams)):
            band = soliton_band(result)
            checks.append(check("soliton band separated per momentum",
                                band.per_nu_margin, above=0.0, f=f, lam=lam,
                                note=f"cross-block margin {band.margin:+.4f}"))
    return checks


def charpoly_suite(rings: Rings) -> list[Check]:
    """The printed block polynomials, sampled over (gamma, lam); each ring is
    solved once per gamma, over all sampled couplings.  Each block's
    polynomial is assembled from its eigenvalues (``np.poly``, stable at
    these dimensions) rather than by determinant expansion."""
    gammas, lams = CHARPOLY_SAMPLES
    worst = dict.fromkeys(REFERENCE_CHAR_POLYS, 0.0)
    for f in dict.fromkeys(ref.f for ref in REFERENCE_CHAR_POLYS):
        refs = [ref for ref in REFERENCE_CHAR_POLYS if ref.f == f]
        for gamma in gammas:
            for lam, result in zip(lams, rings.solve(f, gamma, lams)):
                for ref in refs:
                    target = ref.coefficients(gamma, lam)
                    for nu in ref.nus:
                        computed = np.poly(result.block_for(nu).eigenvalues)
                        dev = np.max(np.abs(computed - target)
                                     / np.maximum(1.0, np.abs(target)))
                        worst[ref] = max(worst[ref], float(dev))
    return [check(f"characteristic polynomial: {ref.name}", worst[ref], below=CHARPOLY_TOL,
                  f=ref.f) for ref in REFERENCE_CHAR_POLYS]


def table_checks(rings: Rings) -> Iterator[tuple]:
    """``(table, rows, verdict)`` for every reference table, in order: one
    sweep at gamma = 3 per ring and coupling grid, shared by the tables that
    tabulate them, one ``(lam, nu, computed, reference)`` row per tabulated
    block spectrum, and the verdict on the largest deviation."""
    sweeps: dict[tuple, dict[int, np.ndarray]] = {}
    for table in REFERENCE_TABLES:
        lams = tuple(lam for lam, _ in table.rows)
        if (table.f, lams) not in sweeps:
            result = rings.sweep(table.f, REFERENCE_GAMMA, lams)
            sweeps[table.f, lams] = {bs.label.nu: bs.energies for bs in result.blocks}
        curves = sweeps[table.f, lams]
        rows = [(lam, nu, curves[nu][i], np.array(energies))
                for i, (lam, energies) in enumerate(table.rows) for nu in table.nus]
        worst = max(float(np.max(np.abs(computed - reference))) for *_, computed, reference in rows)
        yield table, rows, check(f"table {table.name}", worst, below=TABLE_TOL, f=table.f,
                                 values=table.value_count * len(table.nus))


def tables_suite(rings: Rings) -> list[Check]:
    """Reproduce every tabulated eigenvalue at gamma = 3 to +-1.5e-3."""
    checks = [verdict for _, _, verdict in table_checks(rings)]
    # the dimension-3 blocks on three sites additionally have exact closed forms
    worst = 0.0
    lams = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    for lam, result in zip(lams, rings.solve(3, REFERENCE_GAMMA, lams)):
        target = np.array(f3_dim3_energies(lam))
        for nu in (1, -1):
            worst = max(worst, float(np.max(np.abs(
                result.block_for(nu).eigenvalues - target))))
    checks.append(check("f3 dim-3 closed-form energies", worst, below=1e-9, f=3))
    return checks


def algebra_suite(rings: Rings) -> list[Check]:
    """All Lie-structure verifications at their published ranges."""
    checks: list[Check] = []
    checks.extend(algebra.verify_sl2())
    for f in (2, 3, 4):
        checks.extend(algebra.verify_grading_closure(f, n=2))
    for n in (0, 1, 2, 3):
        checks.extend(algebra.verify_sl3_diagonal(n))
    checks.extend(algebra.verify_translation_f3(rings.pencil(3, 3.0, 1 + algebra.HEADROOM)[0]))
    for f in (1, 2, 3, 4):
        checks.extend(algebra.verify_osp_structure(f))
    return checks


def verify_eigenvector_formulas(result: SpectrumResult) -> list:
    """Check every closed-form eigenstate that applies to a solved spectrum.

    ``result`` is a :class:`~qeslattice.spectra.SpectrumResult` of a solve;
    its ``f``, ``gamma`` and ``lam`` select the formulas.  For each formula
    the computed eigenvalues of its block are substituted into the printed
    coefficients, the state is assembled over the occupation basis and the
    relative residual ``|(H - E) v| / |v|``, with ``H`` built densely at the
    result's parameters, is compared against ``1e-8``.  Failures are
    reported, not raised.  Formulas that are alternative readings of one
    printed expression share a group; a summary record for the group passes
    when at least one reading does.  A formula whose coefficients vanish
    identically at the given parameters (the mixing amplitudes are
    proportional to ``lam`` in several of them) is reported as a skip.
    Raises ``ValueError`` for a ring outside ``1..4``, where no formula is
    tabulated.
    """
    if result.f not in (1, 2, 3, 4):
        raise ValueError("closed-form eigenstates are tabulated for f in 1..4")
    return _eigenvector_checks(result, Rings())


def _eigenvector_checks(result: SpectrumResult, rings: Rings) -> list:
    """:func:`verify_eigenvector_formulas` on the basis, pencil and frames
    of ``rings``."""
    f, gamma, lam = result.f, result.gamma, result.lam
    basis = rings.basis(f)
    h_bh, h_drive = rings.pencil(f, gamma)
    h = h_bh + lam * h_drive
    checks: list[Check] = []
    group_results: dict[str, list[bool]] = {}

    for formula in EIGENSTATE_FORMULAS:
        if formula.f != f:
            continue
        if formula.gamma is not None and abs(formula.gamma - gamma) > 1e-12:
            continue
        if formula.lam is not None and abs(formula.lam - lam) > 1e-12:
            continue
        if formula.kind == "block":
            block = result.block_for(formula.nu)
            eigenvalues = block.eigenvalues
            frame = rings.frame(block.label)
        else:
            eigenvalues = result.all_eigenvalues()
            frame = None
        params = {"f": f, "gamma": gamma, "lam": lam, "nu": formula.nu}
        worst = 0.0
        tested = 0
        degenerate = 0
        for E in eigenvalues:
            if not formula.selects(E, gamma, lam):
                continue
            coeffs = formula.coefficients(E, gamma, lam)
            if formula.kind == "block":
                v = frame @ np.asarray(coeffs, dtype=complex)
            else:
                v = np.zeros(basis.size, dtype=complex)
                for occ, c in coeffs.items():
                    v[basis.index[occ]] = c
            norm = _norm(v)
            if norm < 1e-12:
                degenerate += 1
                continue
            worst = max(worst, _norm(h @ v - E * v) / norm)
            tested += 1
        if tested == 0:
            checks.append(skip(formula.name, note="all selected states degenerate here",
                               **params))
            continue
        note = f"{tested} states" + (f", {degenerate} degenerate skipped" if degenerate else "")
        record = check(formula.name, worst, below=EIGENSTATE_RESIDUAL_TOL, note=note, **params)
        if formula.group is not None:
            # alternative readings of one printed expression: record which
            # match, but leave the pass/fail verdict to the group summary
            group_results.setdefault(formula.group, []).append(record.passed)
            if not record.passed:
                record = replace(record, status="reading-mismatch")
        checks.append(record)

    for group, oks in sorted(group_results.items()):
        matches = sum(oks)
        checks.append(Check(
            name=f"reading group '{group}'", params={"f": f, "gamma": gamma, "lam": lam},
            status="pass" if matches else "fail",
            note=f"{matches}/{len(oks)} readings match the computed eigenvectors"))
    return checks


def eigvec_suite(rings: Rings) -> list[Check]:
    """Closed-form eigenstates at representative couplings.

    Generic-in-gamma formulas are exercised at three interaction strengths;
    the gamma = 3 forms at the tabulated one.  The decoupled-limit forms run
    at lam = 0, everything else at nonzero couplings where no printed
    coefficient vector degenerates to zero.
    """
    checks: list[Check] = []
    lams = (0.1, 0.25, 0.5)
    sizes = (1, 2, 3, 4)
    for gamma in (1.0, 3.0, 7.0):
        # one solve per ring; f = 2 also at lam = 0, its last point
        solved = {f: rings.solve(f, gamma, lams + (0.0,) * (f == 2)) for f in sizes}
        for j in range(len(lams)):
            for f in sizes:
                checks.extend(_eigenvector_checks(solved[f][j], rings))
        checks.extend(_eigenvector_checks(solved[2][-1], rings))
    return checks


SUITES = {
    "ops": ops_suite,
    "momentum": momentum_suite,
    "spectra": spectra_suite,
    "soliton": soliton_suite,
    "charpoly": charpoly_suite,
    "tables": tables_suite,
    "algebra": algebra_suite,
    "eigvec": eigvec_suite,
}


def run_suites(names: list[str] | None = None) -> list[Check]:
    for name in names or ():
        if name not in SUITES and name != "all":
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    selected = list(SUITES) if not names or "all" in names else dict.fromkeys(names)
    rings = Rings()
    return [c for name in selected for c in SUITES[name](rings)]
