"""Reference data for small rings: tabulated eigenvalues at ``gamma = 3``,
closed-form characteristic polynomials in ``(gamma, lam)``, and closed-form
eigenstates per momentum block.

These records are consumed as oracles by the test suite and the ``verify``
CLI; they are never used to construct anything.  Two of the printed
eigenstate formulas are known to admit more than one reading (a dropped
``lam^2`` / parenthesis in a quartic-block coefficient, and the sign of the
doubly-occupied-pair coefficient in the five-site-family quintic block);
those are stored as reading groups, and the verifier reports which reading
the numerically solved coefficients match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

REFERENCE_GAMMA = 3.0

_S2 = math.sqrt(2.0)
_S3 = math.sqrt(3.0)
_S6 = math.sqrt(6.0)


@dataclass(frozen=True)
class ReferenceTable:
    """Eigenvalues of one momentum block at ``gamma = 3`` on a ``lam`` grid."""

    name: str
    f: int
    nus: tuple[int, ...]
    rows: tuple[tuple[float, tuple[float, ...]], ...]  # (lam, ascending energies)

    @property
    def dim(self) -> int:
        return len(self.rows[0][1])

    @property
    def value_count(self) -> int:
        return sum(len(r[1]) for r in self.rows)


REFERENCE_TABLES: tuple[ReferenceTable, ...] = (
    ReferenceTable("f1 nu=0", 1, (0,), (
        (0.0, (-7.000, -2.000, 0.000)),
        (0.1, (-7.004, -2.016, 0.020)),
        (0.2, (-7.016, -2.061, 0.077)),
        (0.3, (-7.036, -2.132, 0.168)),
        (0.4, (-7.064, -2.221, 0.286)),
        (0.5, (-7.101, -2.323, 0.424)),
    )),
    ReferenceTable("f3 nu=0", 3, (0,), (
        (0.0, (-5.372, -2.000, 0.000, 0.372)),
        (0.1, (-5.389, -2.043, 0.058, 0.374)),
        (0.2, (-5.439, -2.159, 0.212, 0.386)),
        (0.3, (-5.524, -2.314, 0.336, 0.503)),
        (0.4, (-5.645, -2.484, 0.353, 0.776)),
        (0.5, (-5.801, -2.649, 0.357, 1.094)),
    )),
    ReferenceTable("f3 nu=+-1", 3, (1, -1), (
        (0.0, (-3.450, 1.000, 1.450)),
        (0.1, (-3.456, 1.000, 1.456)),
        (0.2, (-3.474, 1.000, 1.474)),
        (0.3, (-3.504, 1.000, 1.504)),
        (0.4, (-3.546, 1.000, 1.546)),
        (0.5, (-3.598, 1.000, 1.598)),
    )),
    ReferenceTable("f2 nu=0", 2, (0,), (
        (0.0, (-5.772, -2.000, 0.000, 2.772)),
        (0.1, (-5.782, -2.029, 0.039, 2.772)),
        (0.2, (-5.813, -2.110, 0.150, 2.773)),
        (0.3, (-5.865, -2.227, 0.318, 2.775)),
        (0.4, (-5.939, -2.364, 0.525, 2.777)),
        (0.5, (-6.034, -2.507, 0.761, 2.780)),
    )),
    ReferenceTable("f2 nu=1", 2, (1,), (
        (0.0, (-3.000, 2.000)),
        (0.1, (-3.004, 2.004)),
        (0.2, (-3.016, 2.016)),
        (0.3, (-3.036, 2.036)),
        (0.4, (-3.063, 2.063)),
        (0.5, (-3.098, 2.098)),
    )),
    ReferenceTable("f4 nu=0", 4, (0,), (
        (0.0, (-5.191, -2.000, -1.317, 0.000, 3.509)),
        (0.1, (-5.214, -2.066, -1.307, 0.078, 3.509)),
        (0.2, (-5.282, -2.228, -1.288, 0.289, 3.509)),
        (0.3, (-5.398, -2.429, -1.273, 0.590, 3.510)),
        (0.4, (-5.563, -2.631, -1.263, 0.947, 3.510)),
        (0.5, (-5.778, -2.814, -1.257, 1.338, 3.511)),
    )),
    ReferenceTable("f4 nu=2", 4, (2,), (
        (0.0, (-3.000, 0.000, 0.000, 2.000)),
        (0.1, (-3.004, -0.010, 0.000, 2.014)),
        (0.2, (-3.016, -0.039, 0.000, 2.055)),
        (0.3, (-3.036, -0.084, 0.000, 2.120)),
        (0.4, (-3.065, -0.142, 0.000, 2.206)),
        (0.5, (-3.101, -0.209, 0.000, 2.311)),
    )),
    ReferenceTable("f4 nu=+-1", 4, (1, -1), (
        (0.0, (-4.000, 0.000, 1.000)),
        (0.1, (-4.009, 0.005, 1.004)),
        (0.2, (-4.036, 0.020, 1.016)),
        (0.3, (-4.080, 0.043, 1.037)),
        (0.4, (-4.140, 0.072, 1.067)),
        (0.5, (-4.215, 0.107, 1.107)),
    )),
)

TABLE_TOL = 1.5e-3  # tables are printed to three decimals


@dataclass(frozen=True)
class ReferenceCharPoly:
    """Closed-form monic characteristic polynomial of one momentum block."""

    name: str
    f: int
    nus: tuple[int, ...]
    coefficients: Callable[[float, float], np.ndarray]  # (gamma, lam) -> high-to-low


def _poly(coeffs: list[float]) -> np.ndarray:
    return np.array(coeffs, dtype=float)


REFERENCE_CHAR_POLYS: tuple[ReferenceCharPoly, ...] = (
    ReferenceCharPoly("f1 nu=0 cubic", 1, (0,), lambda g, l: _poly(
        [1, g + 6, 2 * g + 8 - 6 * l * l, -16 * l * l - 4 * g * l * l])),
    ReferenceCharPoly("f2 nu=0 quartic", 2, (0,), lambda g, l: _poly(
        [1, g + 2, 2 * g - 16 - 12 * l * l, -32 + 16 * l * l - 10 * g * l * l, 128 * l * l])),
    ReferenceCharPoly("f2 nu=1 quadratic", 2, (1,), lambda g, l: _poly(
        [1, g - 2, -2 * g - 2 * l * l])),
    ReferenceCharPoly("f3 nu=0 quartic", 3, (0,), lambda g, l: _poly(
        [1, g + 4, 4 * g - 4 - 18 * l * l,
         4 * g - 16 - 12 * l * l - 16 * g * l * l, 96 * l * l - 24 * g * l * l])),
    ReferenceCharPoly("f3 nu=+-1 cubic", 3, (1, -1), lambda g, l: _poly(
        [1, g - 2, -(3 * l * l + 2 * g + 1), 2 + g + 6 * l * l - g * l * l])),
    ReferenceCharPoly("f4 nu=0 quintic", 4, (0,), lambda g, l: _poly(
        [1, g + 2, 2 * g - 16 - 24 * l * l, -8 * g - 32 + 32 * l * l - 22 * g * l * l,
         -16 * g + 256 * l * l + 16 * g * l * l, 128 * g * l * l])),
    ReferenceCharPoly("f4 nu=2 quartic (zero root)", 4, (2,), lambda g, l: _poly(
        [1, g - 2, -(4 * l * l + 2 * g), -2 * g * l * l, 0.0])),
    ReferenceCharPoly("f4 nu=+-1 cubic", 4, (1, -1), lambda g, l: _poly(
        [1, g, -4 * (l * l + 1), 8 * l * l - 2 * g * l * l])),
)

CHARPOLY_SAMPLES = ((1.0, 3.0, 7.0), (0.0, 0.3, 1.0))  # gamma grid, lam grid
CHARPOLY_TOL = 1e-8


def f3_dim3_energies(lam: float) -> tuple[float, float, float]:
    """Closed-form spectrum of the dimension-3 blocks at ``f = 3``,
    ``gamma = 3``: ``1`` and ``-1 +- sqrt(3 (2 + lam^2))``, ascending."""
    root = math.sqrt(3.0 * (2.0 + lam * lam))
    return (-1.0 - root, 1.0, -1.0 + root)


def _any_energy(E: complex, gamma: float, lam: float) -> bool:
    return True


@dataclass(frozen=True)
class EigenstateFormula:
    """Closed-form eigenstate of one momentum block (or an explicit ket).

    ``kind`` is ``"block"`` (coefficients over the block's ordered basis
    vectors) or ``"ket"`` (coefficients over occupation states).  ``gamma``
    restricts the formula to one interaction strength (``None`` = generic);
    ``lam`` pins the coupling (``None`` = any).  Formulas sharing a
    ``group`` are alternative readings of one printed expression: the group
    verifies if at least one member does.
    """

    name: str
    f: int
    nu: int | None
    kind: str
    coefficients: Callable[[complex, float, float], object]
    selects: Callable[[complex, float, float], bool] = _any_energy
    gamma: float | None = None
    lam: float | None = None
    group: str | None = None


def _f2_nu0_generic(c3_lam2: bool, c4_inside: bool):
    def coeffs(E, g, l):
        c1 = 4 * _S2 * (E + g - 4) * l * l
        c2 = -_S2 * E * (E + g - 4) * l
        c3 = -(4 * E * E + (8 - 2 * l * l) * E - (32 * l * l if c3_lam2 else 32))
        if c4_inside:
            c4 = _S2 * (E ** 3 + (g + 2) * E * E + (2 * g - 10 * l * l) * E - 8 * l * l * g)
        else:
            c4 = _S2 * (E ** 3 + (g + 2) * E * E + (2 * g - 10 * l * l) * E) - 8 * l * l * g
        return np.array([c1, _S2 * c2, _S2 * c3, c4], dtype=complex)
    return coeffs


def _f4_nu0_g3(pair_sign: float):
    def coeffs(E, g, l):
        return np.array([
            4 * _S2 * (E - 4) * (E + 3) * l * l,
            -_S2 * E * (E - 4) * (E + 3) * l,
            pair_sign * (-8 * E * (E + 2) - 2 * (-64 + E * (E - 8)) * l * l),
            2 * _S2 * (E + 3) * (-E * (E + 2) + (E + 16) * l * l),
            128 * l * l + E * (E + 2) * (-8 + E * (E + 3) - 22 * l * l),
        ], dtype=complex)
    return coeffs


def _f3_dim3_unit(sign: int):
    return lambda E, g, l: np.array(
        [1.0, -l / _S2, (l / 2.0) * (1 + sign * 1j * _S3)], dtype=complex)


def _f3_dim3_band(sign: int):
    return lambda E, g, l: np.array(
        [-3 * (1 - sign * 1j * _S3) * l,
         _S2 * (1 - sign * 1j * _S3) * (E - 2),
         2 * (E + 1)], dtype=complex)


def _f4_dim3(sign: int):
    return lambda E, g, l: np.array(
        [(1 + E) * l, -_S2 * (l * l - E),
         -0.5 * (1 + sign * 1j) * (E * E + 3 * E - 2 * l * l)], dtype=complex)


EIGENSTATE_FORMULAS: tuple[EigenstateFormula, ...] = (
    # --- generic in gamma -------------------------------------------------
    EigenstateFormula(
        "f1 mixed-sector state", 1, 0, "block",
        lambda E, g, l: np.array(
            [2 * _S2 * l * l, -_S2 * l * E, E * E + 2 * E - 4 * l * l], dtype=complex)),
    EigenstateFormula(
        "f2 nu=1 mixed-sector state", 2, 1, "block",
        lambda E, g, l: np.array([_S2 * l, 2 - E], dtype=complex)),
    EigenstateFormula(
        "f2 nu=0 state [c3 const=-32lam^2, c4 gamma-term inside]", 2, 0, "block",
        _f2_nu0_generic(True, True), group="f2-nu0-readings"),
    EigenstateFormula(
        "f2 nu=0 state [c3 const=-32, c4 gamma-term inside]", 2, 0, "block",
        _f2_nu0_generic(False, True), group="f2-nu0-readings"),
    EigenstateFormula(
        "f2 nu=0 state [c3 const=-32lam^2, c4 gamma-term outside]", 2, 0, "block",
        _f2_nu0_generic(True, False), group="f2-nu0-readings"),
    EigenstateFormula(
        "f2 nu=0 state [c3 const=-32, c4 gamma-term outside]", 2, 0, "block",
        _f2_nu0_generic(False, False), group="f2-nu0-readings"),
    # --- decoupled-limit (lam = 0) eigenstates ----------------------------
    EigenstateFormula(
        "f2 lam=0 one-quantum symmetric", 2, None, "ket",
        lambda E, g, l: {(1, 0): 1.0, (0, 1): 1.0},
        selects=lambda E, g, l: abs(E + 2) < 1e-8, lam=0.0),
    EigenstateFormula(
        "f2 lam=0 one-quantum antisymmetric", 2, None, "ket",
        lambda E, g, l: {(1, 0): 1.0, (0, 1): -1.0},
        selects=lambda E, g, l: abs(E - 2) < 1e-8, lam=0.0),
    EigenstateFormula(
        "f2 lam=0 two-quanta antisymmetric", 2, None, "ket",
        lambda E, g, l: {(2, 0): 1.0, (0, 2): -1.0},
        selects=lambda E, g, l: abs(E + g) < 1e-8, lam=0.0),
    EigenstateFormula(
        "f2 lam=0 two-quanta symmetric pair", 2, None, "ket",
        lambda E, g, l: {(2, 0): 1.0, (0, 2): 1.0, (1, 1): -(E + g) / (2 * _S2)},
        selects=lambda E, g, l: abs(E * E + g * E - 16) < 1e-6 * (1 + E * E), lam=0.0),
    # --- gamma = 3 forms --------------------------------------------------
    EigenstateFormula(
        "f2 nu=0 state (gamma=3 form)", 2, 0, "block",
        lambda E, g, l: np.array([
            4 * (E - 1) * l * l,
            -_S2 * E * (E - 1) * l,
            -(4 * E * E + (8 - 2 * l * l) * E - 32 * l * l),
            E ** 3 + 5 * E * E + (6 - 10 * l * l) * E - 24 * l * l,
        ], dtype=complex), gamma=3.0),
    EigenstateFormula(
        "f3 nu=0 state (gamma=3)", 3, 0, "block",
        lambda E, g, l: np.array([
            4 * _S6 * (E + 1) * l * l,
            -2 * _S2 * E * (E + 1) * l,
            -4 * E * E + (4 * l * l - 8) * E + 48 * l * l,
            _S2 * (E ** 3 + 5 * E * E + (6 - 14 * l * l) * E - 36 * l * l),
        ], dtype=complex), gamma=3.0),
    EigenstateFormula(
        "f3 nu=+1 unit-energy state (gamma=3)", 3, 1, "block", _f3_dim3_unit(+1),
        selects=lambda E, g, l: abs(E - 1) < 1e-6, gamma=3.0),
    EigenstateFormula(
        "f3 nu=-1 unit-energy state (gamma=3)", 3, -1, "block", _f3_dim3_unit(-1),
        selects=lambda E, g, l: abs(E - 1) < 1e-6, gamma=3.0),
    EigenstateFormula(
        "f3 nu=+1 band states (gamma=3)", 3, 1, "block", _f3_dim3_band(+1),
        selects=lambda E, g, l: abs(E - 1) > 1e-6, gamma=3.0),
    EigenstateFormula(
        "f3 nu=-1 band states (gamma=3)", 3, -1, "block", _f3_dim3_band(-1),
        selects=lambda E, g, l: abs(E - 1) > 1e-6, gamma=3.0),
    EigenstateFormula(
        "f4 nu=0 state [pair coefficient as printed]", 4, 0, "block",
        _f4_nu0_g3(+1.0), gamma=3.0, group="f4-nu0-readings"),
    EigenstateFormula(
        "f4 nu=0 state [pair coefficient sign-flipped]", 4, 0, "block",
        _f4_nu0_g3(-1.0), gamma=3.0, group="f4-nu0-readings"),
    EigenstateFormula(
        "f4 nu=2 null-energy state (gamma=3)", 4, 2, "block",
        lambda E, g, l: np.array([0, 0, 1, 0], dtype=complex),
        selects=lambda E, g, l: abs(E) < 1e-8, gamma=3.0),
    EigenstateFormula(
        "f4 nu=2 mixed states (gamma=3)", 4, 2, "block",
        lambda E, g, l: np.array([
            _S2 * (E + 3) * l, -2 * l * l, 0, -(E * E + E - 2 * l * l - 6)], dtype=complex),
        selects=lambda E, g, l: abs(E) > 1e-6, gamma=3.0),
    EigenstateFormula(
        "f4 nu=+1 states (gamma=3)", 4, 1, "block", _f4_dim3(+1), gamma=3.0),
    EigenstateFormula(
        "f4 nu=-1 states (gamma=3)", 4, -1, "block", _f4_dim3(-1), gamma=3.0),
)

EIGENSTATE_RESIDUAL_TOL = 1e-8
