"""The three workloads: inputs drawn from the seed, one operation, its check.

Every check is independent of the code being timed: it uses identities of
the model (the trace of ``H``, the ``+nu``/``-nu`` degeneracy, the closed-form
block dimensions) or the package's brute-force oracle, never the momentum
path it is checking.  A check returns a list of problems; an empty list
means the operation's output is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

ORACLE_TOL = 1e-9
VERIFY_MIN_RECORDS = 441


@dataclass(frozen=True)
class Sizes:
    ring: tuple[int, int]  # (odd, even) ring sizes, alternated per operation
    sweep_f: int
    sweep_points: int


FULL = Sizes(ring=(47, 48), sweep_f=15, sweep_points=101)
# for the benchmark's own tests: same code paths, seconds instead of minutes
SMALL = Sizes(ring=(5, 6), sweep_f=4, sweep_points=11)


def dimension(f: int) -> int:
    """Size of the 0+1+2-quanta space, ``(f+1)(f+2)/2``."""
    return (f + 1) * (f + 2) // 2


def expected_block_dims(f: int) -> dict[int, int]:
    """``nu -> block dimension`` from the closed forms stated for the
    momentum basis: odd ``f`` has ``(f+5)/2`` at ``nu = 0`` and ``(f+3)/2``
    elsewhere; even ``f`` has ``(f+6)/2`` at ``nu = 0``, ``(f+2)/2`` at odd
    ``nu`` and ``(f+4)/2`` at even ``nu != 0``."""
    if f % 2 == 1:
        nus = range(-(f - 1) // 2, (f - 1) // 2 + 1)
        return {nu: (f + 5) // 2 if nu == 0 else (f + 3) // 2 for nu in nus}
    dims = {}
    for nu in range(-f // 2 + 1, f // 2 + 1):
        if nu == 0:
            dims[nu] = (f + 6) // 2
        elif nu % 2:
            dims[nu] = (f + 2) // 2
        else:
            dims[nu] = (f + 4) // 2
    return dims


def check_ring(f: int, gamma: float, blocks: list[tuple[int, np.ndarray]],
               band_minima: list[tuple[int, float]]) -> list[str]:
    """Eigenvalue count, ``sum E = tr H = -gamma f``, ``+-nu`` degeneracy,
    closed-form block dimensions and the band minima of one ring solve."""
    problems = []
    energies = np.concatenate([w for _, w in blocks]) if blocks else np.zeros(0)
    if energies.size != dimension(f):
        problems.append(f"f={f}: {energies.size} eigenvalues, expected {dimension(f)}")
    trace_dev = abs(float(np.sum(energies)) + gamma * f)
    if not trace_dev < ORACLE_TOL:
        problems.append(f"f={f}: |sum E + gamma f| = {trace_dev:.3e}")
    dims = {nu: len(w) for nu, w in blocks}
    if len(dims) != len(blocks) or dims != expected_block_dims(f):
        problems.append(f"f={f}: block dimensions {dims} differ from the closed forms")
    by_nu = dict(blocks)
    for nu, w in blocks:
        mirror = by_nu.get(-nu)
        if nu > 0 and mirror is not None:
            if len(mirror) != len(w):
                problems.append(f"f={f}: nu=+-{nu} blocks differ in size")
                continue
            dev = float(np.max(np.abs(np.sort(w) - np.sort(mirror))))
            if not dev < ORACLE_TOL:
                problems.append(f"f={f}: nu=+-{nu} eigenvalues differ by {dev:.3e}")
    lowest = {nu: float(np.min(w)) for nu, w in blocks if len(w)}
    if dict(band_minima) != lowest:
        problems.append(f"f={f}: soliton band minima are not the per-block lowest levels")
    return problems


def check_sweep(text: str, f: int, gamma: float, n_points: int,
                reference: tuple[int, np.ndarray]) -> list[str]:
    """Row count ``n_points * D``, ``sum E = -gamma f`` at every grid point
    (within the rounding of 12 printed digits), and sorted energies at one
    grid point equal to the brute-force oracle's."""
    lines = text.splitlines()
    if not lines or lines[0] != "lambda,nu,level,n_tag,energy":
        return ["sweep CSV header missing or changed"]
    groups: dict[str, list[float]] = {}
    try:
        for line in lines[1:]:
            lam, _, _, _, energy = line.split(",")
            groups.setdefault(lam, []).append(float(energy))
    except ValueError:
        return ["sweep CSV has a malformed row"]
    problems = []
    d = dimension(f)
    if len(groups) != n_points or any(len(v) != d for v in groups.values()):
        problems.append(f"sweep has {len(lines) - 1} rows over {len(groups)} couplings, "
                        f"expected {n_points} x {d}")
    for lam, energies in groups.items():
        values = np.array(energies)
        dev = abs(float(np.sum(values)) + gamma * f)
        tol = 1e-11 * float(np.sum(np.abs(values))) + ORACLE_TOL
        if not dev < tol:
            problems.append(f"sweep lambda={lam}: |sum E + gamma f| = {dev:.3e}")
    index, oracle = reference
    columns = list(groups.values())
    if index < len(columns) and len(columns[index]) == len(oracle):
        dev = float(np.max(np.abs(np.sort(columns[index]) - oracle)))
        if not dev < ORACLE_TOL:
            problems.append(f"sweep grid point {index}: brute force differs by {dev:.3e}")
    else:
        problems.append(f"sweep grid point {index} missing or incomplete")
    return problems


def check_verify(exit_code: int, text: str) -> list[str]:
    """Exit code 0, at least 441 records and none of them failing."""
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited with {exit_code}")
    try:
        records = json.loads(text)
    except ValueError:
        return problems + ["verify report is not JSON"]
    if len(records) < VERIFY_MIN_RECORDS:
        problems.append(f"verify wrote {len(records)} records, expected >= {VERIFY_MIN_RECORDS}")
    failing = [r.get("check") for r in records if not r.get("pass")]
    if failing:
        problems.append(f"{len(failing)} failing verify records, first {failing[0]!r}")
    return problems


@contextlib.contextmanager
def _quiet():
    """Keep the CLI's stdout and stderr out of the benchmark's own output."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


class RingSolve:
    """``solve_spectrum`` plus ``soliton_band`` on a large ring, alternating
    odd and even sizes; ``(gamma, lambda)`` drawn per operation from the seed."""

    name = "ring_solve"

    def __init__(self, q, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.q, self.seed, self.sizes = q, seed, sizes

    def inputs(self, i: int) -> tuple[int, float, float]:
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        return self.sizes.ring[i % 2], rng.uniform(0.5, 5.0), rng.uniform(0.0, 1.0)

    def describe(self) -> dict:
        return {"rings": list(self.sizes.ring), "gamma": "uniform [0.5, 5] per op",
                "lambda": "uniform [0, 1] per op"}

    def op(self, i: int):
        f, gamma, lam = self.inputs(i)
        result = self.q.solve_spectrum(f, gamma, lam)
        return result, self.q.soliton_band(result)

    def check(self, i: int, output) -> list[str]:
        f, gamma, _ = self.inputs(i)
        result, band = output
        blocks = [(bs.label.nu, np.asarray(bs.eigenvalues)) for bs in result.blocks]
        return check_ring(f, gamma, blocks, list(band.minima))


class LambdaSweep:
    """``qeslattice sweep`` in-process over a ~101-point grid whose range and
    ``gamma`` come from the seed; every operation repeats the same command."""

    name = "lambda_sweep"

    def __init__(self, q, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.q, self.f, self.n_points = q, sizes.sweep_f, sizes.sweep_points
        rng = random.Random(f"{self.name}:{seed}")
        step = Fraction(rng.choice((2, 4, 5, 8, 10)), 1000)
        start = Fraction(rng.randrange(0, 51), 100)
        stop = start + (self.n_points - 1) * step
        self.gamma_text = f"{rng.randrange(2, 11) / 2:g}"
        self.grid_text = f"{float(start):g}:{float(stop):g}:{float(step):g}"
        self.ref_index = rng.randrange(self.n_points)
        self.ref_lambda = float(start) + self.ref_index * float(step)
        self.out = workdir / f"sweep-{seed}.csv"
        self.first_output: str | None = None
        self._oracle = None

    def describe(self) -> dict:
        return {"f": self.f, "gamma": self.gamma_text, "lambda": self.grid_text,
                "points": self.n_points, "oracle_lambda": self.ref_lambda}

    def op(self, i: int):
        with _quiet():
            return self.q.cli.main(["sweep", "--f", str(self.f), "--gamma", self.gamma_text,
                                    "--lambda", self.grid_text, "--out", str(self.out)])

    def check(self, i: int, exit_code) -> list[str]:
        if exit_code != 0:
            return [f"sweep exited with {exit_code}"]
        text = self.out.read_text()
        self.out.unlink()
        if self._oracle is None:
            self._oracle = self.q.brute_force_eigenvalues(
                self.f, float(self.gamma_text), self.ref_lambda)
        problems = check_sweep(text, self.f, float(self.gamma_text), self.n_points,
                               (self.ref_index, self._oracle))
        if self.first_output is None:
            self.first_output = text
        elif text != self.first_output:
            problems.append("sweep output differs from the first operation's")
        return problems


class VerifyAll:
    """``qeslattice verify`` in-process: all suites, hundreds of tiny rings.
    The suites' parameter grid is fixed, so the seed does not apply."""

    name = "verify_all"

    def __init__(self, q, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.q = q
        self.out = workdir / f"verify-{seed}.json"

    def describe(self) -> dict:
        return {"suites": "all", "seed": "not used: the suites' parameter grid is fixed"}

    def op(self, i: int):
        with _quiet():
            return self.q.cli.main(["verify", "--out", str(self.out)])

    def check(self, i: int, exit_code) -> list[str]:
        text = self.out.read_text() if self.out.exists() else ""
        self.out.unlink(missing_ok=True)
        return check_verify(exit_code, text)


WORKLOADS = {w.name: w for w in (RingSolve, LambdaSweep, VerifyAll)}
