"""Command-line front end.

Subcommands:

* ``spectrum``  -- block-resolved eigenvalues at one coupling
* ``sweep``     -- eigenvalue curves over a coupling grid
* ``figure2``   -- per-momentum eigenvalues with band flags (two couplings)
* ``tables``    -- compare computed spectra against the reference tables
* ``verify``    -- run the verification suites, JSON report

Exit codes: 0 success, 1 usage error, 2 verification/comparison failure.
Numeric output is fixed at 12 significant digits so identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .reference import REFERENCE_GAMMA, TABLE_TOL
from .report import as_records, failures
from .spectra import MAX_SITES, quanta_tag, solve_spectrum, sweep
from .suites import SUITES, run_suites, table_comparisons

USAGE_ERROR = 1
VERIFY_ERROR = 2
MAX_GRID_POINTS = 10_000


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with(message))

    @staticmethod
    def exit_with(message: str) -> int:
        print(f"error: {message}", file=sys.stderr)
        return USAGE_ERROR


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"coupling {text!r} is not a finite number")
    return value


def _parse_lambda(text: str) -> list[float]:
    """Either a single value or an inclusive ``start:stop:step`` grid of at
    most ``MAX_GRID_POINTS`` points."""
    if ":" not in text:
        return [_finite(text)]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid syntax is start:stop:step")
    start, stop, step = (_finite(p) for p in parts)
    if step <= 0:
        raise ValueError("grid step must be positive")
    if stop < start:
        raise ValueError("grid stop must be >= start")
    span = np.floor((stop - start) / step + 1e-12)
    if not span < MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(int(span) + 1)]


@dataclass
class _Row:
    lam: float
    nu: int
    level: int
    n_tag: int
    energy: float
    band: bool | None = None

    def csv(self) -> str:
        cells = [_fmt(self.lam), str(self.nu), str(self.level), str(self.n_tag),
                 _fmt(self.energy)]
        if self.band is not None:
            cells.append("true" if self.band else "false")
        return ",".join(cells)

    def record(self, f: int, gamma: float) -> dict:
        rec = {
            "f": f, "gamma": float(_fmt(gamma)), "lambda": float(_fmt(self.lam)),
            "nu": self.nu, "k": float(_fmt(2.0 * np.pi * self.nu / f)),
            "level": self.level, "n_tag": self.n_tag,
            "energy": float(_fmt(self.energy)),
        }
        if self.band is not None:
            rec["band"] = self.band
        return rec


def _emit(rows: list[_Row], f: int, gamma: float, fmt: str, out: str | None,
          with_band: bool) -> None:
    if fmt == "csv":
        header = "lambda,nu,level,n_tag,energy" + (",band" if with_band else "")
        text = "\n".join([header] + [r.csv() for r in rows]) + "\n"
    else:
        text = json.dumps([r.record(f, gamma) for r in rows], indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spectrum_rows(f: int, gamma: float, lam: float, band_flags: bool) -> list[_Row]:
    result = solve_spectrum(f, gamma, lam)
    rows = []
    for bs in result.blocks:  # nu descending by construction
        band_level = int(np.argmin(bs.eigenvalues)) if band_flags else None
        for level, energy in enumerate(bs.eigenvalues):
            tag = quanta_tag(bs.eigenvectors[:, level], result.basis)
            rows.append(_Row(lam=lam, nu=bs.label.nu, level=level, n_tag=tag,
                             energy=float(energy),
                             band=(level == band_level) if band_flags else None))
    return rows


def cmd_spectrum(args) -> int:
    lams = _parse_lambda(args.lam)
    if len(lams) != 1:
        return _Parser.exit_with("spectrum expects a single coupling, not a grid")
    rows = _spectrum_rows(args.f, args.gamma, lams[0], band_flags=False)
    _emit(rows, args.f, args.gamma, args.format, args.out, with_band=False)
    return 0


def cmd_sweep(args) -> int:
    lams = _parse_lambda(args.lam)
    if len(lams) < 2:
        return _Parser.exit_with("sweep needs a start:stop:step grid")
    result = sweep(args.f, args.gamma, lams)
    rows = []
    for i, lam in enumerate(result.lambdas):
        for bs in result.blocks:
            for level in range(bs.energies.shape[1]):
                rows.append(_Row(lam=float(lam), nu=bs.label.nu, level=level,
                                 n_tag=bs.tags[level],
                                 energy=float(bs.energies[i, level])))
    _emit(rows, args.f, args.gamma, args.format, args.out, with_band=False)
    return 0


def cmd_figure2(args) -> int:
    rows = []
    for lam in _parse_lambda(args.lam):
        rows.extend(_spectrum_rows(args.f, args.gamma, lam, band_flags=True))
    _emit(rows, args.f, args.gamma, args.format, args.out, with_band=True)
    return 0


def cmd_tables(args) -> int:
    worst_overall = 0.0
    lines = []
    for table, rows in groupby(table_comparisons(), key=lambda row: row[0]):
        lines.append(f"# {table.name} (gamma = {REFERENCE_GAMMA:g})")
        lines.append("lambda | computed (reference) ... | max|dev|")
        table_worst = 0.0
        for _, lam, nu, computed, reference in rows:
            devs = np.abs(computed - reference)
            table_worst = max(table_worst, float(np.max(devs)))
            cells = " ".join(f"{c:+.3f} ({r:+.3f})" for c, r in zip(computed, reference))
            lines.append(f"{lam:.1f} nu={nu:+d} | {cells} | {np.max(devs):.1e}")
        verdict = "ok" if table_worst < TABLE_TOL else "MISMATCH"
        lines.append(f"--> {verdict}: max deviation {table_worst:.2e} "
                     f"(tolerance {TABLE_TOL:g})")
        lines.append("")
        worst_overall = max(worst_overall, table_worst)
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if worst_overall < TABLE_TOL else VERIFY_ERROR


def cmd_verify(args) -> int:
    try:
        checks = run_suites(args.suite)
    except KeyError as exc:
        return _Parser.exit_with(str(exc))
    records = as_records(checks)
    text = json.dumps(records, indent=2, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    failed = failures(checks)
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed",
          file=sys.stderr)
    for c in failed:
        print(f"FAIL {c.name} {c.params} residual={c.residual:.3e}", file=sys.stderr)
    return VERIFY_ERROR if failed else 0


def _positive_sites(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("site count f must be >= 1")
    if value > MAX_SITES:
        raise argparse.ArgumentTypeError(f"site count f must be <= {MAX_SITES}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="qeslattice")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, f_default=None, lam_default=None):
        p.add_argument("--f", type=_positive_sites,
                       **({"default": f_default} if f_default else {"required": True}))
        p.add_argument("--gamma", type=float, default=3.0)
        p.add_argument("--lambda", dest="lam", type=str, default=lam_default)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("spectrum", help="block-resolved eigenvalues at one coupling")
    common(p, lam_default="0")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="eigenvalue curves over a coupling grid")
    common(p, lam_default="0:0.5:0.01")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure2", help="per-momentum eigenvalues with band flags")
    common(p, f_default=7, lam_default="0:0.5:0.5")
    p.set_defaults(func=cmd_figure2)

    p = sub.add_parser("tables", help="compare against the reference tables")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", action="append", default=None,
                   choices=sorted(SUITES) + ["all"])
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
