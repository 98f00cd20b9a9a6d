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
import functools
import json
import os
import stat
import sys
from contextlib import contextmanager

import numpy as np

from .spectra import MAX_SITES, _admit, _sweep_each, sweep

USAGE_ERROR = 1
VERIFY_ERROR = 2
# Levels the CSV writer turns into Python floats at a time (2 MB of them).
_EMIT_LEVELS = 1 << 16
# Flags that take a value.  argparse reads a value such as "-1e2" or
# "-0.1:0:0.05" as a flag, so it is joined to its flag first ("--gamma=-1e2").
_VALUED = ("--f", "--gamma", "--lambda", "--format", "--out", "--suite")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"coupling {text!r} is not a number") from None
    if not np.isfinite(value):
        raise ValueError(f"coupling {text!r} is not a finite number")
    return value


def _grid(text: str) -> tuple[float, float, int | float]:
    """``(start, step, count)`` of a single value (step 0) or an inclusive
    ``start:stop:step`` grid, counted exactly up to 2^53 points, else ``inf``."""
    if ":" not in text:
        return _finite(text), 0.0, 1
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid syntax is start:stop:step")
    start, stop, step = (_finite(p) for p in parts)
    if step <= 0:
        raise ValueError("grid step must be positive")
    if stop < start:
        raise ValueError("grid stop must be >= start")
    # the quotient carries the rounding of the three decimals read, up to
    # 2 eps (|start| + |stop|) / step: a stop that close below a grid point
    # counts as on it
    slack = 4.0 * sys.float_info.epsilon * (abs(start) + abs(stop)) / step
    span = (stop - start) / step + 1e-12 + slack
    return start, step, int(span) + 1 if span < 2 ** 53 else float("inf")


def _parse_lambda(text: str) -> list[float]:
    """The couplings of a ``--lambda`` text (:func:`_grid`)."""
    start, step, count = _grid(text)
    return [start + i * step for i in range(count)] if step else [start]


@contextmanager
def _output(path: str | None):
    """A function returning the stream to write to: stdout, or the ``--out``
    file.

    The file is opened before any work, so an unwritable path fails at once,
    but truncated only when the function is called, once the work is done.
    A run that fails with an exception removes the file if it created it and
    otherwise leaves it as it found it, up to what it had written."""
    if not path:
        yield lambda: sys.stdout
        return
    created = not os.path.lexists(path)
    fh = open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w")

    def stream():
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(0)
        return fh
    try:
        with fh:
            yield stream
    except Exception:
        if created:
            os.remove(path)
        raise


def _emit(results, fmt: str, out, band: bool) -> None:
    """Write the rows of every grid point of the sweeps ``results`` to
    ``out``; with ``band`` each block flags its level 0, its lowest.  The
    CSV fills one ``%``-template per sweep at each coupling; the JSON is the
    text of ``json.dumps(records, indent=2)``, one block of records at a
    time (a block's list, dumped alike, holds the same text in brackets)."""
    if fmt == "json":
        sep = "[\n"
        for result in results:
            for j, lam in enumerate(result.lambdas.tolist()):
                for bs in result.blocks:
                    common = {"f": result.f, "gamma": float(_fmt(result.gamma)),
                              "lambda": float(_fmt(lam)), "nu": bs.label.nu,
                              "k": float(_fmt(2.0 * np.pi * bs.label.nu / result.f))}
                    records = [dict(common, level=level, n_tag=tag, energy=float(_fmt(energy)),
                                    **({"band": level == 0} if band else {}))
                               for level, (tag, energy)
                               in enumerate(zip(bs.tags, bs.energies[j].tolist()))]
                    out.write(sep + json.dumps(records, indent=2)[2:-2])
                    sep = ",\n"
        out.write("\n]\n")
        return
    out.write("lambda,nu,level,n_tag,energy" + (",band" if band else "") + "\n")
    for result in results:
        template = "".join(f"%s,{bs.label.nu},{level},{tag},%.12g"
                           + ((",true" if level == 0 else ",false") if band else "") + "\n"
                           for bs in result.blocks for level, tag in enumerate(bs.tags))
        step = max(1, _EMIT_LEVELS // sum(len(bs.tags) for bs in result.blocks))
        for i in range(0, result.lambdas.size, step):
            table = np.hstack([bs.energies[i:i + step] for bs in result.blocks]).tolist()
            for lam, energies in zip(result.lambdas[i:i + step].tolist(), table):
                cells = [_fmt(lam)] * (2 * len(energies))
                cells[1::2] = energies
                out.write(template % tuple(cells))


def cmd_levels(args) -> int:
    """``spectrum``, ``sweep`` and ``figure2``: the levels over the ``--lambda``
    grid, admitted whole before its points are built; ``figure2`` solves each
    coupling as a sweep of its own on the ring's pencils built once, so its
    tags are its own, and flags level 0."""
    count = _grid(args.lam)[2]
    _admit(args.f, count, keeps_vectors=False, per_point=args.band)
    if args.command == "spectrum" and count != 1:
        raise ValueError("spectrum expects a single coupling, not a grid")
    if args.command == "sweep" and count < 2:
        raise ValueError("sweep needs a start:stop:step grid")
    lams = _parse_lambda(args.lam)
    with _output(args.out) as out:
        results = (_sweep_each(args.f, args.gamma, lams) if args.band
                   else [sweep(args.f, args.gamma, lams)])
        _emit(results, args.format, out(), args.band)
    return 0


def cmd_tables(args) -> int:
    from .reference import REFERENCE_GAMMA
    from .suites import Rings, table_checks
    lines = []
    failed = False
    with _output(args.out) as out:
        for table, rows, verdict in table_checks(Rings()):
            lines.append(f"# {table.name} (gamma = {REFERENCE_GAMMA:g})")
            lines.append("lambda | computed (reference) ... | max|dev|")
            for lam, nu, computed, reference in rows:
                cells = " ".join(f"{c:+.3f} ({r:+.3f})" for c, r in zip(computed, reference))
                lines.append(f"{lam:.1f} nu={nu:+d} | {cells} "
                             f"| {np.max(np.abs(computed - reference)):.1e}")
            lines.append(f"--> {'ok' if verdict.passed else 'MISMATCH'}: max deviation "
                         f"{verdict.residual:.2e} (tolerance {verdict.bound:g})")
            lines.append("")
            failed = failed or not verdict.passed
        out().write("\n".join(lines) + "\n")
    return VERIFY_ERROR if failed else 0


def cmd_verify(args) -> int:
    from .report import dumps, failures
    from .suites import run_suites
    with _output(args.out) as out:
        checks = run_suites(args.suite)
        out().write(dumps(checks) + "\n")
    failed = failures(checks)
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed",
          file=sys.stderr)
    for c in failed:
        end = f"{c.direction}={c.bound:.3e}" if c.direction else c.note
        print(f"FAIL {c.name} {c.params} residual={c.residual:.3e} {end}", file=sys.stderr)
    return VERIFY_ERROR if failed else 0


def _positive_sites(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"site count f = {text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("site count f must be >= 1")
    if value > MAX_SITES:
        raise argparse.ArgumentTypeError(f"site count f must be <= {MAX_SITES}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="qeslattice")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text, f_default, lam_default in (
            ("spectrum", "block-resolved eigenvalues at one coupling", None, "0"),
            ("sweep", "eigenvalue curves over a coupling grid", None, "0:0.5:0.01"),
            ("figure2", "per-momentum eigenvalues with band flags", 7, "0:0.5:0.5")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--f", type=_positive_sites,
                       **({"default": f_default} if f_default else {"required": True}))
        p.add_argument("--gamma", type=float, default=3.0)
        p.add_argument("--lambda", dest="lam", type=str, default=lam_default)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=str, default=None)
        p.set_defaults(func=cmd_levels, band=name == "figure2")

    p = sub.add_parser("tables", help="compare against the reference tables")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", action="append", default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of this process, built on first use: parsing leaves it as
    it was, so every call of :func:`main` can share it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    tokens = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(tokens))):
        value = tokens[i]
        if tokens[i - 1] in _VALUED and value[:1] == "-" and value[:2] != "--" and value != "-h":
            tokens[i - 1:i + 1] = [tokens[i - 1] + "=" + value]
    try:
        args = parser.parse_args(tokens)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:  # an --out path that cannot be written, or a closed stdout
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
