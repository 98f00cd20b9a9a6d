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
import os
import stat
import sys
from contextlib import contextmanager

import numpy as np

from .spectra import MAX_SITES, _admit, _sweep_each, sweep

USAGE_ERROR = 1
VERIFY_ERROR = 2
# Levels the level writer turns into Python floats at a time (2 MB of them).
_EMIT_LEVELS = 1 << 16
# Where the level templates cut between blocks and put the coupling: no text
# written holds either character.
_CUT, _LAM = "\0", "\1"
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
    A run that fails or is interrupted (``KeyboardInterrupt`` included)
    removes the file if it created it and otherwise leaves it as it found
    it, up to what it had written."""
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
    except BaseException:
        if created:
            os.remove(path)
        raise


def _layout(result, as_json: bool, band: bool) -> tuple[str, list, list]:
    """The ``%``-template of one grid point of ``result``, the blocks it
    formats, and the plan of its output blocks.

    The template holds the rows of each formatted block, one piece per
    block cut at ``_CUT``, with ``_LAM`` where the coupling goes.  A block
    is formatted unless its ``energies`` is the very array of an earlier
    block with the same tags (``-nu`` of ``nu`` in a sweep): its text is
    then that block's with the ``nu`` cell (and in JSON the ``k`` cell)
    rewritten.  Each plan entry is ``(piece, old, new)``: the piece, and the
    cells to rewrite in it, ``None`` for none."""
    if as_json:
        def cell(nu: int) -> str:
            return f'\n    "nu": {nu},\n    "k": {float(_fmt(2.0 * np.pi * nu / result.f))!r},'
        head = (f',\n  {{\n    "f": {result.f},\n    "gamma": {float(_fmt(result.gamma))!r},'
                f'\n    "lambda": {_LAM},')
        body, end = '\n    "level": {},\n    "n_tag": {},\n    "energy": %r', "\n  }"
        flags = (',\n    "band": true', ',\n    "band": false')
    else:
        def cell(nu: int) -> str:
            return f",{nu},"
        head, body, end, flags = "\n" + _LAM, "{},{},%.12g", "", (",true", ",false")
    sources: dict = {}  # id of an energies array -> the piece of its first block
    formatted, plan = [], []
    for bs in result.blocks:
        piece = sources.get(id(bs.energies))
        if piece is not None and formatted[piece].tags == bs.tags:
            plan.append((piece, cell(formatted[piece].label.nu), cell(bs.label.nu)))
        else:
            sources.setdefault(id(bs.energies), len(formatted))
            plan.append((len(formatted), None, None))
            formatted.append(bs)
    template = _CUT.join("".join(head + cell(bs.label.nu) + body.format(level, tag)
                                 + (flags[level != 0] if band else "") + end
                                 for level, tag in enumerate(bs.tags))
                         for bs in formatted)
    return template, formatted, plan


def _emit(results, fmt: str, out, band: bool) -> None:
    """Write the rows of every grid point of the sweeps ``results`` to
    ``out``, as CSV or as the text of ``json.dumps(records, indent=2)``;
    with ``band`` each block flags its level 0, its lowest.

    Each sweep fills one ``%``-template (:func:`_layout`) per grid point
    over the blocks it formats, and puts the coupling's text in once per
    point; a mirror block is the text of its source block with the ``nu``
    cell rewritten by ``str.replace``, anchored at each row's start in CSV
    and at the ``nu`` and ``k`` lines, unique to a record, in JSON.  A JSON
    number is ``float("%.12g" % x)`` as ``json.dumps`` writes it, its
    ``repr``.  The writer holds at most ``_EMIT_LEVELS`` levels as Python
    floats, and the text of one grid point, at a time."""
    as_json = fmt == "json"
    out.write("[" if as_json else "lambda,nu,level,n_tag,energy" + (",band" if band else ""))
    lead = as_json  # the first JSON record loses the comma before it
    for result in results:
        template, formatted, plan = _layout(result, as_json, band)
        n = sum(len(bs.tags) for bs in formatted)
        rounding = _CUT.join(["%.12g"] * n)
        step = max(1, _EMIT_LEVELS // n)
        for i in range(0, result.lambdas.size, step):
            table = np.hstack([bs.energies[i:i + step] for bs in formatted]).tolist()
            for lam, energies in zip(result.lambdas[i:i + step].tolist(), table):
                lam = _fmt(lam)
                if as_json:
                    lam = repr(float(lam))
                    energies = map(float, (rounding % tuple(energies)).split(_CUT))
                pieces = (template % tuple(energies)).replace(_LAM, lam).split(_CUT)
                at = "" if as_json else "\n" + lam
                parts = [pieces[p] if old is None else pieces[p].replace(at + old, at + new)
                         for p, old, new in plan]
                if lead:
                    parts[0], lead = parts[0][1:], False
                out.writelines(parts)
                del pieces, parts  # one grid point's text at a time
    out.write("\n]\n" if as_json else "\n")


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
