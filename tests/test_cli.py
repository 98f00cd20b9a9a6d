import dataclasses
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qeslattice
from qeslattice.cli import _emit, _grid, _layout, _parse_lambda, main
from qeslattice.momentum import MomentumLabel
from qeslattice.spectra import (_FIXED_BYTES, MAX_SITES, BlockSweep, SweepResult, _sweep_each,
                                quanta_tags, solve_spectrum, sweep)

from oracles import emit, largest_admitted, refusal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def grid_text(n):
    """A ``start:stop:step`` grid of exactly ``n`` points."""
    step = 2.0 ** -20
    return f"0:{(n - 1) * step!r}:{step!r}"


def refuse_pencils(*args, **kwargs):
    raise AssertionError("pencil_stacks was called")


# ---------------------------------------------------------------- parsing

def test_lambda_grid_parsing():
    assert _parse_lambda("0.3") == [0.3]
    grid = _parse_lambda("0:0.5:0.01")
    assert len(grid) == 51
    assert grid[0] == 0.0 and abs(grid[-1] - 0.5) < 1e-12
    with pytest.raises(ValueError):
        _parse_lambda("0:1:0")
    with pytest.raises(ValueError):
        _parse_lambda("1:0:0.1")


def test_lambda_grid_rejects_non_finite_bounds():
    for text in ("nan", "inf", "0:nan:0.1", "-inf:0:0.1", "0:1:inf"):
        with pytest.raises(ValueError, match="not a finite number"):
            _parse_lambda(text)


def test_lambda_grid_point_cap(capsys, monkeypatch):
    # a grid is counted, not built, and admitted as a whole: the longest grid
    # the budget admits on the smallest ring reaches the solver, and one point
    # more, a billion points or more than floats can count are refused at once
    assert _grid("0:1e9:1") == (0.0, 1.0, 10 ** 9 + 1)
    assert _grid("0:1e308:1e-308")[2] == _grid("0:1:1e-300")[2] == math.inf
    n = largest_admitted(1, keeps_vectors=False)
    assert len(_parse_lambda(grid_text(n))) == n
    monkeypatch.setattr(qeslattice.spectra, "pencil_stacks", refuse_pencils)
    with pytest.raises(AssertionError, match="pencil_stacks was called"):
        main(["sweep", "--f", "1", "--lambda", grid_text(n)])
    for text, count in ((grid_text(n + 1), n + 1), ("0:1e9:1", 10 ** 9 + 1),
                        ("0:1e308:1e-308", "inf")):
        code, out, err = run(capsys, "sweep", "--f", "1", "--lambda", text)
        assert code == 1 and out == ""
        assert re.fullmatch(f"error: {refusal(count, 1)}\n", err), err


# ---------------------------------------------------------------- spectrum

def test_spectrum_single_site(capsys):
    code, out, _ = run(capsys, "spectrum", "--f", "1", "--gamma", "3", "--lambda", "0")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["lambda", "nu", "level", "n_tag", "energy"]
    energies = sorted(float(r[4]) for r in rows)
    assert np.allclose(energies, [-7.0, -2.0, 0.0], atol=1e-9)


def test_spectrum_two_sites_antiperiodic_rows(capsys):
    code, out, _ = run(capsys, "spectrum", "--f", "2", "--gamma", "3",
                       "--lambda", "0.5")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 6
    nu1 = sorted(float(r[4]) for r in rows if r[1] == "1")
    assert np.allclose(nu1, [-3.098, 2.098], atol=1.5e-3)
    # nu descending, level ascending within each block
    order = [(int(r[1]), int(r[2])) for r in rows]
    assert order == sorted(order, key=lambda p: (-p[0], p[1]))


def test_spectrum_rejects_bad_site_count(capsys):
    code, _, err = run(capsys, "spectrum", "--f", "0", "--gamma", "3", "--lambda", "0")
    assert code == 1
    assert "f must be >= 1" in err


@pytest.mark.parametrize("command", ["spectrum", "sweep", "figure2"])
def test_site_count_cap(capsys, command):
    code, out, err = run(capsys, command, "--f", str(MAX_SITES + 1))
    assert code == 1 and out == ""
    assert f"error: argument --f: site count f must be <= {MAX_SITES}" in err


@pytest.mark.parametrize("command", ["spectrum", "sweep", "figure2"])
def test_text_that_is_not_a_number_names_its_value(capsys, command):
    code, out, err = run(capsys, command, "--f", "1.5")
    assert code == 1 and out == ""
    assert "error: argument --f: site count f = '1.5' is not an integer" in err
    assert "_positive_sites" not in err
    for lam in ("abc", "abc:0.5:0.1", "0:abc:0.1", "0:0.5:abc"):
        code, out, err = run(capsys, command, "--f", "3", "--lambda", lam)
        assert code == 1 and out == ""
        assert err == "error: coupling 'abc' is not a number\n", lam


def test_import_leaves_scipy_optimize_unloaded():
    # the package needs numpy only
    src = str(Path(qeslattice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, qeslattice, qeslattice.cli; "
            "assert 'scipy' not in sys.modules, 'scipy imported'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


ORACLE_MODULES = ("fock", "ops", "reference", "report", "algebra", "suites")


def test_solve_path_loads_no_oracle_module():
    # the production path (cli, spectra, momentum) loads no module that
    # builds occupation states or checks against them; the lazy package
    # namespace still resolves every exported name and submodule
    src = str(Path(qeslattice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import os, sys\n"
            "import qeslattice, qeslattice.cli\n"
            f"oracles = ['qeslattice.' + name for name in {ORACLE_MODULES!r}]\n"
            "def loaded():\n"
            "    return [name for name in oracles if name in sys.modules]\n"
            "assert loaded() == [], loaded()\n"
            "for argv in (['spectrum', '--f', '12', '--lambda', '0.3'],\n"
            "             ['spectrum', '--f', '4', '--format', 'json'],\n"
            "             ['sweep', '--f', '9', '--lambda', '0:0.2:0.1'],\n"
            "             ['figure2', '--f', '8']):\n"
            "    assert qeslattice.cli.main(argv + ['--out', os.devnull]) == 0, argv\n"
            "result = qeslattice.solve_spectrum(6, 3.0, 0.2)\n"
            "qeslattice.soliton_band(result)\n"
            "qeslattice.sweep(7, 2.0, [0.0, 0.1])\n"
            "qeslattice.solve_spectra(5, 1.0, [0.1, 0.2])\n"
            "assert loaded() == [], loaded()\n"
            "for name in qeslattice.__all__:\n"
            "    getattr(qeslattice, name)\n"
            "assert set(qeslattice.__all__) <= set(dir(qeslattice))\n"
            "assert 'ops' in qeslattice.suites.SUITES\n"
            "assert qeslattice.ops.brute_force_eigenvalues is qeslattice.brute_force_eigenvalues\n"
            "assert len(loaded()) == len(oracles), loaded()\n"
            "try:\n"
            "    qeslattice.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('an unknown name resolved')\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_sweeps_without_a_hard_step_leave_scipy_optimize_unloaded():
    # a rejected sweep, a library sweep and a sweep through the CLI
    # order levels by sorting and never load scipy
    src = str(Path(qeslattice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys\n"
            "from qeslattice.spectra import sweep\n"
            "try:\n"
            "    sweep(2, 3.0, [0.0, 0.1, 2e3])\n"
            "except ValueError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('sweep accepted lambda = 2e3')\n"
            "assert 'scipy' not in sys.modules, 'rejected sweep imported it'\n"
            "sweep(15, 4.0, [0.27 + 0.004 * i for i in range(101)])\n"
            "assert 'scipy' not in sys.modules, 'sweep imported it'\n"
            "import os\n"
            "import qeslattice.cli\n"
            "assert qeslattice.cli.main(['sweep', '--f', '16', '--lambda', '0:0.49:0.01',"
            " '--out', os.devnull]) == 0\n"
            "assert 'scipy' not in sys.modules, 'f = 16 sweep imported it'\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("argv", [("spectrum", "--f", "3", "--bogus"),
                                  ("sweep", "--f", "3", "--format", "xml"), ()],
                         ids=["unknown-flag", "bad-choice", "no-command"])
def test_every_call_shares_one_parser_and_errs_alike(capsys, monkeypatch, argv):
    first = run(capsys, *argv)

    def refuse():
        raise AssertionError("the parser was built again")
    monkeypatch.setattr(qeslattice.cli, "build_parser", refuse)
    assert run(capsys, *argv) == first
    code, out, err = first
    assert code == 1 and out == "" and err.startswith("usage: qeslattice")
    assert err.count("\nerror: ") == 1


@pytest.mark.parametrize("flag, value, shown", [
    ("--gamma", "nan", "nan"), ("--lambda", "inf", "inf"),
    ("--gamma", "nan", "gamma = nan is not a finite number"),
    ("--gamma", "inf", "gamma = inf is outside"),
    ("--lambda", "1e308", "1e+308"), ("--gamma", "2e3", "2000.0")])
def test_spectrum_rejects_bad_coupling(capsys, flag, value, shown):
    code, out, err = run(capsys, "spectrum", "--f", "3", flag, value)
    assert code == 1 and out == ""
    assert shown in err and "did not converge" not in err


@pytest.mark.parametrize("argv", [("spectrum", "--f", "3", "--gamma", "-1e2"),
                                  ("sweep", "--f", "3", "--lambda", "-0.1:0:0.05")],
                         ids=lambda argv: argv[0])
def test_a_negative_coupling_is_read_as_a_value(capsys, argv):
    # argparse takes "-1e2" or "-0.1:0:0.05" for a flag unless it is joined
    # to its option; the CLI joins it, so both forms print the same rows
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out.count("\n") > 1
    assert out == run(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")[1]


def test_sweep_rejects_nan_grid(capsys):
    code, _, err = run(capsys, "sweep", "--f", "3", "--lambda", "0:nan:0.1")
    assert code == 1
    assert "'nan'" in err


def test_spectrum_builds_no_frame_and_no_basis(capsys, monkeypatch):
    # the block vectors and the occupation basis are built only by the oracles
    def refuse(*args, **kwargs):
        raise AssertionError("a frame or an occupation basis was built")
    monkeypatch.setattr(qeslattice.fock, "enumerate_basis", refuse)
    monkeypatch.setattr(qeslattice.ops, "enumerate_basis", refuse)
    monkeypatch.setattr(qeslattice.ops, "build_momentum_vectors", refuse)
    code, out, err = run(capsys, "spectrum", "--f", "12", "--lambda", "0.3")
    assert code == 0 and err == ""
    header, rows = csv_rows(out)
    assert len(rows) == 13 * 14 // 2 and {row[3] for row in rows} == {"0", "1", "2"}
    for argv in (("sweep", "--f", "9", "--lambda", "0:0.2:0.1"), ("figure2", "--f", "8")):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and out.count("\n") > 1
    solve_spectrum(MAX_SITES, 3.0, 0.5)


@pytest.mark.parametrize("argv", [("spectrum", "--f", "3"), ("sweep", "--f", "3", "--lambda", "0:0.5:0.1"),
                                  ("figure2", "--f", "3"), ("tables",), ("verify", "--suite", "tables")],
                         ids=lambda argv: argv[0])
def test_unwritable_out_path_is_an_error_line(tmp_path, capsys, monkeypatch, argv):
    # the path is opened before any work is done
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was opened")
    for name in ("sweep", "_sweep_each"):
        monkeypatch.setattr(qeslattice.cli, name, refuse)
    for name in ("run_suites", "table_checks"):  # imported by the command that runs them
        monkeypatch.setattr(qeslattice.suites, name, refuse)
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 1 and out == "" and not path.parent.exists()
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_out_file_of_a_failed_run_is_removed(tmp_path, capsys):
    # the solver rejects the coupling after the file was opened
    path = tmp_path / "out.csv"
    code, out, err = run(capsys, "spectrum", "--f", "3", "--gamma", "2e3", "--out", str(path))
    assert code == 1 and out == "" and err.startswith("error: gamma = 2000.0")
    assert not path.exists()


def fail_on_work(monkeypatch, argv):
    """Make the command of ``argv`` fail after its ``--out`` file is open:
    the solver rejects the coupling of a spectrum, and the suites of
    ``verify`` and the tables of ``tables`` raise."""
    def refuse(*args, **kwargs):
        raise ValueError("refused")
    if argv[0] == "spectrum":
        return argv + ("--gamma", "2e3"), "error: gamma = 2000.0"
    name = {"verify": "run_suites", "tables": "table_checks"}[argv[0]]
    monkeypatch.setattr(qeslattice.suites, name, refuse)
    return argv, "error: refused"


@pytest.mark.parametrize("argv", [("spectrum", "--f", "3"), ("verify", "--suite", "tables"),
                                  ("tables",)], ids=lambda argv: argv[0])
def test_out_file_that_existed_is_kept_by_a_failed_run(tmp_path, capsys, monkeypatch, argv):
    # a file the run did not create is neither removed nor truncated by a
    # failure; a run that succeeds replaces all of it, however much longer
    path = tmp_path / "out.txt"
    old = "an earlier result\n" * 1000
    path.write_text(old)
    with monkeypatch.context() as patch:
        failing, error = fail_on_work(patch, argv)
        code, out, err = run(capsys, *failing, "--out", str(path))
    assert code == 1 and out == "" and err.startswith(error)
    assert path.read_text() == old
    code, printed, _ = run(capsys, *argv)
    assert code == 0 and 0 < len(printed) < len(old)
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == printed


@pytest.mark.parametrize("argv", [("spectrum", "--f", "3"),
                                  ("sweep", "--f", "3", "--lambda", "0:0.5:0.1"),
                                  ("verify", "--suite", "tables"), ("tables",)],
                         ids=lambda argv: argv[0])
def test_out_file_is_written_over_and_cut_to_length_after(tmp_path, capsys, monkeypatch, argv):
    # no regular file is cut to length 0 before the text is written: the
    # text goes over the old bytes, and only what is left of them is cut
    path = tmp_path / "out.txt"
    code, printed, _ = run(capsys, *argv)
    old = "an earlier result\n" * (len(printed) // 9)
    cuts = []

    def ftruncate(fd, length, _ftruncate=os.ftruncate):
        cuts.append((length, path.read_text()))
        _ftruncate(fd, length)
    monkeypatch.setattr(qeslattice.cli.os, "ftruncate", ftruncate)
    for existing in (old, printed[:-1], None):
        if existing is None:
            path.unlink()
        else:
            path.write_text(existing)
        cuts.clear()
        code, out, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == printed
        assert cuts == [(len(printed.encode()), printed + (existing or "")[len(printed):])]


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
def test_out_file_of_an_interrupted_run_is_removed_if_the_run_made_it(tmp_path, monkeypatch,
                                                                      existed):
    # a Ctrl-C during the work propagates, and takes the file it created with it
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(qeslattice.cli, "sweep", interrupt)
    path = tmp_path / "out.csv"
    old = "an earlier result\n" * 1000
    if existed:
        path.write_text(old)
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--f", "3", "--lambda", "0:0.5:0.1", "--out", str(path)])
    assert path.read_text() == old if existed else not path.exists()


def test_closed_stdout_is_an_error_line(capsys, monkeypatch):
    class Closed:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        writelines = write

    monkeypatch.setattr(sys, "stdout", Closed())
    code = main(["spectrum", "--f", "3"])
    assert code == 1 and capsys.readouterr().err == f"error: {os.strerror(errno.EPIPE)}\n"


def test_spectrum_rejects_grid(capsys):
    code, out, err = run(capsys, "spectrum", "--f", "2", "--lambda", "0:0.5:0.1")
    assert code == 1 and out == ""
    assert err == "error: spectrum expects a single coupling, not a grid\n"


def test_spectrum_json_mirror(capsys):
    code, out, _ = run(capsys, "spectrum", "--f", "2", "--gamma", "3",
                       "--lambda", "0.25", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 6
    r = records[0]
    assert {"f", "gamma", "lambda", "nu", "k", "level", "n_tag", "energy"} <= set(r)
    assert r["k"] == pytest.approx(2 * np.pi * r["nu"] / 2, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ("spectrum", "--f", "5", "--lambda", "0.3"),
    ("sweep", "--f", "4", "--lambda", "0:0.2:0.05"),
    ("figure2", "--f", "4"),
])
def test_json_is_the_indented_dump_of_the_csv_rows(capsys, argv):
    # streamed JSON text equals json.dumps(records, indent=2), row for row
    # the CSV rows
    code, text, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    records = json.loads(text)
    assert text == json.dumps(records, indent=2) + "\n"
    code, csv_text, _ = run(capsys, *argv)
    assert code == 0
    header, rows = csv_rows(csv_text)
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        cells = dict(zip(header, row))
        assert float(cells["lambda"]) == rec["lambda"] and float(cells["energy"]) == rec["energy"]
        assert (int(cells["nu"]), int(cells["level"]), int(cells["n_tag"])) == (
            rec["nu"], rec["level"], rec["n_tag"])
        assert cells.get("band") == (None if "band" not in rec else str(rec["band"]).lower())


def reference_csv(groups, with_band):
    """The CSV text formatted one row at a time; ``groups`` holds ``(lam,
    blocks)`` with ``blocks`` one ``(nu, energies, tags, band_level)`` each."""
    lines = ["lambda,nu,level,n_tag,energy" + (",band" if with_band else "")]
    for lam, blocks in groups:
        for nu, energies, tags, band_level in blocks:
            for level, (tag, energy) in enumerate(zip(tags, energies)):
                band = "" if band_level is None else "," + str(level == band_level).lower()
                lines.append(f"{lam:.12g},{nu},{level},{tag},{energy:.12g}{band}")
    return "\n".join(lines) + "\n"


def test_csv_templates_write_each_row_as_formatted_alone(tmp_path, capsys):
    out = tmp_path / "out.csv"
    points = _parse_lambda("0:0.3:0.05")
    result = sweep(6, 2.5, points)
    run(capsys, "sweep", "--f", "6", "--gamma", "2.5", "--lambda", "0:0.3:0.05", "--out", str(out))
    groups = [(lam, [(bs.label.nu, bs.energies[i], bs.tags, None) for bs in result.blocks])
              for i, lam in enumerate(points)]
    assert out.read_text() == reference_csv(groups, with_band=False)

    run(capsys, "figure2", "--f", "5", "--out", str(out))
    groups = []
    for lam in _parse_lambda("0:0.5:0.5"):
        blocks = solve_spectrum(5, 3.0, lam).blocks
        groups.append((lam, [(bs.label.nu, bs.eigenvalues,
                              quanta_tags(bs.coefficients, bs.quanta, bs.eigenvalues),
                              int(np.argmin(bs.eigenvalues))) for bs in blocks]))
    assert out.read_text() == reference_csv(groups, with_band=True)


# ---------------------------------------------------------------- level writer

def written(writer, results, fmt, band):
    out = io.StringIO()
    writer(results, fmt, out, band)
    return out.getvalue()


def oracle_text(command, f, gamma, lam, fmt):
    """What the writer of ``oracles.emit`` writes for a ``spectrum``,
    ``sweep`` or ``figure2`` call."""
    band = command == "figure2"
    lams = _parse_lambda(lam)
    results = _sweep_each(f, gamma, lams) if band else [sweep(f, gamma, lams)]
    return written(emit, results, fmt, band)


LEVEL_GRIDS = {"spectrum": "0.3", "sweep": "0:0.2:0.05", "figure2": "0:0.5:0.5"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("f", [1, 2, 3, 4, 15, 16])
@pytest.mark.parametrize("command", sorted(LEVEL_GRIDS))
def test_level_writer_writes_the_bytes_of_the_oracle(capsys, command, f, fmt):
    lam = LEVEL_GRIDS[command]
    code, out, err = run(capsys, command, "--f", str(f), "--lambda", lam, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == oracle_text(command, f, 3.0, lam, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command, f, gamma, lam", [
    ("spectrum", 4, "3", "-0"), ("spectrum", 4, "0", "-0"), ("spectrum", 4, "-0.0", "-0"),
    ("figure2", 4, "-0.0", "-0:0.5:0.5"),
    ("sweep", 3, "3", "-0.5:0.5:0.001"),  # the inertia count's eigh fallback
], ids=["spectrum-gamma3", "spectrum-gamma0", "spectrum-gamma-0", "figure2-gamma-0", "fallback"])
def test_level_writer_keeps_signed_zeros_and_the_fallback_grid(capsys, command, f, gamma, lam,
                                                                fmt):
    code, out, err = run(capsys, command, "--f", str(f), "--gamma", gamma, "--lambda", lam,
                         "--format", fmt)
    assert (code, err) == (0, "")
    assert out == oracle_text(command, f, float(gamma), lam, fmt)


def hand_built(minus_one, minus_two_tags=(1, 0)):
    """A two-point result on f = 5 with blocks 2, 1, 0, -1, -2: block -1
    holds ``minus_one(energies of block 1)``, block -2 the very array of
    block 2 with the tags ``minus_two_tags``."""
    rng = np.random.default_rng(5)
    two, one, zero = (np.sort(rng.normal(size=(2, d)), axis=1) for d in (2, 3, 3))
    blocks = [(2, two, (1, 0)), (1, one, (1, 2, 2)), (0, zero, (0, 1, 2)),
              (-1, minus_one(one), (1, 2, 2)), (-2, two, minus_two_tags)]
    return SweepResult(f=5, gamma=3.0, lambdas=np.array([-0.0, 0.25]),
                       blocks=tuple(BlockSweep(label=MomentumLabel(5, nu), energies=e, tags=tags)
                                    for nu, e, tags in blocks))


@pytest.mark.parametrize("band", [False, True], ids=["levels", "band"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case, formatted", [
    ("shared", [2, 1, 0]),
    ("copy", [2, 1, 0, -1]),
    ("different", [2, 1, 0, -1]),
    ("shared, other tags", [2, 1, 0, -2]),
])
def test_level_writer_copies_only_a_block_that_shares_array_and_tags(case, formatted, fmt, band):
    minus_one = {"copy": np.copy, "different": lambda e: e + 1.0}.get(case, lambda e: e)
    result = hand_built(minus_one, (0, 1) if case == "shared, other tags" else (1, 0))
    assert [bs.label.nu for bs in _layout(result, fmt == "json", band)[1]] == formatted
    assert written(_emit, [result], fmt, band) == written(emit, [result], fmt, band)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("f", [8, 20])
def test_figure2_reuses_the_text_of_a_block_whose_tags_did_not_change(capsys, f, fmt):
    # each coupling is its own result with its own tags; a block whose nu
    # and tags are those of the previous coupling takes that coupling's
    # piece, the same text object, and the bytes stay the oracle's
    lam = "0:0.5:0.05"
    code, out, err = run(capsys, "figure2", "--f", str(f), "--lambda", lam, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == oracle_text("figure2", f, 3.0, lam, fmt)
    results = _sweep_each(f, 3.0, _parse_lambda(lam))
    known, reused = {}, 0
    for result in results:
        pieces = _layout(result, fmt == "json", True, known)[3]
        for key, text in pieces.items():
            if key in known:
                assert text is known[key]
                reused += 1
        known = pieces
    assert reused > 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_level_writer_reuses_no_piece_across_rings_or_couplings(fmt):
    # equal nu and tags on another ring or at another gamma head other text
    results = [hand_built(lambda e: e)]
    results += [dataclasses.replace(results[0], gamma=-0.0),
                dataclasses.replace(results[0], f=6), results[0]]
    for band in (False, True):
        assert written(_emit, results, fmt, band) == written(emit, results, fmt, band)


@pytest.mark.parametrize("f", [1, 2, 15, 16])
def test_a_sweep_formats_its_blocks_nu_ge_0_only(f):
    result = sweep(f, 3.0, [0.0, 0.1])
    assert [bs.label.nu for bs in _layout(result, False, False)[1]] == list(range(f // 2, -1, -1))


JSON_NUMBERS = [-0.0, 0.0, 3.0, 1e-05, 1e12, 1e16, 5e-324, 123456789012.5, -2.5e-17]


def test_json_numbers_are_the_json_dumps_text_of_the_rounded_value():
    # not the %.12g text: "3" is "3.0", "1e+12" is "1000000000000.0"
    numbers = np.array(JSON_NUMBERS)
    result = SweepResult(f=3, gamma=1e12, lambdas=numbers,
                         blocks=(BlockSweep(label=MomentumLabel(3, 1), energies=numbers[:, None],
                                            tags=(0,)),))
    text = written(_emit, [result], "json", False)
    expected = [json.dumps(float(f"{x:.12g}")) for x in JSON_NUMBERS]
    assert re.findall(r'"lambda": (.*),\n', text) == expected
    assert re.findall(r'"energy": (.*)\n', text) == expected
    assert re.findall(r'"gamma": (.*),\n', text) == ["1000000000000.0"] * len(JSON_NUMBERS)
    assert expected != [f"{x:.12g}" for x in JSON_NUMBERS]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["sweep", "figure2"])
def test_level_writer_memory_stays_below_its_fixed_share(command, fmt):
    # the writer's own peak at the largest ring, its result built outside
    # the trace: one grid point's text and the floats of one chunk
    band = command == "figure2"
    results = (_sweep_each(MAX_SITES, 3.0, [0.5]) if band
               else [sweep(MAX_SITES, 3.0, [0.0, 0.1, 0.2])])
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            _emit(results, fmt, sink, band)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < _FIXED_BYTES


# ---------------------------------------------------------------- sweep

@pytest.mark.parametrize("f", [5, 15, 47, 6, 16, 48])
def test_spectrum_equals_the_first_grid_point_of_sweep(capsys, f):
    # byte for byte, the exact zero levels of the k = pi block of an even
    # ring included
    _, spectrum, _ = run(capsys, "spectrum", "--f", str(f), "--lambda", "0.3")
    _, swept, _ = run(capsys, "sweep", "--f", str(f), "--lambda", "0.3:0.31:0.01")
    header, *rows = swept.splitlines(keepends=True)
    first = [header] + [row for row in rows if row.startswith("0.3,")]
    assert len(first) == 1 + (f + 1) * (f + 2) // 2
    assert "".join(first) == spectrum


def test_degenerate_levels_carry_the_tags_of_their_group(capsys):
    # levels 30 and 31 of nu = +-30 on f = 120 at gamma = 0 are both zero up
    # to rounding; the group gets one tag of each sector it holds, lowest first
    _, out, _ = run(capsys, "spectrum", "--f", "120", "--gamma", "0")
    _, rows = csv_rows(out)
    for nu in ("30", "-30"):
        group = [row for row in rows if row[1] == nu and row[2] in ("30", "31")]
        assert [row[3] for row in group] == ["1", "2"]
        assert max(abs(float(row[4])) for row in group) < 1e-9


def test_sweep_row_count_and_values(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--f", "3", "--gamma", "3",
                     "--lambda", "0:0.5:0.01", "--out", str(out_path))
    assert code == 0
    header, rows = csv_rows(out_path.read_text())
    assert header == ["lambda", "nu", "level", "n_tag", "energy"]
    assert len(rows) == 51 * 10
    first = [r for r in rows if r[0] == "0" and r[1] == "0"]
    assert min(float(r[4]) for r in first) == pytest.approx(-5.372, abs=1.5e-3)
    last_side = [r for r in rows if r[0] == "0.5" and r[1] in ("1", "-1")]
    assert min(float(r[4]) for r in last_side) == pytest.approx(-3.598, abs=1.5e-3)


def test_sweep_rejects_too_many_rows(capsys):
    # 10000 couplings on the largest ring would hold 944 MB
    code, out, err = run(capsys, "sweep", "--f", str(MAX_SITES),
                         "--lambda", "0:0.9999:0.0001")
    assert code == 1 and out == ""
    assert re.fullmatch(f"error: {refusal(10000, MAX_SITES)}\n", err), err


def test_sweep_requires_grid(capsys):
    code, out, err = run(capsys, "sweep", "--f", "2", "--lambda", "0.3")
    assert code == 1 and out == ""
    assert err == "error: sweep needs a start:stop:step grid\n"


def test_sweep_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "sweep", "--f", "2", "--gamma", "3", "--lambda", "0:0.2:0.05",
        "--out", str(a))
    run(capsys, "sweep", "--f", "2", "--gamma", "3", "--lambda", "0:0.2:0.05",
        "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- figure2

def test_figure2_defaults(tmp_path, capsys):
    out_path = tmp_path / "fig2.csv"
    code, _, _ = run(capsys, "figure2", "--out", str(out_path))
    assert code == 0
    header, rows = csv_rows(out_path.read_text())
    assert header == ["lambda", "nu", "level", "n_tag", "energy", "band"]
    lams = {r[0] for r in rows}
    assert lams == {"0", "0.5"}
    per_lam = sum(1 for r in rows if r[0] == "0")
    assert per_lam == 36  # (f+1)(f+2)/2 for f = 7
    nus = {int(r[1]) for r in rows}
    assert nus == {-3, -2, -1, 0, 1, 2, 3}  # mirrored rows included
    # the flagged band rows are the per-block minima
    for lam in ("0", "0.5"):
        for nu in map(str, range(-3, 4)):
            block = [r for r in rows if r[0] == lam and r[1] == nu]
            band = [r for r in block if r[5] == "true"]
            assert len(band) == 1
            assert float(band[0][4]) == min(float(r[4]) for r in block)


def test_figure2_rejects_a_grid_over_the_sweep_row_cap_before_any_solve(tmp_path, capsys,
                                                                         monkeypatch):
    # figure2 keeps a result per coupling, so the budget admits it a shorter
    # grid than a sweep, and admits the whole grid before any coupling is solved
    n = largest_admitted(19, keeps_vectors=False, per_point=True)
    assert n < largest_admitted(19, keeps_vectors=False)

    def refuse(*args, **kwargs):
        raise AssertionError("figure2 solved a coupling")
    monkeypatch.setattr(qeslattice.cli, "_sweep_each", refuse)
    with pytest.raises(AssertionError, match="figure2 solved a coupling"):
        main(["figure2", "--f", "19", "--lambda", grid_text(n)])
    path = tmp_path / "fig.csv"
    code, out, err = run(capsys, "figure2", "--f", "19", "--lambda", grid_text(n + 1),
                         "--out", str(path))
    assert code == 1 and out == ""
    assert re.fullmatch(f"error: {refusal(n + 1, 19)}\n", err), err
    assert not path.exists()


def test_figure2_prints_the_decoupled_k_pi_levels_as_exact_zeros(capsys):
    # f = 20: the nu = 10 block has d = 12 levels, d - 3 = 9 of them
    # decoupled zeros at every coupling; at lam = 0 one coupled level is
    # exactly zero too
    code, out, _ = run(capsys, "figure2", "--f", "20")
    assert code == 0
    _, rows = csv_rows(out)
    for lam, zeros in (("0", 10), ("0.5", 9)):
        block = [r for r in rows if r[0] == lam and r[1] == "10"]
        near_zero = [r for r in block if abs(float(r[4])) < 1e-14]
        exact = [r for r in near_zero if r[4] == "0"]
        assert len(block) == 12 and len(exact) == len(near_zero) == zeros


def test_tables_print_the_k_pi_zero_level_of_four_sites_as_zero(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    table = out.split("# f4 nu=2 ")[1].split("\n\n")[0]
    rows = [line for line in table.splitlines() if " nu=+2 | " in line]
    assert len(rows) == 6
    assert not any("-0.000 (+0.000)" in row for row in rows)


# ---------------------------------------------------------------- verify

def test_verify_single_suite(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--suite", "charpoly", "--out", str(out_path))
    assert code == 0
    records = json.loads(out_path.read_text())
    assert len(records) == 8
    assert all(r["pass"] for r in records)
    assert all({"check", "params", "residual", "pass"} <= set(r) for r in records)
    assert "8/8 checks passed" in err


def test_a_repeated_suite_runs_once(tmp_path, capsys):
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    assert run(capsys, "verify", "--suite", "charpoly", "--out", str(once))[0] == 0
    code, out, err = run(capsys, "verify", "--suite", "charpoly", "--suite", "charpoly",
                         "--out", str(twice))
    assert (code, out, err) == (0, "", "8/8 checks passed\n")
    assert twice.read_bytes() == once.read_bytes()


def test_verify_failing_suite_exits_2_with_the_bound_on_its_fail_line(capsys, monkeypatch):
    from qeslattice.report import Check, check
    note = "0/2 readings match the computed eigenvectors"
    monkeypatch.setitem(qeslattice.suites.SUITES, "failing", lambda rings: [
        check("too large", 2e-3, below=1.5e-3, f=3),
        check("fine", 0, below=1),
        check("too small", 0.05, above=0.1, f=1, lam=0.5, note="margin"),
        Check(name="reading group 'g'", params={"f": 2}, status="fail", note=note),
    ])
    code, out, err = run(capsys, "verify", "--suite", "failing")
    assert code == 2
    records = json.loads(out)
    assert [r["pass"] for r in records] == [False, True, False, False]
    assert records[-1] == {"check": "reading group 'g'", "params": {"f": 2}, "residual": 0.0,
                           "pass": False, "status": "fail", "note": note}
    assert err.splitlines() == [
        "1/4 checks passed",
        "FAIL too large {'f': 3} residual=2.000e-03 below=1.500e-03",
        "FAIL too small {'f': 1, 'lam': 0.5} residual=5.000e-02 above=1.000e-01",
        f"FAIL reading group 'g' {{'f': 2}} residual=0.000e+00 {note}",
    ]


def test_verify_rejects_unknown_suite(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--suite", "nonsense", "--out", str(path))
    assert code == 1 and out == "" and not path.exists()
    names = sorted(qeslattice.suites.SUITES)
    assert err == f"error: unknown suite 'nonsense'; choose from {names} or 'all'\n"


@pytest.mark.parametrize("first", ["ops", "all"])
def test_verify_checks_every_suite_name_before_running_any(capsys, monkeypatch, first):
    def refuse(rings):
        raise AssertionError("a suite ran before the names were checked")
    monkeypatch.setitem(qeslattice.suites.SUITES, "ops", refuse)
    code, out, err = run(capsys, "verify", "--suite", first, "--suite", "nonsense")
    assert code == 1 and out == "" and "'nonsense'" in err


def test_tables_command(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert out.count("--> ok") == 8
    assert "MISMATCH" not in out


def test_tables_verdicts_and_exit_status_come_from_the_table_checks(capsys, monkeypatch):
    # held to a bound no table meets, every table is a mismatch and the exit is 2
    monkeypatch.setattr(qeslattice.suites, "TABLE_TOL", 1e-9)
    code, out, _ = run(capsys, "tables")
    assert code == 2
    assert out.count("--> MISMATCH") == 8 and "--> ok" not in out
    assert out.count("(tolerance 1e-09)") == 8


def test_spectrum_deterministic_stdout(capsys):
    _, first, _ = run(capsys, "spectrum", "--f", "4", "--gamma", "3", "--lambda", "0.37")
    _, second, _ = run(capsys, "spectrum", "--f", "4", "--gamma", "3", "--lambda", "0.37")
    assert first == second


# the levels where a zero keeps its sign: -0 at nu = 2 level 0 (gamma = 0
# only) and at nu = +-1 level 1, which a pencil written without the
# lam * 0.0 and 0.0 + lam * drive terms of B_BH + lam * B_drive prints as 0
SIGNED_ZERO_SPECTRA = {
    "0": (
        "lambda,nu,level,n_tag,energy\n"
        "-0,2,0,2,-0\n"
        "-0,2,1,2,0\n"
        "-0,2,2,2,0\n"
        "-0,2,3,1,2\n"
        "-0,1,0,2,-2\n"
        "-0,1,1,1,-0\n"
        "-0,1,2,2,2\n"
        "-0,0,0,2,-4\n"
        "-0,0,1,1,-2\n"
        "-0,0,2,0,-3.67761376907e-16\n"
        "-0,0,3,2,0\n"
        "-0,0,4,2,4\n"
        "-0,-1,0,2,-2\n"
        "-0,-1,1,1,-0\n"
        "-0,-1,2,2,2\n"
    ),
    "-0": (
        "lambda,nu,level,n_tag,energy\n"
        "-0,2,0,2,0\n"
        "-0,2,1,2,0\n"
        "-0,2,2,2,0\n"
        "-0,2,3,1,2\n"
        "-0,1,0,2,-2\n"
        "-0,1,1,1,-0\n"
        "-0,1,2,2,2\n"
        "-0,0,0,2,-4\n"
        "-0,0,1,1,-2\n"
        "-0,0,2,0,-3.67761376907e-16\n"
        "-0,0,3,2,0\n"
        "-0,0,4,2,4\n"
        "-0,-1,0,2,-2\n"
        "-0,-1,1,1,-0\n"
        "-0,-1,2,2,2\n"
    ),
}


@pytest.mark.parametrize("gamma", sorted(SIGNED_ZERO_SPECTRA))
def test_spectrum_keeps_the_sign_of_every_zero(capsys, gamma):
    code, out, err = run(capsys, "spectrum", "--f", "4", "--gamma", gamma, "--lambda", "-0")
    assert (code, err) == (0, "")
    assert out == SIGNED_ZERO_SPECTRA[gamma]
