"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import qeslattice  # noqa: E402
import qeslattice.cli  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_command_prints():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["command"][1:] == ["perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_its_unit(trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 3
    expected = run.PER_LAYER if trace else run.END_TO_END
    for name in workloads.WORKLOADS:
        for metric, unit in expected.items():
            assert final["metrics"][f"{name}.{metric}"]["unit"] == unit
    summary = "\n".join(lines[:-1])
    for metric in [*run.END_TO_END, "error_rate"]:
        assert summary.count(f"  {metric} ") == len(workloads.WORKLOADS)
    provenance = json.loads(next(l for l in lines if l.startswith("provenance "))[11:])
    for key in ("python", "numpy", "scipy", "blas", "blas_threads", "nproc", "git_commit", "seed"):
        assert key in provenance
    assert provenance["workloads"]["ring_solve"]["ops"] >= 1


def test_command_fails_without_package_source(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "tracer.py"):
        (copy / name).write_text((BENCH / name).read_text())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_all",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""


def test_tail_never_below_median_and_ten_beyond():
    assert run.tail(list(range(100))) == (89, 90.0)
    value, pct = run.tail([float(i) for i in range(14)])
    assert value >= 6.5 and pct == 100.0 * 8 / 14


# --- checkers: a wrong eigenvalue makes the operation fail ---------------

def _ring_blocks(f, gamma, lam):
    result = qeslattice.solve_spectrum(f, gamma, lam)
    blocks = [(bs.label.nu, np.array(bs.eigenvalues)) for bs in result.blocks]
    return blocks, list(qeslattice.soliton_band(result).minima)


@pytest.mark.parametrize("f", [5, 6])
def test_ring_check_accepts_solve_and_rejects_wrong_eigenvalue(f):
    blocks, minima = _ring_blocks(f, 2.5, 0.3)
    assert workloads.check_ring(f, 2.5, blocks, minima) == []
    nu, w = blocks[1]
    w = w.copy()
    w[-1] += 1e-6
    blocks[1] = (nu, w)
    assert workloads.check_ring(f, 2.5, blocks, minima)


def test_ring_check_rejects_wrong_block_dimensions():
    blocks, minima = _ring_blocks(6, 2.5, 0.3)
    nu, w = blocks[0]
    blocks[0] = (nu, w[:-1])
    assert workloads.check_ring(6, 2.5, blocks, minima)


def test_block_dimension_closed_forms_total_the_space():
    for f in range(1, 40):
        dims = workloads.expected_block_dims(f)
        assert len(dims) == f and sum(dims.values()) == workloads.dimension(f)


def _sweep(tmp_path):
    wl = workloads.LambdaSweep(qeslattice, 11, workloads.SMALL, tmp_path)
    assert wl.op(0) == 0
    return wl, wl.out.read_text()


def test_sweep_check_accepts_output_and_rejects_wrong_eigenvalue(tmp_path):
    wl, text = _sweep(tmp_path)
    oracle = (wl.ref_index, qeslattice.brute_force_eigenvalues(
        wl.f, float(wl.gamma_text), wl.ref_lambda))
    gamma = float(wl.gamma_text)
    assert workloads.check_sweep(text, wl.f, gamma, wl.n_points, oracle) == []
    lines = text.splitlines()
    row = lines[3].split(",")
    row[-1] = repr(float(row[-1]) + 1e-6)
    lines[3] = ",".join(row)
    wrong = "\n".join(lines) + "\n"
    assert workloads.check_sweep(wrong, wl.f, gamma, wl.n_points, oracle)
    assert workloads.check_sweep("\n".join(lines[:-1]), wl.f, gamma, wl.n_points, oracle)


def test_verify_check_rejects_failing_record_and_exit_code():
    records = [{"check": f"c{i}", "pass": True} for i in range(workloads.VERIFY_MIN_RECORDS)]
    assert workloads.check_verify(0, json.dumps(records)) == []
    assert workloads.check_verify(2, json.dumps(records))
    assert workloads.check_verify(0, json.dumps(records[:-1]))
    records[5]["pass"] = False
    assert workloads.check_verify(0, json.dumps(records))


# --- the loop counts a corrupted output as a failed operation -------------

class _CorruptRing(workloads.RingSolve):
    def op(self, i):
        result, band = super().op(i)
        bs = result.blocks[0]
        bad = dataclasses.replace(bs, eigenvalues=bs.eigenvalues + 1e-3)
        return dataclasses.replace(result, blocks=(bad,) + result.blocks[1:]), band


class _CorruptSweep(workloads.LambdaSweep):
    def op(self, i):
        code = super().op(i)
        text = self.out.read_text()
        head, _, rest = text.partition("\n")
        first, _, tail = rest.partition("\n")
        cells = first.split(",")
        cells[-1] = repr(float(cells[-1]) - 1e-3)
        self.out.write_text("\n".join([head, ",".join(cells), tail]))
        return code


class _CorruptVerify(workloads.VerifyAll):
    def op(self, i):
        code = super().op(i)
        records = json.loads(self.out.read_text())
        records[0]["pass"] = False
        self.out.write_text(json.dumps(records))
        return code


@pytest.mark.parametrize("cls", [_CorruptRing, _CorruptSweep, _CorruptVerify])
def test_wrong_output_counts_as_failed_op(cls, tmp_path):
    wl = cls(qeslattice, 5, workloads.SMALL, tmp_path)
    loop = worker.closed_loop(wl, 0.0)
    assert loop["attempted"] == 1 and loop["failed"] == 1, loop


def test_raising_op_counts_as_failed_op(tmp_path):
    class Raises(workloads.RingSolve):
        def op(self, i):
            raise ArithmeticError("eigenpair residual too large")

    loop = worker.closed_loop(Raises(qeslattice, 5, workloads.SMALL, tmp_path), 0.0)
    assert loop["failed"] == loop["attempted"] == 1


# --- the seed-code twin -------------------------------------------------

def test_baseline_twin_follows_each_untraced_op(tmp_path):
    args = argparse.Namespace(workload="ring_solve", seed=5, small=True, workdir=tmp_path)
    wl = workloads.RingSolve(qeslattice, 5, workloads.SMALL, tmp_path)
    baseline = worker.Baseline(args)
    try:
        loop = worker.closed_loop(wl, 0.2, Tracer(), baseline)
    finally:
        baseline.close()
    assert baseline.proc.returncode == 0
    assert loop["failed"] == 0 and len(loop["baseline_s"]) == len(loop["op_s"]) >= 1
    assert all(b > 0 for b in loop["baseline_s"])


# --- tracer ---------------------------------------------------------------

def test_tracer_patches_callers_and_restores_them(tmp_path):
    wl = workloads.LambdaSweep(qeslattice, 3, workloads.SMALL, tmp_path)
    original = qeslattice.spectra.solve_spectrum
    tracer = Tracer()
    loop = worker.closed_loop(wl, 0.0, tracer)
    # ops 0 and 1 are traced; the loop goes on until one ran untraced
    assert loop["failed"] == 0 and len(loop["traced_op_s"]) == 2 and len(loop["op_s"]) == 1
    assert qeslattice.spectra.solve_spectrum is original
    assert qeslattice.suites.SUITES["ops"] is qeslattice.suites.ops_suite
    figures = layer_metrics(tracer, [0])
    assert figures["spectra.diagonalize.calls"] == wl.n_points * 4  # f=4 has 4 blocks
    assert figures["fock.enumerate_basis.calls"] == wl.n_points
    assert figures["cli.main.self_s"] > 0
    assert figures["ops.build_hamiltonian.bytes"] == wl.n_points * 16 * 15 ** 2
    assert figures["suites.ops.s"] == 0 and figures["ops.commutator.calls"] == 0
    # self times never exceed the traced operation
    assert sum(v for k, v in figures.items() if k.endswith("self_s")) <= loop["traced_op_s"][0]


def test_missing_function_reads_zero(monkeypatch):
    monkeypatch.delattr(qeslattice.momentum, "project_block")
    tracer = Tracer()
    names = [name for name, _ in tracer.targets()]
    assert "momentum.project_block" not in names
    assert layer_metrics(tracer, [0])["momentum.project_block.calls"] == 0
