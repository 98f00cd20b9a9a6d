"""Benchmark of the qeslattice package: three workloads, one command.

    python3 perfbench/run.py --workload ring_solve --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a closed loop with one caller.  Set-up is timed
in ``SETUPS`` fresh processes (import plus one untimed warm-up operation),
each started right after a set-up of the frozen seed code in ``baseline/``,
and reported through the pairs' median ratio (see ``SEED_SETUP_S``).  The
last process then runs the loop for ``--seconds``, each operation followed
by its twin on the seed code (see ``worker.Baseline``).  With ``--trace 1``
every second pair of operations runs with spans around the package's public
functions, and the per-layer figures replace the end-to-end ones in the
final line.

Output: one summary block per workload, a ``provenance`` line, and as the
last line a JSON object ``{correct, attempted, failed, metrics}``.
Exit codes: 0 success (also when an operation failed its check: see
``correct``), 1 a worker crashed or timed out, 2 no package source found.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 3
TAIL_BEYOND = 10
TIME_LIMIT_S = 170.0
# One BLAS thread: the loop runs pinned to one CPU with its seed twin (see
# worker.Baseline), and the sweep's n = 136 eigensolves ran no faster on two.
BLAS_THREADS = "1"
# glibc's default mmap threshold, held fixed: by default it rises to the size
# of the first large array freed, after which ring_solve's 20-25 MB matrices
# come from the heap and the peak RSS depends on its fragmentation.
MMAP_THRESHOLD = str(128 * 1024)

# Set-up is reported in seconds at the host speed of the commit that defined
# the benchmark: each set-up of the package is paired with a set-up of the
# seed code started right before it, and the median ratio of the pairs is
# multiplied by the seed code's set-up time below.  That time is the middle of
# the set-up medians of four ten-run sets (2-vCPU Xeon, OpenBLAS 0.3.31, one
# BLAS thread); over those sets the host's speed moved by about 30%.
SEED_SETUP_S = {"ring_solve": 1.41, "lambda_sweep": 2.03, "verify_all": 1.31}

# Operation times are gated as ratios to their twins on the frozen seed code
# (see worker.Baseline), which cancels the host's changing speed; the wall
# seconds are printed beside them.
END_TO_END = {"setup_s": "s", "op_p50_vs_seed": "ratio", "op_tail_vs_seed": "ratio",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.import_s": "s",
    "setup.warmup_s": "s",
    **LAYER_METRICS,
    "trace.op_p50_s": "s",
    "trace.untraced_op_p50_s": "s",
    "trace.overhead_s": "s",
}


class WorkerError(RuntimeError):
    pass


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` at the highest nearest-rank percentile with at
    least ``TAIL_BEYOND`` samples beyond it, but never below the median rank
    (a run with fewer than ``2 * TAIL_BEYOND + 1`` samples has no such
    percentile above the median)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[rank], 100.0 * (rank + 1) / n


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_worker(args: argparse.Namespace, workload: str, setup_only: bool,
               deadline: float, seed_code: bool = False) -> tuple[float, dict, dict | None]:
    """Start one worker, on the package or (``seed_code``) on its frozen seed
    copy; return (set-up seconds, READY payload, RESULT payload)."""
    package = HERE / "baseline" if seed_code else ROOT / "src"
    workdir = args.workdir / "baseline" if seed_code else args.workdir
    workdir.mkdir(exist_ok=True)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join(filter(None, [str(package), env.get("PYTHONPATH")])),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
        "MALLOC_MMAP_THRESHOLD_": MMAP_THRESHOLD,
    })
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    cmd += ["--small"] * args.small + ["--setup-only"] * setup_only
    ready = result = None
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.startswith("READY ") and ready is None:
                    setup_s = time.perf_counter() - start
                    ready = json.loads(line[6:])
                elif line.startswith("RESULT "):
                    result = json.loads(line[7:])
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or (result is None and not setup_only):
        raise WorkerError(f"{workload} worker exited with code {code}"
                          + (" (killed at the time limit)" if time.monotonic() >= deadline else ""))
    return setup_s, ready, result


def measure(args: argparse.Namespace, workload: str) -> dict:
    """Run the set-ups and the loop of one workload; return its figures."""
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []  # (set-up seconds, seed code's set-up seconds, READY payload)
    for k in range(SETUPS):
        seed_setup_s, _, _ = run_worker(args, workload, True, deadline, seed_code=True)
        setup_s, ready, result = run_worker(args, workload, k < SETUPS - 1, deadline)
        setups.append((setup_s, seed_setup_s, ready))
    plain, twins = result["op_s"], result["baseline_s"]
    tail_s, tail_pct = tail(plain)
    figures = {
        "setup_s": statistics.median(s / b for s, b, _ in setups) * SEED_SETUP_S[workload],
        "op_p50_vs_seed": statistics.median(t / b for t, b in zip(plain, twins)),
        "op_tail_vs_seed": tail_s / tail(twins)[0],
        "peak_rss_mb": result["peak_rss_mb"],
        "op_p50_s": statistics.median(plain),
        "op_tail_s": tail_s,
        "seed_op_p50_s": statistics.median(twins),
        "setup_wall_s": statistics.median(s for s, _, _ in setups),
        "seed_setup_wall_s": statistics.median(b for _, b, _ in setups),
    }
    if args.trace:
        traced_p50 = statistics.median(result["traced_op_s"])
        figures.update({
            "setup.import_s": statistics.median(r["import_s"] for _, _, r in setups),
            "setup.warmup_s": statistics.median(r["warmup_s"] for _, _, r in setups),
            **result["layers"],
            "trace.op_p50_s": traced_p50,
            "trace.untraced_op_p50_s": figures["op_p50_s"],
            "trace.overhead_s": traced_p50 - figures["op_p50_s"],
        })
    result.update(figures=figures, tail_pct=tail_pct, setups=len(setups), samples=len(plain))
    return result


def report(args: argparse.Namespace, workload: str, r: dict) -> None:
    """Human-readable block: every metric with its unit and sample count."""
    fig, n = r["figures"], r["samples"]
    trace = f"traced in {len(r['traced_op_s'])} of them" if args.trace else "untraced"
    print(f"== {workload}  seed {args.seed}  {args.seconds:g} s  closed loop, 1 caller  "
          f"{r['attempted']} ops, {trace}")
    print(f"  setup_s      {fig['setup_s']:.4f} s    median of {r['setups']} set-ups over the seed "
          f"code's, times {SEED_SETUP_S[workload]} s (wall: {fig['setup_wall_s']:.4f} s, "
          f"seed code: {fig['seed_setup_wall_s']:.4f} s)")
    print(f"  op_p50_vs_seed   {fig['op_p50_vs_seed']:.4f}      median of {n} ratios "
          "to the same operation on the seed code")
    print(f"  op_tail_vs_seed  {fig['op_tail_vs_seed']:.4f}      p{r['tail_pct']:.1f} of {n} "
          "samples over the seed code's")
    print(f"  op_p50_s     {fig['op_p50_s']:.4f} s    {n} untraced samples (seed code: "
          f"{fig['seed_op_p50_s']:.4f} s)")
    print(f"  op_tail_s    {fig['op_tail_s']:.4f} s    p{r['tail_pct']:.1f} of {n} samples")
    print(f"  peak_rss_mb  {fig['peak_rss_mb']:.1f} MB")
    print(f"  error_rate   {r['failed'] / r['attempted']:.4f}      "
          f"{r['failed']} failed of {r['attempted']} attempted")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:40s} {fig[name]:.6g} {unit}")
    for failure in r["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qeslattice" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'qeslattice'}", file=sys.stderr)
        return 2
    args.workdir = HERE / "_out"
    args.workdir.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    metrics, attempted, failed, samples = {}, 0, 0, {}
    try:
        for name in names:
            r = measure(args, name)
            report(args, name, r)
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, unit in units.items():
                metrics[prefix + metric] = {"value": r["figures"][metric], "unit": unit}
            attempted += r["attempted"]
            failed += r["failed"]
            samples[name] = {"setups": r["setups"], "ops": r["attempted"],
                             "untraced_ops": len(r["op_s"]), "traced_ops": len(r["traced_op_s"]),
                             "op_tail_percentile": r["tail_pct"], "inputs": r["inputs"],
                             **{k: r["figures"][k] for k in ("op_p50_s", "op_tail_s", "seed_op_p50_s",
                                                               "setup_wall_s", "seed_setup_wall_s")},
                             **({"spans": r["spans"]} if args.trace else {})}
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    provenance = {**r["versions"], "nproc": len(os.sched_getaffinity(0)),
                  "git_commit": git_commit(), "seed": args.seed, "run_seconds": args.seconds,
                  "workloads": samples}
    print("provenance " + json.dumps(provenance))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
