"""One benchmark process: import the package, warm up, run a closed loop.

Started by ``run.py``, never by hand.  It prints one ``READY`` line when the
workload is set up (the parent times set-up from process start to that line)
and, unless ``--setup-only``, one ``RESULT`` line with the raw figures.
Nothing else goes to stdout: the CLI's own output is captured per operation.
With ``--serve`` it is the :class:`Baseline` child of another worker.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _blas_info(np) -> dict:
    """OpenBLAS version and thread count of the library numpy loaded."""
    import ctypes

    info = {"blas": "unknown", "blas_threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    info["blas"] = get_config().decode()
                    info["blas_threads"] = int(get_threads())
                    return info
    return info


class Baseline:
    """The seed code of the package, frozen under ``baseline/``, in a child
    worker pinned to the same CPU.  It runs each operation's twin (same
    workload, seed and index) right after the operation, so the two share
    the host's load: the host this benchmark was tuned on shares its cores,
    and its speed moved by up to 50% within minutes, while the ratio of the
    twins moved by a few percent."""

    def __init__(self, args: argparse.Namespace) -> None:
        src = str(HERE.parent / "src")
        paths = [str(HERE / "baseline")] + [
            p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p and p != src]
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--serve",
               "--workdir", str(args.workdir / "baseline")] + ["--small"] * args.small
        (args.workdir / "baseline").mkdir(exist_ok=True)
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)))
        if not self.proc.stdout.readline().startswith("READY "):
            self.close()
            raise RuntimeError("baseline worker did not start")

    def __call__(self, i: int) -> float:
        """Wall seconds of operation ``i`` on the seed code."""
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"baseline worker exited with code {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        """End the child: EOF on its input stops it; kill it if it hangs."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        finally:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


def serve(workload) -> int:
    """Baseline mode: run operation ``i`` for each line ``i`` on stdin and
    print its wall seconds; stop at EOF.  Outputs are not checked here: this
    code is the seed's, whose outputs the package's own checks accepted."""
    import ctypes

    ctypes.CDLL(None).prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL: end with the parent
    for line in sys.stdin:
        start = time.perf_counter()
        workload.op(int(line))
        print(repr(time.perf_counter() - start), flush=True)
    return 0


def traced_op(i: int) -> bool:
    """Trace operations in pairs, so both ring sizes of ring_solve are traced."""
    return (i // 2) % 2 == 0


def closed_loop(workload, seconds: float, tracer=None, baseline=None) -> dict:
    """Run operations back to back for ``seconds`` (at least until one ran
    untraced), timing each and checking its output outside the timed
    region.  An operation fails if it raises or its check reports a
    problem.  With a
    :class:`Baseline`, each operation's twin on the seed code runs after it;
    ``baseline_s[k]`` is the twin of the untraced ``op_s[k]``."""
    plain, traced, twins, failures = [], [], [], []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        i = attempted
        trace_this = tracer is not None and traced_op(i)
        if trace_this:
            tracer.install(i)
        t0 = time.perf_counter()
        try:
            output = workload.op(i)
        except Exception:
            output, error = None, traceback.format_exc(limit=3)
        else:
            error = None
        elapsed = time.perf_counter() - t0
        if trace_this:
            tracer.uninstall()
        (traced if trace_this else plain).append(elapsed)
        attempted += 1
        if error is None:
            try:
                problems = workload.check(i, output)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        else:
            problems = [error]
        output = None  # release it: the next operation's peak memory is its own
        if problems:
            failures.append(f"op {i}: " + "; ".join(problems))
        if baseline is not None and not trace_this:
            twins.append(baseline(i))
    return {"op_s": plain, "traced_op_s": traced, "baseline_s": twins,
            "attempted": attempted, "failed": len(failures), "failures": failures[:5]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--serve", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import qeslattice
    import qeslattice.cli  # noqa: F401  (the CLI workloads call it)
    import_s = time.perf_counter() - start

    sys.path.insert(0, str(HERE))
    from workloads import FULL, SMALL, WORKLOADS

    workload = WORKLOADS[args.workload](qeslattice, args.seed, SMALL if args.small else FULL,
                                       args.workdir)
    start = time.perf_counter()
    warmup_output = workload.op(-1)
    warmup_s = time.perf_counter() - start
    print("READY " + json.dumps({"import_s": import_s, "warmup_s": warmup_s}), flush=True)
    warmup_problems = workload.check(-1, warmup_output)
    del warmup_output
    if warmup_problems:
        print(f"warm-up operation failed its check: {warmup_problems}", file=sys.stderr)
        return 1
    if args.setup_only:
        return 0
    if args.serve:
        return serve(workload)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    # the baseline child inherits this single-CPU affinity
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    baseline = Baseline(args)
    try:
        loop = closed_loop(workload, args.seconds, tracer, baseline)
    finally:
        baseline.close()

    import numpy
    import scipy

    result = {
        "import_s": import_s,
        "warmup_s": warmup_s,
        **loop,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs": workload.describe(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, **_blas_info(numpy)},
    }
    if tracer is not None:
        from tracer import layer_metrics

        traced_ops = [i for i in range(loop["attempted"]) if traced_op(i)]
        result["layers"] = layer_metrics(tracer, traced_ops)
        result["spans"] = len(tracer.spans)
        tracer.write(args.workdir / f"spans-{args.workload}-{args.seed}.csv")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
