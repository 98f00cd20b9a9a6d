"""Spans around calls into the package's public functions, from outside it.

The package modules import each other with ``from .x import y``, so a
function is reachable under several names: its defining module, every
module that imported it, the package namespace, and dict registries such as
``suites.SUITES``.  :class:`Tracer` replaces every one of those references
with a timing wrapper while a traced operation runs and puts the originals
back afterwards, so untraced operations run the unmodified code.

A function that does not exist (renamed or deleted by a later change) is
skipped; its metrics then read zero calls and zero time.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable

PACKAGE = "qeslattice"

# (module, function) pairs traced by name.  Algebra functions and suites are
# added from the modules themselves, see ``Tracer.targets``.
NAMED_TARGETS = (
    ("fock", "enumerate_basis"),
    ("ops", "build_hamiltonian"),
    ("ops", "build_h_bh"),
    ("ops", "build_h_lambda"),
    ("ops", "commutator"),
    ("momentum", "build_momentum_vectors"),
    ("momentum", "project_block"),
    ("momentum", "assemble_h_r"),
    ("spectra", "solve_spectrum"),
    ("spectra", "diagonalize"),
    ("spectra", "sweep"),
    ("spectra", "brute_force_eigenvalues"),
    ("report", "as_records"),
    ("cli", "main"),
)


def _project_block_flops(block) -> int:
    """Real flops of the dense projection, computed from array shapes: the
    Gram matrix ``V^H V`` plus ``(V^H H) V``, 8 flops per complex
    multiply-add.  Zero when the result no longer carries ``vectors``."""
    shape = getattr(getattr(block, "vectors", None), "shape", None)
    if shape is None or len(shape) != 2:
        return 0
    dim, d = shape
    return 8 * (d * dim * dim + 2 * d * d * dim)


def _hamiltonian_bytes(op) -> int:
    """``nbytes`` of the dense matrix returned, zero if there is none."""
    return int(getattr(getattr(op, "matrix", None), "nbytes", 0))


# span name -> count computed from the call's result, reported as
# ``<span>.flops`` / ``<span>.bytes``
COUNTERS: dict[str, Callable[[object], int]] = {
    "momentum.project_block": _project_block_flops,
    "ops.build_hamiltonian": _hamiltonian_bytes,
}


SUITE_NAMES = ("ops", "momentum", "spectra", "soliton", "charpoly", "tables", "algebra", "eigvec")

# metric name -> unit, for every figure ``layer_metrics`` produces
LAYER_METRICS: dict[str, str] = {
    "momentum.project_block.calls": "count",
    "momentum.project_block.self_s": "s",
    "momentum.project_block.flops": "flop",
    "momentum.build_momentum_vectors.calls": "count",
    "momentum.build_momentum_vectors.self_s": "s",
    "momentum.assemble_h_r.self_s": "s",
    "ops.build_hamiltonian.calls": "count",
    "ops.build_hamiltonian.self_s": "s",
    "ops.build_hamiltonian.bytes": "B",
    "fock.enumerate_basis.calls": "count",
    "fock.enumerate_basis.self_s": "s",
    "spectra.solve_spectrum.self_s": "s",
    "spectra.diagonalize.calls": "count",
    "spectra.diagonalize.self_s": "s",
    "spectra.sweep.self_s": "s",
    "cli.main.self_s": "s",
    **{f"suites.{name}.s": "s" for name in SUITE_NAMES},
    "algebra.self_s": "s",
    "ops.build_h_bh.self_s": "s",
    "ops.build_h_lambda.self_s": "s",
    "ops.commutator.calls": "count",
    "spectra.brute_force_eigenvalues.self_s": "s",
    "report.as_records.self_s": "s",
}


def _package_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Records spans ``(name, start, end, parent, op)`` in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # span tuples: (name id, start, end, parent span index or -1, op, count)
        self.spans: list[tuple[int, float, float, int, int, int] | None] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[dict, str, object]] = []
        self._wrappers: dict[int, Callable] = {}

    def targets(self) -> list[tuple[str, Callable]]:
        """``(span name, function)`` for every traced function that exists."""
        mods = {m.__name__.split(".")[-1]: m for m in _package_modules()}
        found = []
        for mod_name, fn_name in NAMED_TARGETS:
            fn = getattr(mods.get(mod_name), fn_name, None)
            if callable(fn):
                found.append((f"{mod_name}.{fn_name}", fn))
        algebra = mods.get("algebra")
        if algebra is not None:
            for fn_name, fn in sorted(vars(algebra).items()):
                if (inspect.isfunction(fn) and not fn_name.startswith("_")
                        and fn.__module__ == algebra.__name__):
                    found.append((f"algebra.{fn_name}", fn))
        suites = getattr(mods.get("suites"), "SUITES", {})
        for key, fn in suites.items():
            found.append((f"suites.{key}", fn))
        return found

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self._op, 0)
            if counter is not None:
                spans[idx] = (name_id, start, end, parent, self._op, counter(result))
            return result

        return wrapper

    def install(self, op: int) -> None:
        """Trace operation ``op``: patch every reference to each target."""
        self._op = op
        originals = {}
        for name, fn in self.targets():
            if id(fn) not in self._wrappers:
                self._wrappers[id(fn)] = self._wrap(name, fn)
            originals[id(fn)] = (fn, self._wrappers[id(fn)])
        for mod in _package_modules():
            namespace = vars(mod)
            owners = [namespace] + [v for v in namespace.values() if isinstance(v, dict)]
            for owner in owners:
                for key, value in list(owner.items()):
                    hit = originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patched.append((owner, key, value))
                        owner[key] = hit[1]

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            owner[key] = original
        self._patched.clear()

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """op -> span name -> {calls, self_s, incl_s, count}."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            _, start, end, parent, _, _ = span
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[int, dict[str, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "count": 0}))
        for idx, (name_id, start, end, _, op, count) in enumerate(self.spans):
            row = table[op][self.names[name_id]]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child_time[idx]
            row["count"] += count
        return table

    def write(self, path) -> None:
        """Dump every span as CSV: name,start_s,end_s,parent,op,count."""
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op,count\n")
            for idx, (name_id, start, end, parent, op, count) in enumerate(self.spans):
                fh.write(f"{idx},{self.names[name_id]},{start!r},{end!r},{parent},{op},{count}\n")


def layer_metrics(tracer: Tracer, traced_ops: list[int]) -> dict[str, float]:
    """Per-operation layer figures over the traced operations.

    Times are the median over traced operations of the per-operation sum;
    calls and computed counts are the mean per operation.  Names that never
    appeared read zero.
    """
    table = tracer.per_op()
    ops = traced_ops or [-1]
    field_of = {"s": "incl_s", "self_s": "self_s", "calls": "calls"}
    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        span, _, kind = metric.rpartition(".")
        field = field_of.get(kind, "count")  # else a computed count: flops or bytes
        # "algebra" has no span of its own: it sums every "algebra.<fn>" span
        values = [sum(row[field] for name, row in table[op].items()
                      if name == span or name.startswith(span + "."))
                  for op in ops]
        reduce = statistics.median if field.endswith("_s") else statistics.fmean
        out[metric] = float(reduce(values))
    return out
