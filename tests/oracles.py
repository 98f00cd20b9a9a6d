"""Independent oracles shared by the test modules."""

import json
import math

import numpy as np

from qeslattice.momentum import (MomentumLabel, _has_antipodal_pair, _roots, momentum_values,
                                 two_quanta_seed_count)
from qeslattice.spectra import MAX_BYTES, _admit


def quanta_tag(vector, basis):
    """Dominant total-quanta sector of a vector over an occupation basis,
    read off its weight in each sector; ties go to the lowest sector.  The
    oracle for :func:`qeslattice.spectra.quanta_tags`, which reads the same
    weights in block coordinates."""
    best_n, best_mass = 0, -1.0
    for n in basis.sectors:
        idx = basis.sector_indices(n)
        mass = float(np.sum(np.abs(vector[idx.start : idx.stop]) ** 2))
        if mass > best_mass:
            best_n, best_mass = n, mass
    return best_n


def largest_admitted(f, keeps_vectors, per_point=False):
    """The most couplings ``spectra._admit`` admits on a ring of ``f``
    sites, found by bisection on its verdict alone."""
    def admits(n):
        try:
            _admit(f, n, keeps_vectors, per_point)
        except ValueError:
            return False
        return True
    lo, hi = 0, 1
    while admits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admits(mid) else (lo, mid)
    return lo


def refusal(n, f):
    """A pattern of the error ``spectra._admit`` raises for ``n``
    couplings on a ring of ``f`` sites: the predicted and the allowed MB."""
    return (fr"{n} couplings on f = {f} sites need about (\d+\.\d\d|inf) MB, "
            fr"more than the {MAX_BYTES / 1e6:.2f} MB budget")


def pencil_parts(stack):
    """``(B_BH, B_drive)`` of every row of a ``momentum.PencilStack``, dense,
    as ``(B(0), B(1) - B(0))`` of its writer.  Both are exact: the
    difference is ``+0.0`` on every ``B_BH`` entry and ``drive`` on the
    arm, and ``B(0)`` differs from ``B_BH`` only in the sign of a zero."""
    b_bh = stack.matrices(slice(None), 0.0)
    return b_bh, stack.matrices(slice(None), 1.0) - b_bh


def pencil_fields(f, gamma):
    """The stacks of ``momentum.pencil_stacks(f, gamma)`` as it built them
    before their ``gamma``-free part was kept per ring: every field from
    scratch at ``gamma``, ``diag[:, 0] = -gamma`` (``(-gamma) - 4.0`` at
    ``f = 1``), one dict of fields per stack, and under ``"blocks"`` the
    ``(label, phases)`` pairs of each row, a mirror ``-nu`` made with a new
    label and conjugated phases.  The oracle of the skeleton and its shift."""
    sqrt2 = math.sqrt(2.0)
    shapes = {}
    for label in momentum_values(f):
        if label.nu >= 0:
            shapes.setdefault((label.nu == 0, _has_antipodal_pair(f, label.nu)), []).append(label)
    root = _roots(2 * f)
    stacks = []
    for labels in shapes.values():
        nu = np.array([label.nu for label in labels])[:, None]
        vacuum, antipodal = int(labels[0].nu == 0), _has_antipodal_pair(f, labels[0].nu)
        s = np.arange(two_quanta_seed_count(f) - (f % 2 == 0 and not antipodal))
        head = -(root[2 * nu % (2 * f)] + root[-2 * nu % (2 * f)])[:, 0].real
        diag = np.zeros((len(labels), s.size))
        diag[:, 0] = -gamma
        if f == 1:
            diag[:, 0] -= 4.0
        elif f % 2 == 1:
            diag[:, -1] = -(root[-nu * (f + 1) % (2 * f)] + root[-nu * (f - 1) % (2 * f)])[:, 0].real
        hop = np.repeat(-2.0 * root[nu % (2 * f)].real, s.size - 1, axis=1)
        if f == 2:
            hop[:] = -4.0
        elif hop.shape[1]:
            hop[:, 0] *= sqrt2
            if antipodal:
                hop[:, -1] *= sqrt2
        gauge = root[nu * s % (2 * f)]
        drive = np.empty((len(labels), vacuum + s.size))
        drive[:, vacuum:] = -2.0 * gauge.real
        drive[:, vacuum] = -sqrt2
        if antipodal:
            drive[:, -1] = -sqrt2 * gauge[:, -1].real
        if vacuum:
            drive[:, 0] = -2.0 * math.sqrt(f)
        phases = np.ones((len(labels), 1 + vacuum + s.size), dtype=complex)
        phases[:, 1 + vacuum:] = gauge
        blocks = [[(label, row)] + ([(MomentumLabel(f=f, nu=-label.nu), row.conj())]
                                    if 0 < 2 * label.nu < f else [])
                  for label, row in zip(labels, phases)]
        stacks.append({"labels": tuple(labels), "quanta": np.array([0] * vacuum + [1] + [2] * s.size),
                       "phases": phases, "head": head, "diag": diag, "hop": hop, "drive": drive,
                       "blocks": blocks})
    return stacks


def soliton_band(result):
    """``(minima, margin, per_nu_margin)`` of ``spectra.soliton_band`` as
    it read them before it kept one level a block: the margin is the least
    of every level above a block's lowest, gathered into one list."""
    minima, rest, gaps = [], [], []
    for bs in result.blocks:
        w = bs.eigenvalues
        minima.append((bs.label.nu, float(w[0])))
        if w.size > 1:
            rest.extend(w[1:].tolist())
            gaps.append(float(w[1] - w[0]))
    band_max = max(e for _, e in minima)
    margin = (min(rest) - band_max) if rest else float("inf")
    return tuple(minima), float(margin), min(gaps) if gaps else float("inf")


def emit(results, fmt, out, band):
    """The level writer of ``qeslattice.cli`` as it was before it formatted
    each mirror block once: the CSV fills one ``%``-template of every block
    per sweep at each coupling, and the JSON is ``json.dumps(records,
    indent=2)`` of one block of records at a time, so every level is
    formatted, and every JSON number encoded, on its own.  The oracle of
    ``cli._emit``."""
    def fmt12(x):
        return f"{float(x):.12g}"
    if fmt == "json":
        sep = "[\n"
        for result in results:
            for j, lam in enumerate(result.lambdas.tolist()):
                for bs in result.blocks:
                    common = {"f": result.f, "gamma": float(fmt12(result.gamma)),
                              "lambda": float(fmt12(lam)), "nu": bs.label.nu,
                              "k": float(fmt12(2.0 * np.pi * bs.label.nu / result.f))}
                    records = [dict(common, level=level, n_tag=tag, energy=float(fmt12(energy)),
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
        for lam, energies in zip(result.lambdas.tolist(),
                                 np.hstack([bs.energies for bs in result.blocks]).tolist()):
            cells = [fmt12(lam)] * (2 * len(energies))
            cells[1::2] = energies
            out.write(template % tuple(cells))
