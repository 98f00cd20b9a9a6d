"""Independent oracles shared by the test modules."""

import numpy as np

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
