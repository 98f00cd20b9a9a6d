"""Independent oracles shared by the test modules."""

import numpy as np


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
