"""Exact diagonalization of a quasi-exactly-solvable Bose-Hubbard ring.

The Hamiltonian ``H = H_BH + H_lam`` adds a number-dependent drive to the
Bose-Hubbard ring; the drive leaves the 0/1/2-quanta subspace invariant, so
that part of the spectrum is computable exactly.  Translation symmetry
splits the restricted Hamiltonian into small Hermitian momentum blocks,
whose spectra, characteristic polynomials and eigenstates this package
constructs and verifies.
"""

from .fock import FockBasis, Selector, at_most, enumerate_basis, exactly, translate
from .momentum import (BlockPencil, MomentumLabel, PencilStack, block_dimensions, block_frame,
                       build_momentum_vectors, momentum_values, orbit_block_pencil,
                       pencil_stacks, project_block, to_orbit_frame)
from .ops import (annihilation, apply_hamiltonian, build_h_bh, build_h_lambda,
                  build_hamiltonian, build_number, build_translation, commutator,
                  creation, hermiticity_defect, sector_block)
from .spectra import (BlockSpectrum, SolitonBand, SpectrumResult, SweepResult,
                      brute_force_eigenvalues, char_poly, eigh_checked, quanta_tags,
                      solve_spectra, solve_spectrum, soliton_band, sweep,
                      verify_eigenvector_formulas)

__version__ = "0.1.0"

__all__ = [
    "FockBasis", "Selector", "at_most", "enumerate_basis", "exactly", "translate",
    "annihilation", "creation", "commutator", "apply_hamiltonian", "build_h_bh",
    "build_h_lambda", "build_hamiltonian", "build_number", "build_translation",
    "hermiticity_defect", "sector_block",
    "BlockPencil", "MomentumLabel", "PencilStack", "block_dimensions", "block_frame",
    "build_momentum_vectors", "momentum_values", "orbit_block_pencil", "pencil_stacks", "project_block", "to_orbit_frame",
    "BlockSpectrum", "SolitonBand", "SpectrumResult", "SweepResult",
    "brute_force_eigenvalues", "char_poly", "eigh_checked", "quanta_tags", "solve_spectra",
    "solve_spectrum", "soliton_band", "sweep", "verify_eigenvector_formulas",
    "__version__",
]
