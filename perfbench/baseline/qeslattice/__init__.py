"""Exact diagonalization of a quasi-exactly-solvable Bose-Hubbard ring.

The Hamiltonian ``H = H_BH + H_lam`` adds a number-dependent drive to the
Bose-Hubbard ring; the drive leaves the 0/1/2-quanta subspace invariant, so
that part of the spectrum is computable exactly.  Translation symmetry
splits the restricted Hamiltonian into small Hermitian momentum blocks,
whose spectra, characteristic polynomials and eigenstates this package
constructs and verifies.
"""

from .fock import FockBasis, Selector, at_most, enumerate_basis, exactly, state_index, translate
from .momentum import (MomentumBlock, MomentumLabel, assemble_h_r, block_dimensions,
                       build_momentum_vectors, closed_form_h12, closed_form_h22,
                       momentum_values, project_block)
from .ops import (LinearOperator, annihilation, anticommutator, build_h_bh,
                  build_h_lambda, build_hamiltonian, build_number, build_translation,
                  commutator, creation, restrict_to_quanta, sector_block)
from .spectra import (BlockSpectrum, SolitonBand, SpectrumResult, SweepResult,
                      brute_force_eigenvalues, char_poly, diagonalize, quanta_tag,
                      solve_spectrum, soliton_band, sweep, verify_eigenvector_formulas)

__version__ = "0.1.0"

__all__ = [
    "FockBasis", "Selector", "at_most", "enumerate_basis", "exactly",
    "state_index", "translate",
    "LinearOperator", "annihilation", "creation", "anticommutator", "commutator",
    "build_h_bh", "build_h_lambda", "build_hamiltonian", "build_number",
    "build_translation", "restrict_to_quanta", "sector_block",
    "MomentumBlock", "MomentumLabel", "assemble_h_r", "block_dimensions",
    "build_momentum_vectors", "closed_form_h12", "closed_form_h22",
    "momentum_values", "project_block",
    "BlockSpectrum", "SolitonBand", "SpectrumResult", "SweepResult",
    "brute_force_eigenvalues", "char_poly", "diagonalize", "quanta_tag",
    "solve_spectrum", "soliton_band", "sweep", "verify_eigenvector_formulas",
    "__version__",
]
