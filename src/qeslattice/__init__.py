"""Exact diagonalization of a quasi-exactly-solvable Bose-Hubbard ring.

The Hamiltonian ``H = H_BH + H_lam`` adds a number-dependent drive to the
Bose-Hubbard ring; the drive leaves the 0/1/2-quanta subspace invariant, so
that part of the spectrum is computable exactly.  Translation symmetry
splits the restricted Hamiltonian into small Hermitian momentum blocks,
whose spectra, characteristic polynomials and eigenstates this package
constructs and verifies.

``import qeslattice`` loads no submodule; each exported name is imported on
first access (PEP 562), so a solve never loads the oracles of ``ops``.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "fock": "FockBasis at_most enumerate_basis exactly translate",
    "momentum": "MomentumLabel PencilStack block_dimensions momentum_values pencil_stacks "
                "project_block to_orbit_frame",
    "spectra": "BlockSpectrum SolitonBand SpectrumResult SweepResult eigh_checked "
               "hermiticity_defect quanta_tags solve_spectra solve_spectrum soliton_band sweep",
    "ops": "annihilation creation commutator apply_hamiltonian hamiltonian_pencil "
           "build_number build_translation sector_block BlockPencil "
           "brute_force_eigenvalues build_momentum_vectors orbit_block_pencil",
    "suites": "verify_eigenvector_formulas",
}.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS.values(), "algebra", "cli", "reference", "report"}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
