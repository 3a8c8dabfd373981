"""Numerical laboratory for lattice Schrodinger dynamics with weak disorder.

Modules:

* :mod:`qdlab.lattice` -- torus grids, disorder fields, Hamiltonian applies.
* :mod:`qdlab.propagation` -- certified Chebyshev time evolution, spread
  trajectories, collision-operator expansions, operator-norm estimation.
* :mod:`qdlab.spectral` -- dense diagonalization, smooth spectral cutoffs,
  resolvent columns, Ward checks.
* :mod:`qdlab.diffusion` -- the self-consistent spectral shift, collision
  kernels, Green-operator predictions, kernel random walks.
* :mod:`qdlab.random_matrix` -- GOE benchmarks, Gaussian series norm
  concentration, matrix inequalities, integration-by-parts identities.
* :mod:`qdlab.harness` -- INI-configured experiment runner and CSV output.
"""

__version__ = "0.1.0"

from .errors import NonConvergenceError, OrderOverflowError
from .lattice import ComplexField, DisorderField, HamiltonianSpec, TorusGrid

__all__ = [
    "__version__",
    "NonConvergenceError",
    "OrderOverflowError",
    "ComplexField",
    "DisorderField",
    "HamiltonianSpec",
    "TorusGrid",
]
