"""Overlapping Schwarz domain decomposition preconditioners at desk scale.

The package is organized bottom-up:

- ``linalg``: CSR construction, dense LAPACK and sparse SuperLU
  factorizations, and the generalized symmetric eigensolver.
- ``discretize``: model problems (1D/2D finite-difference Poisson, P1 finite
  element diffusion with retained element matrices, 2D Helmholtz with
  optional absorption and impedance boundary).
- ``decompose``: partitions, overlap growth, the stacked restriction
  operator, partitions of unity, subdomain geometry statistics and
  coloring.
- ``schwarz``: one-level preconditioners (ASM, RAS, ORAS, SORAS), the
  Richardson driver, and the classical 1D alternating method.
- ``coarse``: Nicolaides, spectral (GenEO style) and grid coarse spaces plus
  the coarse-correction combinators yielding two-level preconditioners.
- ``krylov``: CG, preconditioned CG, and full GMRES with left/right
  preconditioning.
- ``analysis``: dense spectral diagnostics and theoretical bound checks.
- ``bench``: JSON-configured scenario runner, suite tables, and the CLI.
"""

from . import analysis, bench, coarse, decompose, discretize, krylov, linalg, schwarz

__all__ = [
    "analysis",
    "bench",
    "coarse",
    "decompose",
    "discretize",
    "krylov",
    "linalg",
    "schwarz",
]

__version__ = "0.1.0"
