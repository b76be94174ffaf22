"""Reading a preconditioned spectrum and checking the theory against it.

Builds a 2D Poisson problem with a 3x3 overlapping decomposition, prints
the dense spectrum summary of the one-level operator, the coloring upper
bound, and the conjugate gradient energy-error envelope.
"""

import numpy as np

from ddmlab import analysis, decompose, discretize, krylov, schwarz


def main():
    system = discretize.poisson_2d_fd(16, 16)
    part = decompose.cartesian_partition(system.grid, 3, 3)
    dec = decompose.expand_overlap(system.A, part, 1)
    M = schwarz.one_level(system.A, dec, "asm")

    spec = analysis.preconditioned_spectrum(system.A, M)
    print(f"spectrum path={spec.path}  lambda_min={spec.lambda_min:.4f}  "
          f"lambda_max={spec.lambda_max:.4f}  kappa={spec.kappa:.2f}")

    rec = analysis.coloring_bound_check(spec, dec.n_colors)
    print(f"coloring bound: lambda_max {rec.measured:.4f} <= "
          f"n_colors {rec.bound:.0f} + 1e-8 -> {rec.satisfied}")

    x_star = np.linalg.solve(system.A.toarray(), system.F)
    x, rep = krylov.pcg(system.A, system.F, M, tol=1e-10, maxit=200,
                        x_star=x_star)
    env = analysis.pcg_bound_envelope(rep, spec.kappa)
    print(f"pcg energy envelope over {rep.iterations} iterations: "
          f"worst excess {env.measured:.2e} -> {env.satisfied}")


if __name__ == "__main__":
    main()
