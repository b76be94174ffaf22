"""Coefficient contrast breaks one-level methods; spectral coarse spaces don't care.

Diffusion on the unit square with high-coefficient channels that end
inside the domain, split into vertical strips. As the contrast grows the
one-level condition number grows with it, while the coarse space built
from local generalized eigenproblems absorbs the bad modes and keeps
iteration counts flat.
"""

import numpy as np

from ddmlab import analysis, coarse, decompose, discretize, krylov, schwarz

CELLS, STRIPS, COUNT, TAU = 24, 8, 6, 0.5


def channel_system(contrast):
    mesh = discretize.unit_square_mesh(CELLS, CELLS)

    def alpha(c):
        in_band = int(c[1] * 2 * COUNT) % 2 == 1
        return contrast if (in_band and 0.1 <= c[0] <= 0.9) else 1.0

    return discretize.diffusion_fem_2d(mesh, alpha)


def main():
    print(f"{'contrast':>9} {'one-level':>10} {'kappa_1':>9} "
          f"{'two-level':>10} {'kappa_2':>8} {'coarse dim':>11}")
    for contrast in (1e2, 1e4, 1e6):
        system = channel_system(contrast)
        labels = np.minimum((system.coords[:, 0] * STRIPS).astype(int), STRIPS - 1)
        dec = decompose.expand_overlap(system.A, labels, 1,
                                       coords=system.coords, h=system.h)
        M1 = schwarz.one_level(system.A, dec, "asm")
        x, one = krylov.pcg(system.A, system.F, M1, tol=1e-6, maxit=500)
        cs = coarse.geneo_space(system, dec, tau=TAU)
        M2 = coarse.TwoLevelPreconditioner(M1, cs.apply_Q, system.A, "ad")
        x, two = krylov.pcg(system.A, system.F, M2, tol=1e-6, maxit=500)
        k1 = analysis.preconditioned_spectrum(system.A, M1).kappa
        k2 = analysis.preconditioned_spectrum(system.A, M2).kappa
        print(f"{contrast:>9.0e} {one.iterations:>10} {k1:>9.3g} "
              f"{two.iterations:>10} {k2:>8.3g} {cs.m0:>11}")


if __name__ == "__main__":
    main()
