"""Why one-level methods need a coarse space.

Weak scaling on the 1D chain: each subdomain keeps 6 interior nodes
while the subdomain count doubles. One-level iteration counts grow with
the subdomain count; a single coarse vector per subdomain (weighted
indicator functions) caps them.
"""

from ddmlab import coarse, decompose, discretize, krylov, schwarz


def main():
    print(f"{'N':>4} {'dofs':>6} {'one-level':>10} {'with coarse':>12}")
    for N in (4, 8, 16, 32, 64):
        m = 6 * N
        system = discretize.poisson_1d(m)
        dec = decompose.expand_overlap(
            system.A, decompose.cartesian_partition(m, N), 1)
        M1 = schwarz.one_level(system.A, dec, "asm")
        x, one = krylov.pcg(system.A, system.F, M1, tol=1e-6, maxit=1000)
        cs = coarse.nicolaides_space(system.A, dec)
        M2 = coarse.TwoLevelPreconditioner(M1, cs, system.A, "ad")
        x, two = krylov.pcg(system.A, system.F, M2, tol=1e-6, maxit=1000)
        print(f"{N:>4} {system.n:>6} {one.iterations:>10} {two.iterations:>12}")


if __name__ == "__main__":
    main()
