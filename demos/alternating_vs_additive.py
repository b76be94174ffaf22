"""The historical alternating method next to its matrix-free descendants.

Two overlapping pieces of the unit interval, solved by sweeping local
Dirichlet problems (sequentially or simultaneously), then the same
problem handed to the additive one-level preconditioners. The additive
variant overcounts corrections in the overlap, so its stationary loop
stalls at the eigenvalue 2 mode and only works under a Krylov method;
the restricted variant converges on its own.
"""

from ddmlab import decompose, discretize, krylov, schwarz


def main():
    m, split, sweeps = 31, 16, 8
    histories = schwarz.alternating_schwarz_1d(m, split, sweeps)
    print(f"alternating method, {m} nodes split at {split}, max-norm errors:")
    print(f"{'sweep':>6} {'gauss_seidel':>14} {'jacobi':>14}")
    for k in range(sweeps + 1):
        gs = histories["gauss_seidel"][k]
        ja = histories["jacobi"][k]
        print(f"{k:>6} {gs:>14.3e} {ja:>14.3e}")

    system = discretize.poisson_1d(m)
    part = decompose.cartesian_partition(m, 2)
    dec = decompose.expand_overlap(system.A, part, 1)
    M_asm = schwarz.one_level(system.A, dec, "asm")
    M_ras = schwarz.one_level(system.A, dec, "ras")

    print("\nsame split, stationary iteration (tol 1e-6, maxit 500):")
    for variant, M in (("asm", M_asm), ("ras", M_ras)):
        x, rep = schwarz.richardson(system.A, system.F, M, tol=1e-6, maxit=500)
        state = "converged" if rep.converged else "stalled"
        print(f"  {variant:>4}: {state} after {rep.iterations} iterations, "
              f"final relative residual {rep.final_relres:.2e}")

    print("\nsame split, Krylov acceleration:")
    x, rep = krylov.pcg(system.A, system.F, M_asm, tol=1e-6, maxit=100)
    print(f"  asm + conjugate gradients: {rep.iterations} iterations")
    x, rep = krylov.gmres(system.A, system.F, M_ras, side="right",
                          tol=1e-6, maxit=100)
    print(f"  ras + gmres (right):       {rep.iterations} iterations")


if __name__ == "__main__":
    main()
