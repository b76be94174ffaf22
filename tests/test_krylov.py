"""Oracle tests for the CG, PCG, and GMRES drivers.

Condition numbers feeding the error envelopes are computed independently
with numpy eigensolvers inside the tests.
"""

import tracemalloc

import numpy as np
import pytest

from ddmlab import decompose, discretize, krylov, linalg, schwarz


def identity_csr(n):
    return linalg.csr_from_triplets(n, n, np.arange(n), np.arange(n), np.ones(n))


def energy_envelope(kappa, k):
    q = (np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)
    return 2 * q**k


class TestCg:
    def test_identity_one_iteration(self):
        A = identity_csr(5)
        b = np.arange(1.0, 6.0)
        x, rep = krylov.cg(A, b)
        assert rep.iterations == 1 and rep.converged
        np.testing.assert_allclose(x, b, atol=1e-12)

    def test_two_distinct_eigenvalues_finite_termination(self):
        A = linalg.csr_from_triplets(2, 2, [0, 1], [0, 1], [1.0, 2.0])
        b = np.array([1.0, 1.0])
        x, rep = krylov.cg(A, b, tol=1e-12)
        assert rep.iterations <= 2
        np.testing.assert_allclose(x, [1.0, 0.5], atol=1e-10)

    def test_poisson_1d_iterations_and_envelope(self):
        sys = discretize.poisson_1d(20)
        x_star = np.linalg.solve(sys.A.toarray(), sys.F)
        x, rep = krylov.cg(sys.A, sys.F, tol=1e-10, maxit=50, x_star=x_star)
        assert rep.converged and rep.iterations <= 20
        vals = np.linalg.eigvalsh(sys.A.toarray())
        kappa = vals[-1] / vals[0]
        e = rep.energy_errors
        for k in range(len(e)):
            assert e[k] <= energy_envelope(kappa, k) * e[0] + 1e-10

    def test_history_contract(self):
        sys = discretize.poisson_1d(12)
        x0 = np.linspace(0, 1, 12)
        x, rep = krylov.cg(sys.A, sys.F, x0=x0, tol=1e-8)
        assert len(rep.residual_history) == rep.iterations + 1
        assert rep.residual_history[0] == pytest.approx(
            np.linalg.norm(sys.F - sys.A @ x0)
        )
        assert rep.final_relres <= 1e-8

    def test_breakdown_on_indefinite(self):
        A = linalg.csr_from_triplets(2, 2, [0, 1], [0, 1], [1.0, -1.0])
        with pytest.raises(krylov.KrylovBreakdownError):
            krylov.cg(A, np.array([0.0, 1.0]))

    def test_residual_orthogonality(self):
        sys = discretize.poisson_1d(15)
        x, rep = krylov.cg(sys.A, sys.F, tol=1e-10, keep_iterates=True)
        xs = rep.iterates
        rs = [sys.F - sys.A @ xk for xk in xs]
        for k in range(len(rs) - 1):
            assert abs(rs[k + 1] @ rs[k]) <= 1e-8 * np.linalg.norm(rs[0]) ** 2


class TestPcg:
    def test_exact_preconditioner_one_iteration(self):
        sys = discretize.poisson_1d(9)
        M = linalg.dense_cholesky_factor(sys.A.toarray())
        x, rep = krylov.pcg(sys.A, sys.F, M)
        assert rep.iterations == 1 and rep.converged
        np.testing.assert_allclose(sys.A @ x, sys.F, atol=1e-9)

    def test_jacobi_preconditioner_envelope(self):
        sys = discretize.poisson_2d_fd(8, 8)
        d = sys.A.diagonal()
        M = lambda r: r / d
        x_star = np.linalg.solve(sys.A.toarray(), sys.F)
        x, rep = krylov.pcg(sys.A, sys.F, M, tol=1e-10, x_star=x_star)
        assert rep.converged
        Ad = sys.A.toarray()
        C = np.diag(1 / d) @ Ad
        vals = np.sort(np.real(np.linalg.eigvals(C)))
        kappa = vals[-1] / vals[0]
        e = rep.energy_errors
        for k in range(len(e)):
            assert e[k] <= energy_envelope(kappa, k) * e[0] + 1e-10

    def test_breakdown_on_indefinite_preconditioner(self):
        sys = discretize.poisson_1d(6)
        M = lambda r: -r
        with pytest.raises(krylov.KrylovBreakdownError):
            krylov.pcg(sys.A, sys.F, M)

    def test_true_final_relres_recomputed(self):
        # 1D Poisson, 1024 dofs, 32 subdomains, one-level ASM (the N32-one
        # suite point): the recorded history is recursive and ends about
        # two orders of magnitude below the true relative residual.
        sys = discretize.poisson_1d(1024)
        dec = decompose.expand_overlap(
            sys.A, decompose.cartesian_partition(1024, 32), 1)
        M = schwarz.one_level(sys.A, dec, "asm")
        x, rep = krylov.pcg(sys.A, sys.F, M, tol=1e-6, maxit=1000)
        assert rep.converged and rep.final_relres <= 1e-6
        true = np.linalg.norm(sys.F - sys.A @ x) / np.linalg.norm(sys.F)
        assert rep.true_final_relres == pytest.approx(true, rel=1e-12)
        assert rep.to_dict()["true_final_relres"] == rep.true_final_relres
        assert 1e-11 < true < 1e-10
        assert rep.final_relres < true / 10

    def test_true_final_relres_equals_history_for_gmres(self):
        sys = discretize.poisson_2d_fd(8, 8)
        x, rep = krylov.gmres(sys.A, sys.F, tol=1e-10)
        true = np.linalg.norm(sys.F - sys.A @ x) / np.linalg.norm(sys.F)
        assert rep.true_final_relres == rep.final_relres
        assert rep.final_relres == pytest.approx(true, rel=1e-12)


# GMRES on either side, and with M=None under the id "none"
SIDES_AND_NONE = [*krylov.SIDES, pytest.param(None, id="none")]


def gmres_on(A, b, M, side, **kwargs):
    """``krylov.gmres`` with M on ``side``, or with M=None when side is None."""
    if side is None:
        return krylov.gmres(A, b, None, **kwargs)
    return krylov.gmres(A, b, M, side=side, **kwargs)


def oracle_residuals(A, b, x0, M, side, steps):
    """Minimal residuals over x0 + K_k, k = 1..steps, from a dense oracle.

    The Krylov basis is orthonormalized by ``np.linalg.qr`` one column at
    a time, and each minimizer is a ``lstsq`` solve over it: the right
    side and a side of None (no preconditioner) minimize ``||b - A x||``,
    the left side ``||M(b - A x)||``. Returns the minimizing residual
    vectors, which are unique even when the minimizers are not.
    """
    A = A.toarray()
    prec = (lambda v: v) if side is None else M.apply
    r0 = b - A @ x0
    t = prec(r0) if side == "left" else r0
    op = {"left": lambda v: prec(A @ v), "right": lambda v: A @ prec(v),
          None: lambda v: A @ v}[side]
    W = (t / np.linalg.norm(t))[:, None]
    residuals = []
    for k in range(1, steps + 1):
        if k > 1:
            W, _ = np.linalg.qr(np.column_stack([W, op(W[:, -1])]))
        S = np.column_stack([prec(w) for w in W.T]) if side == "right" else W
        AS = np.column_stack([op(w) for w in W.T])
        y = np.linalg.lstsq(AS, t, rcond=None)[0]
        r = b - A @ (x0 + S @ y)
        residuals.append(prec(r) if side == "left" else r)
    return residuals


def minimizer_case(kind):
    """A system, a one-level preconditioner and a start for the oracle."""
    if kind == "poisson":
        sys = discretize.poisson_2d_fd(10, 10)
        dec = decompose.expand_overlap(
            sys.A, decompose.cartesian_partition(sys.grid, 2, 2), 1)
        M = schwarz.one_level(sys.A, dec, "ras")
    else:
        grid = discretize.StructuredGrid(2, nx=9, ny=9)
        sys = discretize.helmholtz_2d(grid, omega=8.0, boundary="impedance")
        # the impedance system includes boundary nodes: split by coordinates
        half = (sys.coords >= 0.5).astype(int)
        dec = decompose.expand_overlap(sys.A, half[:, 0] + 2 * half[:, 1], 1)
        M = schwarz.one_level(sys.A, dec, "oras", p=8j, h=sys.h, dim=2)
    x0 = np.linspace(0.0, 1.0, sys.F.shape[0]).astype(sys.F.dtype)
    return sys, M, x0


class TestGmres:
    @pytest.mark.parametrize("side", SIDES_AND_NONE)
    @pytest.mark.parametrize("kind", ["poisson", "helmholtz-oras"])
    def test_every_iterate_is_the_minimizer(self, kind, side):
        sys, M, x0 = minimizer_case(kind)
        x, rep = gmres_on(sys.A, sys.F, M, side, x0=x0, tol=1e-10,
                          keep_iterates=True)
        assert rep.iterations > 5
        oracle = oracle_residuals(sys.A, sys.F, x0, M, side, rep.iterations)
        prec = M.apply if side == "left" else (lambda v: v)
        scale = np.linalg.norm(prec(sys.F - sys.A @ x0))
        for xk, r_min in zip(rep.iterates, oracle):
            r = prec(sys.F - sys.A @ xk)
            assert np.linalg.norm(r - r_min) <= 1e-10 * scale
        assert rep.converged

    @pytest.mark.parametrize("side", SIDES_AND_NONE)
    def test_memory_follows_iterations_run(self, side):
        # maxit = n: a Hessenberg array sized by maxit would take
        # 2026 x 2025 doubles (33 MB) against bases of under 1.2 MB
        sys = discretize.poisson_2d_fd(45, 45)
        part = decompose.cartesian_partition(sys.grid, 3, 3)
        M = schwarz.one_level(sys.A, decompose.expand_overlap(sys.A, part, 1), "ras")
        n = sys.F.shape[0]
        tracemalloc.start()
        try:
            x, rep = gmres_on(sys.A, sys.F, M, side, maxit=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged
        bases = (rep.iterations + 1) * n * sys.F.itemsize * (2 if side == "right" else 1)
        assert peak <= 3 * bases

    @pytest.mark.parametrize("zero", [lambda r: 0 * r, np.zeros_like],
                             ids=["zero-times-r", "zeros_like"])
    def test_zero_preconditioned_residual_raises_breakdown(self, zero):
        sys = discretize.poisson_1d(10)
        with pytest.raises(krylov.KrylovBreakdownError,
                           match="preconditioned initial residual M r0 is zero"):
            krylov.gmres(sys.A, sys.F, zero, side="left")

    def test_identity_one_iteration(self):
        A = identity_csr(4)
        b = np.array([1.0, 2.0, 3.0, 4.0])
        x, rep = krylov.gmres(A, b)
        assert rep.iterations == 1 and rep.converged
        np.testing.assert_allclose(x, b, atol=1e-12)

    def test_permutation_two_iterations(self):
        A = linalg.csr_from_triplets(2, 2, [0, 1], [1, 0], [1.0, 1.0])
        b = np.array([1.0, 0.0])
        x, rep = krylov.gmres(A, b, tol=1e-12)
        assert rep.iterations == 2
        np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-12)

    def test_monotone_history_and_true_residuals(self):
        sys = discretize.poisson_2d_fd(7, 7)
        x, rep = krylov.gmres(sys.A, sys.F, tol=1e-8, keep_iterates=True)
        h = rep.residual_history
        assert all(h[k + 1] <= h[k] + 1e-12 * h[0] for k in range(len(h) - 1))
        for k, xk in enumerate(rep.iterates):
            true = np.linalg.norm(sys.F - sys.A @ xk)
            assert abs(true - h[k + 1]) <= 1e-10 * max(true, h[0])

    def test_right_preconditioned_history_is_true_residual(self):
        sys = discretize.poisson_2d_fd(6, 6)
        d = sys.A.diagonal()
        M = lambda r: r / d
        x, rep = krylov.gmres(sys.A, sys.F, M, side="right", tol=1e-9, keep_iterates=True)
        for k, xk in enumerate(rep.iterates):
            true = np.linalg.norm(sys.F - sys.A @ xk)
            assert abs(true - rep.residual_history[k + 1]) <= 1e-10 * max(true, rep.residual_history[0])

    def test_left_right_same_solution(self):
        sys = discretize.poisson_2d_fd(6, 6)
        d = sys.A.diagonal()
        M = lambda r: r / d
        xl, repl = krylov.gmres(sys.A, sys.F, M, side="left", tol=1e-10)
        xr, repr_ = krylov.gmres(sys.A, sys.F, M, side="right", tol=1e-10)
        assert repl.converged and repr_.converged
        assert np.linalg.norm(xl - xr) <= 1e-8 * np.linalg.norm(xr)

    def test_agrees_with_pcg_on_spd(self):
        sys = discretize.poisson_2d_fd(7, 7)
        d = sys.A.diagonal()
        M = lambda r: r / d
        xg, _ = krylov.gmres(sys.A, sys.F, M, side="right", tol=1e-10)
        xp, _ = krylov.pcg(sys.A, sys.F, M, tol=1e-10)
        assert np.linalg.norm(xg - xp) <= 1e-7 * np.linalg.norm(xp)

    def test_complex_system(self):
        grid = discretize.StructuredGrid(2, nx=8, ny=8)
        sys = discretize.helmholtz_2d(grid, omega=6.0, xi=36.0, boundary="impedance")
        x, rep = krylov.gmres(sys.A, sys.F, tol=1e-8, maxit=200)
        assert rep.converged
        assert np.linalg.norm(sys.F - sys.A @ x) <= 1e-7 * np.linalg.norm(sys.F)

    def test_maxit_flag(self):
        sys = discretize.poisson_2d_fd(10, 10)
        x, rep = krylov.gmres(sys.A, sys.F, tol=1e-12, maxit=5)
        assert not rep.converged
        assert rep.iterations == 5

    def test_invalid_side_rejected(self):
        A = identity_csr(3)
        with pytest.raises(ValueError):
            krylov.gmres(A, np.ones(3), side="middle")

    @pytest.mark.parametrize("M", [None, lambda r: r], ids=["M=None", "M"])
    def test_side_none_rejected(self, M):
        # no preconditioner is M=None, not a side that ignores M
        assert krylov.SIDES == ("left", "right")
        with pytest.raises(ValueError, match="unknown preconditioning side 'none'"):
            krylov.gmres(identity_csr(3), np.ones(3), M, side="none")

    @pytest.mark.parametrize("side, extra", [("right", 0), ("left", 1),
                                             pytest.param(None, None, id="none-None")])
    def test_preconditioner_applies_per_iteration(self, side, extra):
        # right: one apply per iteration (Z = M V); left: one per
        # iteration plus one for the initial residual; M=None: no apply
        # (the counting M is then used by no solve). Every history entry
        # is the true residual of its iterate.
        sys = discretize.poisson_2d_fd(12, 12)
        part = decompose.cartesian_partition(sys.grid, 3, 3)
        M1 = schwarz.one_level(sys.A, decompose.expand_overlap(sys.A, part, 1), "asm")
        calls = []

        def counting(r):
            calls.append(r.shape)
            return M1.apply(r)

        x0 = np.linspace(0.0, 1.0, sys.F.shape[0])
        x, rep = gmres_on(sys.A, sys.F, counting, side, x0=x0, tol=1e-8,
                          keep_iterates=True)
        assert rep.converged and rep.iterations > 5
        assert len(calls) == (0 if extra is None else rep.iterations + extra)
        assert all(shape == sys.F.shape for shape in calls)
        h = rep.residual_history
        assert h[0] == np.linalg.norm(sys.F - sys.A @ x0)
        for k, xk in enumerate(rep.iterates):
            assert abs(np.linalg.norm(sys.F - sys.A @ xk) - h[k + 1]) <= 1e-13 * h[0]
        np.testing.assert_array_equal(x, rep.iterates[-1])

    def test_singular_hessenberg_raises_breakdown(self):
        # A e1 = 0: the first Arnoldi step leaves H = [[0], [0]]
        A = linalg.csr_from_triplets(2, 2, [0], [1], [1.0])
        with pytest.raises(krylov.KrylovBreakdownError, match="singular"):
            krylov.gmres(A, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_preconditioner_raises_breakdown(self, side, bad):
        sys = discretize.poisson_1d(10)
        calls = []

        def M(r):
            calls.append(1)
            z = r.copy()
            if len(calls) == 3:
                z[4] = bad
            return z

        with pytest.raises(krylov.KrylovBreakdownError, match="NaN or Inf"):
            krylov.gmres(sys.A, sys.F, M, side=side, tol=1e-12)

    @pytest.mark.parametrize("side", SIDES_AND_NONE)
    @pytest.mark.parametrize("where", ["matrix", "arnoldi"])
    def test_nonfinite_operator_raises_breakdown(self, side, where):
        sys = discretize.poisson_1d(8)
        d = sys.A.diagonal()
        if where == "matrix":
            # b - A 0 is NaN already
            A = sys.A.copy()
            A.data[3] = np.nan
        else:
            # b - A 0 is finite, the first Arnoldi product is not; on the
            # left the preconditioner's own check meets it first
            A = lambda v: sys.A @ v if not v.any() else np.full_like(v, np.nan)
        match = "preconditioner" if (where, side) == ("arnoldi", "left") else "operator"
        with pytest.raises(krylov.KrylovBreakdownError, match=f"{match} returned NaN or Inf"):
            gmres_on(A, sys.F, lambda r: r / d, side)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_complex_preconditioner_on_real_system_raises(self, side):
        # casting M's output to the real basis would drop its imaginary
        # part; a complex right-hand side makes the solve complex instead
        sys = discretize.poisson_2d_fd(6, 6)
        d = sys.A.diagonal()
        M = lambda r: (1.0 + 0.5j) * r / d
        with pytest.raises(TypeError):
            krylov.gmres(sys.A, sys.F, M, side=side)
        b = sys.F.astype(complex)
        x, rep = krylov.gmres(sys.A, b, M, side=side, tol=1e-10)
        assert rep.converged and x.dtype == complex
        assert np.linalg.norm(sys.F - sys.A @ x) <= 1e-9 * np.linalg.norm(sys.F)


@pytest.mark.parametrize("method", ["cg", "pcg", "gmres", "richardson"])
def test_complex_start_on_real_system_solves_in_complex(method):
    # the solve takes the dtype of b - A x0: no imaginary part is dropped
    sys = discretize.poisson_1d(8)
    d = sys.A.diagonal()
    x0 = np.full(sys.n, 1.0 + 1.0j)
    M = lambda r: r / d
    solve = {"cg": lambda: krylov.cg(sys.A, sys.F, x0=x0),
             "pcg": lambda: krylov.pcg(sys.A, sys.F, M, x0=x0),
             "gmres": lambda: krylov.gmres(sys.A, sys.F, M, x0=x0),
             "richardson": lambda: schwarz.richardson(sys.A, sys.F, M, x0=x0, maxit=5)}
    x, rep = solve[method]()
    assert x.dtype == np.complex128
    assert rep.residual_history[0] == np.linalg.norm(sys.F - sys.A @ x0)
    np.testing.assert_array_equal(x0, 1.0 + 1.0j)


@pytest.mark.parametrize("method", ["pcg", "richardson"])
def test_complex_preconditioner_on_real_system_raises(method):
    # as in GMRES: a complex M on a real system is an error, not a switch
    # to complex arithmetic
    sys = discretize.poisson_1d(8)
    solve = {"pcg": lambda: krylov.pcg(sys.A, sys.F, lambda r: (1 + 1j) * r),
             "richardson": lambda: schwarz.richardson(
                 sys.A, sys.F, lambda r: (1e-3 + 1e-3j) * r)}
    with pytest.raises(TypeError, match="complex128 values for a float64 solve"):
        solve[method]()


def test_castable_reads_the_dtype_without_a_copy():
    z = np.ones(3)
    assert krylov.castable(z, np.float64) is z
    assert krylov.castable(z, np.complex128) is z
    with pytest.raises(TypeError):
        krylov.castable(z.astype(complex), np.float64)
