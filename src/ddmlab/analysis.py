"""Spectral diagnostics for preconditioned operators.

Everything here is dense and deliberately capped at small sizes: the
point is to verify convergence theory numerically, not to scale. The
central object is the spectrum of M^-1 A together with a list of bound
checks (coloring, stable-splitting constants, coarse-space threshold,
conjugate gradient error envelope), each recorded as a named
bound/measured/satisfied triple so reports can be serialized.

M^-1 is assembled densely by block applies of the identity, one panel of
at most ``_PANEL`` columns at a time, so a preconditioner handed to this
module must map an (n, k) block column by column (the contract of
``krylov.as_preconditioner``). Each n x n temporary is released as soon
as the next product no longer needs it, which keeps the oracle's peak
near three dense n x n arrays.
"""

import numpy as np
import scipy.sparse as sp

from . import coarse, krylov, linalg, schwarz

DENSE_LIMIT = 2000

# identity columns per block apply when M^-1 is assembled
_PANEL = 64


class BoundRecord:
    """One theory-versus-measurement comparison."""

    def __init__(self, name, bound, measured, satisfied, details=None):
        self.name = name
        self.bound = float(bound)
        self.measured = float(measured)
        self.satisfied = bool(satisfied)
        self.details = details or {}

    def to_dict(self):
        d = {
            "name": self.name,
            "bound": self.bound,
            "measured": self.measured,
            "satisfied": self.satisfied,
        }
        if self.details:
            d["details"] = self.details
        return d

    def __repr__(self):
        flag = "ok" if self.satisfied else "VIOLATED"
        return (f"BoundRecord({self.name}: measured {self.measured:.6g} "
                f"vs bound {self.bound:.6g}, {flag})")


class SpectrumReport:
    """Eigenvalues of a preconditioned operator plus attached bound checks.

    ``eigenvalues`` is sorted by real part (a real ascending array on the
    symmetric-definite path, complex on the general path). ``kappa`` is
    the spectral condition number and is only defined on the
    symmetric-definite path; it is None otherwise.
    """

    def __init__(self, eigenvalues, path, lambda_min, lambda_max, kappa,
                 records=None):
        self.eigenvalues = np.asarray(eigenvalues)
        self.path = path
        self.lambda_min = float(lambda_min)
        self.lambda_max = float(lambda_max)
        self.kappa = None if kappa is None else float(kappa)
        self.records = list(records) if records else []

    def to_dict(self):
        if self.eigenvalues.dtype.kind == "c":
            eigs = [[float(v.real), float(v.imag)] for v in self.eigenvalues]
        else:
            eigs = [float(v) for v in self.eigenvalues]
        return {
            "path": self.path,
            "eigenvalues": eigs,
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "kappa": self.kappa,
            "records": [r.to_dict() for r in self.records],
        }

    def __repr__(self):
        kap = "n/a" if self.kappa is None else f"{self.kappa:.4g}"
        return (f"SpectrumReport(n={len(self.eigenvalues)}, path={self.path}, "
                f"lambda in [{self.lambda_min:.4g}, {self.lambda_max:.4g}], "
                f"kappa={kap}, {len(self.records)} checks)")


def _dense(A):
    n = A.shape[0]
    if n > DENSE_LIMIT:
        raise ValueError(
            f"dense spectral analysis is capped at n <= {DENSE_LIMIT}, got {n}")
    return A.toarray() if sp.issparse(A) else np.asarray(A)


def _apply_inverse(M, n, dtype):
    """Assemble M^-1 as a dense matrix, one block apply per panel of identity columns.

    Columns ``j:j + _PANEL`` of M^-1 are M applied to the same columns of
    the identity. A preconditioner maps a block column by column, so
    this equals one block apply of the whole identity, bit for bit, while
    its temporaries stay n x _PANEL.
    """
    prec = krylov.as_preconditioner(M)
    Minv = None
    for j in range(0, n, _PANEL):
        k = min(_PANEL, n - j)
        Y = np.asarray(prec(np.eye(n, k, -j, dtype=dtype)))
        if Minv is None:
            Minv = np.empty((n, n), dtype=Y.dtype)
        Minv[:, j:j + k] = Y
    return Minv


def _is_hermitian(B, rel_tol):
    """``max|B - B^H| <= rel_tol * max(max|B|, 1)``, both maxima taken by panels."""
    panels = range(0, B.shape[0], _PANEL)
    scale = max(np.max([np.abs(B[:, j:j + _PANEL]).max() for j in panels]), 1.0)
    skew = np.max([np.abs(B[:, j:j + _PANEL] - B[j:j + _PANEL].conj().T).max()
                   for j in panels])
    return skew <= rel_tol * scale


def preconditioned_spectrum(A, M=None):
    """Spectrum of M^-1 A, with M^-1 assembled by block applies of identity panels.

    When A is Hermitian positive definite and M^-1 is Hermitian the
    similar matrix L^H M^-1 L (L the Cholesky factor of A) is solved as
    a Hermitian eigenproblem, producing a real spectrum and a condition
    number. Any other combination falls back to the general dense
    eigenvalue solver and reports no condition number. Every dense
    n x n operand is dropped once the next product no longer needs it.
    """
    Ad = _dense(A)
    n = Ad.shape[0]
    Minv = _apply_inverse(M, n, Ad.dtype)

    if _is_hermitian(Ad, 1e-12) and _is_hermitian(Minv, 1e-10):
        try:
            L = np.linalg.cholesky(Ad)
        except np.linalg.LinAlgError:
            L = None
        if L is not None:
            del Ad
            W = L.conj().T @ Minv
            del Minv
            W = W @ L
            del L
            S = W + W.conj().T
            del W
            S /= 2.0
            vals = np.linalg.eigvalsh(S)
            lam_min, lam_max = float(vals[0]), float(vals[-1])
            kappa = lam_max / lam_min if lam_min > 0 else np.inf
            return SpectrumReport(vals, "spd", lam_min, lam_max, kappa)

    T = Minv @ Ad
    del Minv, Ad
    vals = np.sort_complex(np.linalg.eigvals(T))
    return SpectrumReport(vals, "general",
                          vals[0].real, vals[-1].real, None)


def richardson_spectral_radius(A, M):
    """Spectral radius of the stationary iteration matrix I - M^-1 A.

    M^-1 is assembled by block applies of identity panels, and
    ``I - M^-1 A`` is formed in place over the product ``M^-1 A``.
    """
    Ad = _dense(A)
    n = Ad.shape[0]
    Minv = _apply_inverse(M, n, Ad.dtype)
    T = Minv @ Ad
    del Minv, Ad
    np.negative(T, out=T)
    T[np.diag_indices(n)] += 1
    return float(np.abs(np.linalg.eigvals(T)).max())


def coloring_bound_check(spectrum, n_colors):
    """lambda_max <= N_c for the additive symmetric variant.

    Subdomains split into N_c classes of pairwise non-interacting sets
    bound the largest eigenvalue of the additive preconditioned operator
    M_asm^-1 A, whose spectrum is passed, by N_c.
    """
    measured = spectrum.lambda_max
    return BoundRecord("coloring", n_colors, measured, measured <= n_colors + 1e-8,
                       details={"n_colors": int(n_colors)})


def fsl_constants(system, decomposition, B):
    """Stable-splitting constants (tau_1, gamma_1, M_c, N_c).

    tau_1 is the worst (smallest) finite eigenvalue over subdomains of
    the pencil (A_j^Neu, D_j A_jj D_j), where A_j^Neu is the subdomain
    assembly without artificial boundary conditions, zero-extended to
    the overlapping set. As in the GenEO coarse space, that pencil comes
    from ``coarse.geneo_pencils`` on the dofs of nonzero weight, where
    D_j A_jj D_j is definite; the zero-weight dofs carry only its
    infinite eigenvalues. gamma_1 is the best (largest) eigenvalue of the
    full-size pencil (D_j A_jj D_j, B_j) with B_j the local solver blocks
    actually used by the preconditioner, which must be Hermitian positive
    definite, stacked in ``B`` as ``schwarz.local_operator`` stacks them.
    M_c is the partition-of-unity multiplicity and N_c the color count.
    ``system`` must be a finite element system (it needs a mesh, else
    ``discretize.UnsupportedProblemError``) on the decomposition's dofs,
    and ``B`` must have order ``offsets[-1]``, else ValueError.
    """
    offsets = decomposition.offsets
    if B.shape[0] != offsets[-1]:
        raise ValueError(f"stacked local operator has order {B.shape[0]}, but the "
                         f"decomposition stacks {offsets[-1]} local dofs")
    tau1 = np.inf
    gamma1 = 0.0
    pencils = coarse.geneo_pencils(system, decomposition)
    dirichlet = schwarz.local_operator(system.A, decomposition)
    for (_, _, Nw, dad_w), D, a, b in zip(
            pencils, decomposition.weights, offsets[:-1], offsets[1:], strict=True):
        low, _ = linalg.sym_gen_eig(Nw, dad_w)
        if len(low):
            tau1 = min(tau1, float(low[0]))
        Ajj = dirichlet[a:b, a:b].toarray()
        dad = (D[:, None] * Ajj) * D[None, :]
        high, _ = linalg.sym_gen_eig(dad, B[a:b, a:b].toarray())
        if len(high):
            gamma1 = max(gamma1, float(high[-1]))
    return tau1, gamma1, decomposition.max_multiplicity, decomposition.n_colors


def fsl_lower_bound_check(spectrum, tau1, m_c):
    """lambda_min >= tau_1 / M_c for the additive symmetric variant."""
    bound = tau1 / m_c
    measured = spectrum.lambda_min
    return BoundRecord("fsl_lower", bound, measured,
                       measured >= bound - 1e-8,
                       details={"tau1": float(tau1), "M_c": int(m_c)})


def fsl_upper_bound_check(spectrum, gamma1, n_c):
    """lambda_max <= N_c * gamma_1 for the weighted-symmetric variant."""
    bound = n_c * gamma1
    measured = spectrum.lambda_max
    return BoundRecord("fsl_upper", bound, measured,
                       measured <= bound + 1e-8,
                       details={"gamma1": float(gamma1), "N_c": int(n_c)})


def geneo_bound_check(spectrum, k0, tau):
    """Condition bound (1 + k0) * (2 + k0 (2 k0 + 1) (1 + 1/tau)).

    k0 is the multiplicity constant of the decomposition and tau the
    spectral threshold used to build the coarse space; with k0 = 2 and
    tau = 0.5 the bound evaluates to 96.
    """
    if spectrum.kappa is None:
        raise ValueError("bound check needs a condition number "
                         "(symmetric-definite spectrum)")
    bound = (1.0 + k0) * (2.0 + k0 * (2.0 * k0 + 1.0) * (1.0 + 1.0 / tau))
    measured = spectrum.kappa
    return BoundRecord("geneo", bound, measured, measured <= bound + 1e-8,
                       details={"k0": int(k0), "tau": float(tau)})


def pcg_bound_envelope(report, kappa):
    """Check recorded energy errors against the condition-number envelope.

    Every iterate must satisfy
    ``e_k <= 2 ((sqrt(kappa) - 1) / (sqrt(kappa) + 1))**k e_0`` up to a
    1e-10 absolute slack. The report must have been produced with the
    exact solution supplied so energy errors were recorded.
    """
    if report.energy_errors is None:
        raise ValueError("solve report has no energy errors; pass the exact "
                         "solution to the solver to record them")
    errs = np.asarray(report.energy_errors, dtype=float)
    rk = np.sqrt(kappa)
    q = (rk - 1.0) / (rk + 1.0)
    k = np.arange(len(errs))
    envelope = 2.0 * q ** k * errs[0] + 1e-10
    excess = errs - envelope
    worst = float(excess.max())
    return BoundRecord("pcg_envelope", 0.0, worst, bool(np.all(excess <= 0)),
                       details={"kappa": float(kappa), "iterations": len(errs) - 1})
