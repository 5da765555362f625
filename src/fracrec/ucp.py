"""Unique-continuation machinery: the compact interior-to-window operator,
its weighted SVD, and three constructive inversion schemes.

The operator maps interior-supported functions v to the values of their
fractional Laplacian on an exterior window W.  Its domain carries the
Sobolev inner product restricted to omega-supported vectors and its range
the dual Sobolev inner product on W, so the singular value decomposition is
computed for the congruence-transformed matrix Q B R^{-1} = U diag(sigma) V^T,
where G_omega = R^T R and the dual Gram on W equals Q^T Q (Q is the
machinery's cached dual weight).  Each operator holds R^{-1} and computes
the SVD factors once, on first use, and keeps them; the singular values,
the numerical rank and the modes are read from the operator.

Inversion schemes:

* spectral and tikhonov are filters on those factors: in the Sobolev
  coordinates y = R w the solution is V diag(f(sigma)) U^T Q h, with
  f(sigma) = 1[sigma >= alpha] / sigma (truncated SVD) or
  f(sigma) = sigma / (sigma^2 + alpha) (the minimizer of
  ||L w - h||_dual^2 + alpha ||w||_Hs^2).  One filtered solve takes a
  K x r matrix of filter factors, one row per alpha, and returns the K
  iterates as the columns of one matrix, so a whole alpha schedule costs
  a few matrix products;
* minimal_l2: convex control formulation over window-supported exterior
  data with a norm (not squared-norm) penalty, minimized exactly by one
  eigendecomposition of the control Hessian and a bisection for the root
  of the scalar secular equation; the dual-state solve converts the
  optimal control into the interior reconstruction and carries an
  alpha-level residual certificate.  Each alpha is its own nonlinear
  solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .forward import Potential, solve_dirichlet
from .grid import GridFunction, IndexSets, SobolevMachinery, tril_inverse

__all__ = [
    "UcpOperator",
    "RegularizerConfig",
    "MinimalL2Result",
    "OptimizerNonConvergence",
    "assemble_ucp",
    "ucp_svd",
    "spectral_reconstruct",
    "tikhonov_reconstruct",
    "minimal_l2_reconstruct",
    "runge_approximate",
    "default_alpha_schedule",
]

# singular values below RANK_RTOL * sigma_1 count as numerically zero
RANK_RTOL = 1e-12


class OptimizerNonConvergence(RuntimeError):
    """No certified minimal-L2 minimizer at this alpha: the data's component
    in the control Hessian's null space reaches alpha, the residual on the
    formed Hessian exceeds alpha (1 + tol), or the bisection cap was hit."""


@dataclass
class UcpOperator:
    """Dense realization of the interior-to-window map with its weighted
    geometry and, formed on first read, its weighted SVD."""

    matrix: np.ndarray            # |W| x |omega|, rows are window nodes
    sets: IndexSets
    machinery: SobolevMachinery
    window: np.ndarray            # node indices of W (default: w2)
    domain_chol: np.ndarray       # R with G_omega = R^T R (upper triangular)
    domain_chol_inv: np.ndarray   # R^{-1} (upper triangular)
    range_weight: np.ndarray      # Q with dual Gram on W = Q^T Q (lower triangular)
    weighted: np.ndarray          # Q @ matrix @ R^{-1}

    @property
    def n_omega(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_window(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def svd_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD (U, sigma, V^T) of `weighted`, sigma descending.

        Computed on first use; every caller shares the read-only arrays.
        """
        factors = tuple(np.linalg.svd(self.weighted, full_matrices=False))
        for a in factors:
            a.flags.writeable = False
        return factors

    def embed_domain(self, v_omega: np.ndarray) -> GridFunction:
        out = np.zeros(self.machinery.box.size)
        out[self.sets.omega] = v_omega
        return GridFunction(out, self.machinery.box)

    def apply(self, v: GridFunction) -> np.ndarray:
        return self.matrix @ v.values[self.sets.omega]

    def dual_norm(self, window_vals: np.ndarray) -> float:
        """Dual Sobolev norm of values given on the window."""
        return float(np.linalg.norm(self.range_weight @ window_vals))

    @property
    def sigmas(self) -> np.ndarray:
        """Descending singular values."""
        return self.svd_factors[1]

    @property
    def numerical_rank(self) -> int:
        """Number of singular values above RANK_RTOL * sigma_1."""
        sig = self.sigmas
        return int(np.sum(sig > RANK_RTOL * sig[0])) if len(sig) else 0

    @cached_property
    def domain_modes(self) -> np.ndarray:
        """|omega| x r modes R^{-1} V, orthonormal in G_omega."""
        return self.domain_chol_inv @ self.svd_factors[2].T

    @cached_property
    def range_modes(self) -> np.ndarray:
        """|W| x r modes Q^{-1} U, orthonormal in the dual Gram."""
        return np.linalg.solve(self.range_weight, self.svd_factors[0])

    def range_coefficients(self, window_vals: np.ndarray) -> np.ndarray:
        """Dual inner products of `window_vals` with every range mode."""
        return self.svd_factors[0].T @ (self.range_weight @ window_vals)


@dataclass
class RegularizerConfig:
    """Scheme selection and regularization schedule.

    stop_rule is ("fixed_list",) to run the whole schedule or
    ("discrepancy", delta) to stop at the first alpha whose window residual
    drops to delta in the dual norm.
    """

    scheme: str = "tikhonov"
    alpha_schedule: np.ndarray | None = None
    stop_rule: tuple = ("fixed_list",)
    inner_solver_tol: float = 1e-10       # minimal_l2 relative KKT tolerance
    max_inner_iterations: int = 200_000   # minimal_l2 bisection step cap

    def __post_init__(self) -> None:
        if self.scheme not in ("spectral", "tikhonov", "minimal_l2"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.alpha_schedule is not None:
            a = np.asarray(self.alpha_schedule, dtype=float)
            if (len(a) == 0 or not np.all(np.isfinite(a)) or np.any(a <= 0)
                    or np.any(np.diff(a) >= 0)):
                raise ValueError("alpha schedule must be finite, positive and strictly decreasing")
            self.alpha_schedule = a
        kind = self.stop_rule[0]
        if kind not in ("fixed_list", "discrepancy"):
            raise ValueError(f"unknown stop rule {kind!r}")
        if kind == "discrepancy" and not np.isfinite(self.stop_rule[1]):
            raise ValueError("discrepancy delta must be finite")


def default_alpha_schedule(sigma1: float, kmax: int = 12, step: float = 0.5) -> np.ndarray:
    """Geometric schedule alpha_k = sigma1 * 10^(-step*k), k = 0..kmax."""
    return sigma1 * 10.0 ** (-step * np.arange(kmax + 1))


def assemble_ucp(
    m: SobolevMachinery, sets: IndexSets, window: np.ndarray | None = None
) -> UcpOperator:
    """Assemble the dense interior-to-window operator and its weighted geometry.

    `window` defaults to the measurement window w2.
    """
    w = sets.w2 if window is None else np.asarray(window)
    if len(sets.omega) == 0 or len(w) == 0:
        raise ValueError("omega and the window must be nonempty")
    matrix = m.frac_lap[np.ix_(w, sets.omega)]
    chol = np.linalg.cholesky(m.gram_hs[np.ix_(sets.omega, sets.omega)])
    # R^-1 in C order: the layout picks the BLAS kernel, hence the rounding,
    # of `weighted`, and its smallest singular triplets are that sensitive
    r, r_inv = chol.T, np.ascontiguousarray(tril_inverse(chol).T)
    q = m.dual_weight(w)
    return UcpOperator(
        matrix=matrix,
        sets=sets,
        machinery=m,
        window=w,
        domain_chol=r,
        domain_chol_inv=r_inv,
        range_weight=q,
        weighted=q @ matrix @ r_inv,
    )


def ucp_svd(op: UcpOperator) -> UcpOperator:
    """Compute the operator's weighted SVD factors and return the operator."""
    op.svd_factors  # the cached property computes and keeps the factors
    return op


def _filter_gains(scheme: str, sig: np.ndarray, alphas) -> np.ndarray:
    """K x r filter factors f_k(sigma) of `scheme`, one row per alpha_k:
    1[sigma >= alpha] / sigma for "spectral", sigma / (sigma^2 + alpha)
    for "tikhonov"."""
    a = np.asarray(alphas, dtype=float)[:, None]
    if scheme == "spectral":
        keep = sig >= a
        return np.divide(1.0, sig, out=np.zeros(keep.shape), where=keep)
    return sig / (sig**2 + a)


def _filtered_solve(
    op: UcpOperator, window_vals: np.ndarray, gains: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The omega iterates R^-1 V diag(g_k) U^T Q h, one column per row g_k
    of the K x r `gains`, returned with the weighted data Q h."""
    u, _, vt = op.svd_factors
    qh = op.range_weight @ np.asarray(window_vals)
    return op.domain_chol_inv @ (vt.T @ (gains * (u.T @ qh)).T), qh


def spectral_reconstruct(op: UcpOperator, window_vals: np.ndarray, alpha: float) -> GridFunction:
    """Truncated-SVD inversion keeping singular values >= alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    w, _ = _filtered_solve(op, window_vals, _filter_gains("spectral", op.sigmas, [alpha]))
    return op.embed_domain(w[:, 0])


def tikhonov_reconstruct(
    op: UcpOperator, window_vals: np.ndarray, alpha: float
) -> tuple[GridFunction, dict]:
    """Unique minimizer of ||L w - h||_dual^2 + alpha ||w||_Hs^2.

    The filtered solve on the operator's weighted SVD with filter factors
    sigma / (sigma^2 + alpha) (Hansen, Rank-Deficient and Discrete
    Ill-Posed Problems, SIAM 1998), the same solve as the truncated SVD.

    Returns the minimizer and a diagnostics dict with the dual residual,
    the Sobolev penalty, and the relative gradient certificate of the
    normal equations.  The certificate is evaluated on the returned
    iterate with the assembled weighted matrix, not the SVD factors (in
    whose coordinates it vanishes by construction), so it checks the
    filtered solve independently.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    sig = op.sigmas
    w, qh = _filtered_solve(op, window_vals, _filter_gains("tikhonov", sig, [alpha]))
    w = w[:, 0]
    y = op.domain_chol @ w

    lam = op.weighted
    resid_vec = lam @ y - qh
    grad = 2.0 * (lam.T @ resid_vec + alpha * y)
    sigma1 = float(sig[0])
    scale = 2.0 * (
        (sigma1 ** 2 + alpha) * np.linalg.norm(y) + sigma1 * np.linalg.norm(qh)
    )
    info = {
        "residual_dual": float(np.linalg.norm(resid_vec)),
        "penalty_hs": float(np.linalg.norm(y)),
        "gradient_certificate": float(np.linalg.norm(grad) / scale) if scale > 0 else 0.0,
    }
    return op.embed_domain(w), info


@dataclass
class MinimalL2Result:
    """Output of the minimal-L2 control scheme at one alpha."""

    f_hat: GridFunction
    u_hat: GridFunction
    phi_hat: GridFunction
    j_value: float
    residual_dual: float
    iterations: int
    converged: bool


class _MinimalL2Workspace:
    """Matrices of the control problem for one (omega, window) pair."""

    def __init__(
        self, m: SobolevMachinery, omega: np.ndarray, window: np.ndarray, q_window: np.ndarray
    ):
        self.spacing = m.box.spacing
        self.a_oo = m.frac_lap[np.ix_(omega, omega)]
        coupling = m.frac_lap[np.ix_(omega, window)]
        # control-to-state map in omega coordinates (zero potential)
        self.state_map = -np.linalg.solve(self.a_oo, coupling)
        # C^{-1} (upper triangular) with G_W = C^T C, from the dual weight
        # Q = C^{-T} M and the uniform mass M = h I
        self.chol_inv = q_window.T / self.spacing
        tc = self.state_map @ self.chol_inv
        self.smooth_hessian = self.spacing * (tc.T @ tc)
        # eigenvalues at or below n * eps * d_max span the floating-point null space
        d, self.eigvecs = np.linalg.eigh(self.smooth_hessian)
        d[d <= len(window) * np.finfo(float).eps * d[-1]] = 0.0
        self.eigvals = d

    def data_vector(self, window_vals: np.ndarray) -> np.ndarray:
        # Riesz coordinates of f -> (h, f)_L2(W) in the window Sobolev geometry
        return self.spacing * (self.chol_inv.T @ np.asarray(window_vals))


def _minl2_workspace(m: SobolevMachinery, sets: IndexSets, window: np.ndarray):
    """The machinery's cached workspace for (sets.omega, window)."""
    key = ("minimal_l2", sets.omega.tobytes(), window.tobytes())
    # fetched outside `m.cached`, whose lock is held while a value is built
    q_window = m.dual_weight(window)
    return m.cached(key, lambda: _MinimalL2Workspace(m, sets.omega, window, q_window))


def minimal_l2_reconstruct(
    m: SobolevMachinery,
    sets: IndexSets,
    window_vals: np.ndarray,
    alpha: float,
    tol: float = 1e-8,
    max_iterations: int = 200_000,
    window: np.ndarray | None = None,
) -> MinimalL2Result:
    """Minimal-L2-norm inversion of the interior-to-window map.

    Minimizes J(f) = 1/2 ||u(f)||_L2(omega)^2 - (h, f)_L2(W) + alpha ||f||_Hs
    over window-supported controls f, where u(f) solves the zero-potential
    exterior-value problem.  In window Sobolev coordinates y this is
    1/2 y'Sy - b'y + alpha ||y||, minimized by (S + mu I) y = b with
    mu ||y|| = alpha (the trust-region secular equation, More & Sorensen
    1983).  With S = V diag(d) V^T, mu ||y(mu)|| = ||mu V^T b / (d + mu)||
    rises in mu; its root is bisected in log mu, from below, until
    1 - mu ||y|| / alpha <= `tol`, the relative KKT residual.  `iterations`
    counts the bisection steps; reaching `max_iterations` raises.

    The interior reconstruction phi_hat solves the dual problem
    (A phi_hat)|_omega = -u_hat|_omega with zero exterior values and carries
    the certificate ||(A phi_hat)|_W - h||_dual <= alpha at the optimum.

    Raises OptimizerNonConvergence when the component of b in the null
    space of S (eigenvalues <= |W| eps d_max) has norm >= alpha: J is then
    unbounded below and has no minimizer.  It also raises when the
    certificate ||S y - b|| on the formed S exceeds alpha (1 + `tol`): the
    solve sets those eigenvalues to zero, but the formed S still acts on
    the null components beta_i / mu of y, which are large when alpha is
    just above the null-space norm and mu is tiny.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    w = sets.w2 if window is None else np.asarray(window)
    ws = _minl2_workspace(m, sets, w)
    b = ws.data_vector(window_vals)
    d, beta = ws.eigvals, ws.eigvecs.T @ b
    nb, null = float(np.linalg.norm(b)), float(np.linalg.norm(beta[d == 0.0]))

    def reach(log_mu: float) -> float:  # mu ||y(mu)||
        mu = np.exp(log_mu)
        return float(np.linalg.norm(mu * beta / (d + mu)))

    y, it = np.zeros(len(w)), 0
    if nb > alpha:  # otherwise zero is optimal
        if null >= alpha:
            raise OptimizerNonConvergence(
                f"no minimizer at alpha={alpha:.3e}: the data's component in the "
                f"numerical null space of the control Hessian has norm {null:.3e} >= alpha"
            )
        lo = np.log(d[d > 0.0].min() * np.sqrt(alpha**2 - null**2) / nb)
        hi = np.log(d[-1] * alpha / (nb - alpha))
        reach_lo = reach(lo)
        while reach_lo < (1.0 - tol) * alpha:
            if it == max_iterations:
                raise OptimizerNonConvergence(
                    f"{max_iterations} bisection steps did not reach relative "
                    f"tolerance {tol:.1e} at alpha={alpha:.3e}"
                )
            it += 1
            mid = 0.5 * (lo + hi)
            if (r := reach(mid)) <= alpha:
                lo, reach_lo = mid, r
            else:
                hi = mid
        y = ws.eigvecs @ (beta / (d + np.exp(lo)))
    residual = float(np.linalg.norm(ws.smooth_hessian @ y - b))
    if residual > alpha * (1.0 + tol):
        raise OptimizerNonConvergence(
            f"no certified minimizer at alpha={alpha:.3e}: the residual on the formed "
            f"control Hessian is {residual / alpha:.8f} alpha > (1 + {tol:.0e}) alpha"
        )

    f_w = ws.chol_inv @ y
    f_full = np.zeros(m.box.size)
    f_full[w] = f_w
    u_full = f_full.copy()
    u_full[sets.omega] = ws.state_map @ f_w
    phi_full = np.zeros(m.box.size)
    phi_full[sets.omega] = np.linalg.solve(ws.a_oo, -u_full[sets.omega])

    h = m.box.spacing
    u_l2_sq = h * float(np.sum(u_full[sets.omega] ** 2))
    j_val = (
        0.5 * u_l2_sq
        - h * float(np.asarray(window_vals) @ f_w)
        + alpha * float(np.linalg.norm(y))
    )
    return MinimalL2Result(
        f_hat=GridFunction(f_full, m.box),
        u_hat=GridFunction(u_full, m.box),
        phi_hat=GridFunction(phi_full, m.box),
        j_value=j_val,
        residual_dual=residual,
        iterations=it,
        converged=True,
    )


def runge_approximate(
    m: SobolevMachinery,
    sets: IndexSets,
    q: Potential,
    target: np.ndarray,
    control_dim: int,
) -> tuple[GridFunction, float]:
    """Least-squares approximation of an interior target by forward states.

    Searches controls in the span of the first `control_dim` sine modes on
    the w1 window (a nested family), minimizing the interior L2 distance
    between the target (values on omega) and the restricted state.  Returns
    the minimum-norm control and the attained L2(omega) error.
    """
    if control_dim < 1:
        raise ValueError("control dimension must be >= 1")
    target = np.asarray(target, dtype=float)
    if target.shape != sets.omega.shape:
        raise ValueError("target must give one value per omega node")
    x = m.box.nodes[sets.w1]
    h = m.box.spacing
    a, b = x[0] - h / 2.0, x[-1] + h / 2.0
    tloc = (x - a) / (b - a)
    # the sampled sine family spans at most |w1| dimensions; clipping keeps
    # the subspaces exactly nested as control_dim grows
    control_dim = min(control_dim, len(x))
    basis = np.stack([np.sin((k + 1) * np.pi * tloc) for k in range(control_dim)], axis=1)

    columns = np.empty((len(sets.omega), control_dim))
    for k in range(control_dim):
        fk = np.zeros(m.box.size)
        fk[sets.w1] = basis[:, k]
        sol = solve_dirichlet(m, sets, q, GridFunction(fk, m.box))
        columns[:, k] = sol.u.values[sets.omega]

    sqh = np.sqrt(h)
    # minimum-norm least squares, cutting singular values at eps * max(shape)
    rtol = np.finfo(float).eps * max(columns.shape)
    coef = np.linalg.pinv(sqh * columns, rtol=rtol) @ (sqh * target)
    err = float(np.sqrt(h * np.sum((target - columns @ coef) ** 2)))
    f_full = np.zeros(m.box.size)
    f_full[sets.w1] = basis @ coef
    return GridFunction(f_full, m.box), err
