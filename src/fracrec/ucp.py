"""Unique-continuation machinery: the compact interior-to-window operator,
its weighted SVD, and three constructive inversion schemes.

The operator maps interior-supported functions v to the values of their
fractional Laplacian on the measurement window W = w2.  Its domain carries
the Sobolev inner product restricted to omega-supported vectors and its
range the dual Sobolev inner product on W, so the singular value
decomposition is computed for the congruence-transformed matrix
Q B R^{-1} = U diag(sigma) V^T, where G_omega = R^T R and the dual Gram on
W equals Q^T Q; R = L^T and Q = h L_W^{-1} come from the Gram factors of
omega and W.  The machinery keeps one read-only operator per (omega, W)
holding B, R, R^{-1}, Q and Q B R^{-1}; it computes its SVD factors and
its minimal-L2 workspace on first use and keeps them, so each is formed
once per geometry, and the singular values and the numerical rank are
read from the operator.  Past SVD_BLOCK nodes on either side, the SVD is
a certified block of k >= the numerical rank triplets.

solve_schedule runs any of the three inversion schemes over a whole alpha
schedule and returns its K iterates as the columns of one matrix:

* spectral and tikhonov are filters on those factors: in the Sobolev
  coordinates y = R w the solution is V diag(f(sigma)) U^T Q h, with
  f(sigma) = 1[sigma >= alpha] / sigma (truncated SVD) or
  f(sigma) = sigma / (sigma^2 + alpha) (the minimizer of
  ||L w - h||_dual^2 + alpha ||w||_Hs^2).  A K x r matrix of filter
  factors, one row per alpha, makes the schedule a few matrix products.
  Those factors depend on the singular values alone, so on the operator's
  own auto schedule, default_alpha_schedule(sigma_1), the operator keeps
  them, one matrix per filter scheme;
* minimal_l2: convex control formulation over window-supported exterior
  data with a norm (not squared-norm) penalty, minimized exactly by one
  eigendecomposition of the control Hessian and a bisection for the root
  of the scalar secular equation; a fixed dual-state map converts the
  optimal control into the interior reconstruction, which carries an
  alpha-level residual certificate.  The gains 1 / (d + mu_k) differ per
  alpha only through mu_k, so one vectorized bisection finds every mu_k
  of a schedule.  It starts from the filters' datum Q h, and its workspace
  reads the operator's B^T and Q, so W is gathered and factored once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .grid import GridFunction, IndexSets, SobolevMachinery

__all__ = [
    "UcpOperator",
    "RegularizerConfig",
    "MinimalL2Result",
    "OptimizerNonConvergence",
    "assemble_ucp",
    "ucp_svd",
    "solve_schedule",
    "tikhonov_reconstruct",
    "minimal_l2_reconstruct",
    "default_alpha_schedule",
]

# the inversion schemes a RegularizerConfig names
SCHEMES = ("spectral", "tikhonov", "minimal_l2")

# singular values below RANK_RTOL * sigma_1 count as numerically zero
RANK_RTOL = 1e-12

# the first block of the rank-adaptive SVD; at most this many nodes on either
# side of the weighted matrix take the full LAPACK SVD
SVD_BLOCK = 64

# minimal_l2 defaults: relative KKT tolerance and bisection step cap
MINIMAL_L2_TOL, MINIMAL_L2_MAX_STEPS = 1e-10, 200_000

DISCREPANCY_FACTOR = 1.5  # Morozov's safety factor (Engl, Hanke & Neubauer 1996, ch. 4)


class OptimizerNonConvergence(RuntimeError):
    """No certified minimal-L2 minimizer at this alpha: the data's component
    in the control Hessian's null space reaches alpha, the residual on the
    formed Hessian exceeds alpha (1 + tol), or the bisection cap was hit."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class UcpOperator:
    """Dense realization of the interior-to-window map with its weighted
    geometry and, formed on first read, its SVD, its auto schedule with the
    filter factors on it, and its minimal-L2 workspace."""

    matrix: np.ndarray            # |W| x |omega|, rows are the w2 nodes
    omega: np.ndarray             # interior nodes; with w2, the key of the cache
    w2: np.ndarray                # window nodes
    machinery: SobolevMachinery
    domain_chol: np.ndarray       # R with G_omega = R^T R (upper triangular)
    domain_chol_inv: np.ndarray   # R^{-1} (upper triangular)
    range_weight: np.ndarray      # Q with dual Gram on W = Q^T Q (lower triangular)
    weighted: np.ndarray          # Q @ matrix @ R^{-1}

    @property
    def n_window(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def svd_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD (U, sigma, V^T) of `weighted`, sigma descending, as
        read-only arrays computed on first use: all min(|W|, |omega|)
        triplets up to SVD_BLOCK nodes on either side, and above that the
        certified block of `_rank_adaptive_svd`."""
        return tuple(_read_only(a) for a in _rank_adaptive_svd(self.weighted))

    @cached_property
    def default_schedule(self) -> np.ndarray:
        """default_alpha_schedule(sigma_1), read-only, computed on first use."""
        return _read_only(default_alpha_schedule(float(self.sigmas[0])))

    @cached_property
    def spectral_gains(self) -> np.ndarray:
        """The spectral filter factors on default_schedule, read-only, built on first use."""
        return _read_only(_filter_gains("spectral", self.sigmas, self.default_schedule))

    @cached_property
    def tikhonov_gains(self) -> np.ndarray:
        """The tikhonov filter factors on default_schedule, read-only, built on first use."""
        return _read_only(_filter_gains("tikhonov", self.sigmas, self.default_schedule))

    @cached_property
    def minimal_l2_workspace(self) -> _MinimalL2Workspace:
        """The control problem's matrices on this (omega, w2), built on first use."""
        return _MinimalL2Workspace(self)

    def embed_domain(self, v_omega: np.ndarray) -> GridFunction:
        out = np.zeros(self.machinery.box.size)
        out[self.omega] = v_omega
        return GridFunction(out, self.machinery.box)

    def apply(self, v: GridFunction) -> np.ndarray:
        return self.matrix @ v.values[self.omega]

    def dual_norm(self, window_vals: np.ndarray) -> float:
        """Dual Sobolev norm of values given on the window."""
        qh = self.range_weight @ window_vals
        return float(np.sqrt(qh.dot(qh)))

    @property
    def sigmas(self) -> np.ndarray:
        """Descending singular values."""
        return self.svd_factors[1]

    @property
    def numerical_rank(self) -> int:
        """Number of singular values above RANK_RTOL * sigma_1."""
        sig = self.sigmas
        return int(np.sum(sig > RANK_RTOL * sig[0])) if len(sig) else 0


def _rank_adaptive_svd(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD factors of w to its numerical rank, certified on w itself.

    The randomized range finder with one power iteration (Halko, Martinsson
    & Tropp, SIAM Review 53, 2011), made deterministic by a fixed sketch:
    the DCT-II columns cos(pi (j + 1/2) c / n), c = 1..k, project w onto k
    columns, one pass through w^T w sharpens that range, and the SVD of the
    small projection gives k triplets.  They are accepted when the exact
    residual ||w - U diag(s) V^T||_F is at most RANK_RTOL * s_1.  That
    residual bounds every discarded singular value, so they all lie at or
    below the rank cutoff, and no kept value is off by more (Weyl).
    Otherwise the block doubles, and once it spans the smaller side
    LAPACK's full thin SVD runs instead.
    """
    n, k = w.shape[1], SVD_BLOCK
    while k < min(w.shape):
        sketch = np.cos(np.pi * np.outer(np.arange(n) + 0.5, np.arange(1, k + 1)) / n)
        q = np.linalg.qr(w @ sketch)[0]
        q = np.linalg.qr(w @ np.linalg.qr(w.T @ q)[0])[0]  # the power iteration
        ub, s, vt = np.linalg.svd(q.T @ w, full_matrices=False)
        u = q @ ub
        resid = (u * s) @ vt
        resid -= w
        if np.linalg.norm(resid) <= RANK_RTOL * s[0]:
            return u, s, vt
        k *= 2
    return np.linalg.svd(w, full_matrices=False)


@dataclass
class RegularizerConfig:
    """Scheme selection and regularization schedule.

    stop_rule is ("fixed_list",) to run the whole schedule or ("discrepancy",
    delta) to stop at the first alpha whose window residual drops to delta
    in the dual norm.  The minimal-L2 tolerance and step cap are constants.
    """

    scheme: str = "tikhonov"
    alpha_schedule: np.ndarray | None = None
    stop_rule: tuple = ("fixed_list",)
    inner_solver_tol: ClassVar[float] = MINIMAL_L2_TOL
    max_inner_iterations: ClassVar[int] = MINIMAL_L2_MAX_STEPS

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.alpha_schedule is not None:
            a = np.asarray(self.alpha_schedule, dtype=float)
            if (len(a) == 0 or not np.all(np.isfinite(a)) or np.any(a <= 0)
                    or np.any(np.diff(a) >= 0)):
                raise ValueError("alpha schedule must be finite, positive and strictly decreasing")
            self.alpha_schedule = a
        rule, arity = self.stop_rule, (("fixed_list", 1), ("discrepancy", 2))
        if not (isinstance(rule, tuple) and rule and (rule[0], len(rule)) in arity):
            raise ValueError("stop rule must be ('fixed_list',) or ('discrepancy', delta), in "
                             'a problem file scheme.stop_rule {"kind": "fixed_list"} or '
                             f'{{"kind": "discrepancy", "delta": d}}, got {rule!r}')
        if len(rule) == 2 and not (np.isfinite(rule[1]) and rule[1] >= 0):
            raise ValueError("discrepancy delta (scheme.stop_rule.delta) must be finite and >= 0")


def default_alpha_schedule(sigma1: float, kmax: int = 12, step: float = 0.5) -> np.ndarray:
    """Geometric schedule alpha_k = sigma1 * 10^(-step*k), k = 0..kmax."""
    return sigma1 * 10.0 ** (-step * np.arange(kmax + 1))


def assemble_ucp(m: SobolevMachinery, sets: IndexSets) -> UcpOperator:
    """The dense omega-to-w2 operator with its weighted geometry: one
    read-only operator per (omega, w2), kept on the machinery, so every
    call on that geometry returns the same operator and its SVD."""
    if len(sets.omega) == 0 or len(sets.w2) == 0:
        raise ValueError("omega and the window must be nonempty")
    key = ("ucp", sets.omega.tobytes(), sets.w2.tobytes())
    return m.cached(key, lambda: _build_operator(m, sets))


def _build_operator(m: SobolevMachinery, sets: IndexSets) -> UcpOperator:
    """The operator on (omega, w2) with its arrays marked read-only."""
    matrix = m.frac_lap[sets.w2[:, None], sets.omega]
    chol, chol_inv = m.gram_factor(sets.omega)
    # R^-1 in C order: the layout picks the BLAS kernel, hence the rounding,
    # of `weighted`, and its smallest singular triplets are that sensitive
    r_inv = np.ascontiguousarray(chol_inv.T)
    q = m.dual_weight(sets.w2)
    arrays = {"matrix": matrix, "omega": sets.omega.copy(), "w2": sets.w2.copy(),
              "domain_chol": chol.T, "domain_chol_inv": r_inv,
              "range_weight": q, "weighted": q @ matrix @ r_inv}
    return UcpOperator(machinery=m, **{k: _read_only(a) for k, a in arrays.items()})


def ucp_svd(op: UcpOperator) -> UcpOperator:
    """Compute the operator's weighted SVD factors and return the operator."""
    op.svd_factors  # the cached property computes and keeps the factors
    return op


def solve_schedule(
    op: UcpOperator, window_vals: np.ndarray, cfg: RegularizerConfig, alphas
) -> np.ndarray:
    """The omega iterates of cfg.scheme on the window data, one column per
    alpha of the decreasing schedule `alphas`.

    spectral and tikhonov are one filtered solve R^-1 V diag(f_k) U^T Q h
    with filter factors f_k(sigma) = 1[sigma >= alpha_k] / sigma or
    sigma / (sigma^2 + alpha_k); handed op.default_schedule itself, they read
    the factors the operator keeps.  minimal_l2 is one secular bisection (see
    minimal_l2_reconstruct) on the same datum Q h, with the tolerance
    MINIMAL_L2_TOL and the step cap MINIMAL_L2_MAX_STEPS; its schedule ends
    before the first alpha without a certified minimizer, so it may return
    fewer columns, and it raises OptimizerNonConvergence when that is the
    first alpha, or ValueError when ||Q h|| is not finite.
    """
    qh = op.range_weight @ np.asarray(window_vals, dtype=float)
    if cfg.scheme == "minimal_l2":
        ws = op.minimal_l2_workspace
        y = _minimal_l2_solve(ws, qh, alphas, MINIMAL_L2_TOL, MINIMAL_L2_MAX_STEPS)[0]
        return ws.phi_map @ y
    u, sig, vt = op.svd_factors
    if alphas is not op.default_schedule:
        gains = _filter_gains(cfg.scheme, sig, alphas)
    elif cfg.scheme == "spectral":
        gains = op.spectral_gains
    else:
        gains = op.tikhonov_gains
    return op.domain_chol_inv @ (vt.T @ (gains * (u.T @ qh)).T)


def _filter_gains(scheme: str, sig: np.ndarray, alphas) -> np.ndarray:
    """The K x r filter factors of spectral or tikhonov on the singular
    values `sig`, one row per alpha."""
    a = np.asarray(alphas, dtype=float)[:, None]
    if scheme == "spectral":
        keep = sig >= a
        return np.divide(1.0, sig, out=np.zeros(keep.shape), where=keep)
    return sig / (sig**2 + a)


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
    filtered solve independently.  It is 0 only for zero data and a zero
    iterate, and NaN when the data hold a NaN.
    """
    cfg = RegularizerConfig(scheme="tikhonov", alpha_schedule=[alpha])
    w = solve_schedule(op, window_vals, cfg, cfg.alpha_schedule)[:, 0]
    y = op.domain_chol @ w
    qh = op.range_weight @ np.asarray(window_vals, dtype=float)

    lam = op.weighted
    resid_vec = lam @ y - qh
    grad = 2.0 * (lam.T @ resid_vec + alpha * y)
    sigma1 = float(op.sigmas[0])
    scale = 2.0 * (
        (sigma1 ** 2 + alpha) * np.linalg.norm(y) + sigma1 * np.linalg.norm(qh)
    )
    info = {
        "residual_dual": float(np.linalg.norm(resid_vec)),
        "penalty_hs": float(np.linalg.norm(y)),
        "gradient_certificate": float(np.linalg.norm(grad) / scale) if scale != 0 else 0.0,
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
    """Matrices of the control problem on an operator's (omega, w2) pair.

    The coupling block A[omega, W] is the operator's matrix transposed and
    the window's inverse Cholesky factor C^-1 = Q^T / h (G_W = C^T C) its
    range weight rescaled, so the window is gathered and factored once per
    geometry.  A control is f = C^-1 y = Q^T y / h in the Sobolev
    coordinates y, whose data vector h C^-T g = Q g is the filters' datum.
    """

    def __init__(self, op: UcpOperator):
        spacing = op.machinery.box.spacing
        a_oo = op.machinery.frac_lap[op.omega[:, None], op.omega]
        # control-to-state map in omega coordinates (zero potential)
        self.state_map = _read_only(-np.linalg.solve(a_oo, op.matrix.T))
        tc = self.state_map @ (op.range_weight.T / spacing)  # state_map C^-1
        # Sobolev control coordinates y to the dual state phi = -A_oo^{-1} u
        self.phi_map = _read_only(-np.linalg.solve(a_oo, tc))
        self.smooth_hessian = _read_only(spacing * (tc.T @ tc))
        # eigenvalues at or below n * eps * d_max span the floating-point null space
        d, eigvecs = np.linalg.eigh(self.smooth_hessian)
        d[d <= op.n_window * np.finfo(float).eps * d[-1]] = 0.0
        self.eigvals, self.eigvecs = _read_only(d), _read_only(eigvecs)


def _minimal_l2_solve(
    ws: _MinimalL2Workspace, b: np.ndarray, alphas, tol: float, max_iterations: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimizers y_k of 1/2 y'Sy - b'y + alpha_k ||y|| (see
    minimal_l2_reconstruct) for a decreasing schedule, as the columns of Y,
    with their residuals ||S y_k - b|| and bisection steps, for b = Q h.
    One vector bisection step serves every alpha still short of `tol`.  The
    schedule ends before the first alpha without a certified minimizer, and
    raises OptimizerNonConvergence when that is the first alpha."""
    alphas = np.asarray(alphas, dtype=float)
    d, beta = ws.eigvals, ws.eigvecs.T @ b
    nb, null = float(np.linalg.norm(b)), float(np.linalg.norm(beta[d == 0.0]))
    if not nb < np.inf:  # inf or nan
        raise ValueError("||Q h|| is not finite: the data are too large")
    # the null-space component does not depend on alpha: it bounds the schedule
    n = int(np.sum((alphas > null) | (alphas >= nb)))
    if n == 0:
        raise OptimizerNonConvergence(
            f"no minimizer at alpha={alphas[0]:.3e}: the data's component in the "
            f"numerical null space of the control Hessian has norm {null:.3e} >= alpha"
        )
    alphas = alphas[:n]
    work = (alphas < nb).nonzero()[0]  # elsewhere zero is optimal
    a = alphas[work]

    def reach(log_mu: np.ndarray) -> np.ndarray:  # mu ||y(mu)|| per log mu
        mu = np.exp(log_mu)[:, None]
        return np.sqrt(np.add.reduce(np.square(mu * beta / (d + mu)), axis=1))

    lo = np.log(np.min(d[d > 0.0], initial=np.inf) * np.sqrt(a**2 - null**2) / nb)
    hi = np.log(d[-1] * a / (nb - a))
    reach_lo = reach(lo)
    steps = np.zeros(n, dtype=int)
    for _ in range(max_iterations):
        act = (reach_lo < (1.0 - tol) * a).nonzero()[0]
        if not len(act):
            break
        steps[work[act]] += 1
        mid = 0.5 * (lo[act] + hi[act])
        r = reach(mid)
        below = r <= a[act]
        lo[act[below]], reach_lo[act[below]] = mid[below], r[below]
        hi[act[~below]] = mid[~below]
    y = np.zeros((len(b), n))
    y[:, work] = ws.eigvecs @ (beta[:, None] / (d[:, None] + np.exp(lo)))
    residual = np.sqrt(np.add.reduce(np.square(ws.smooth_hessian @ y - b[:, None]), axis=0))
    stalled = np.zeros(n, dtype=bool)
    stalled[work] = reach_lo < (1.0 - tol) * a
    fails = (stalled | (residual > alphas * (1.0 + tol))).nonzero()[0]
    if len(fails) and fails[0] == 0:
        raise OptimizerNonConvergence(
            f"{max_iterations} bisection steps did not reach relative tolerance {tol:.1e} "
            f"at alpha={alphas[0]:.3e}" if stalled[0] else
            f"no certified minimizer at alpha={alphas[0]:.3e}: the residual on the formed "
            f"control Hessian is {residual[0] / alphas[0]:.8f} alpha > (1 + {tol:.0e}) alpha"
        )
    k = fails[0] if len(fails) else n
    return y[:, :k], residual[:k], steps[:k]


def minimal_l2_reconstruct(
    m: SobolevMachinery,
    sets: IndexSets,
    window_vals: np.ndarray,
    alpha: float,
    tol: float = MINIMAL_L2_TOL,
    max_iterations: int = MINIMAL_L2_MAX_STEPS,
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
    counts the bisection steps; reaching `max_iterations` raises.  This is
    the one-alpha case of solve_schedule.
    The interior reconstruction phi_hat solves the dual problem
    (A phi_hat)|_omega = -u_hat|_omega with zero exterior values and carries
    the certificate ||(A phi_hat)|_W - h||_dual <= alpha at the optimum.

    Raises OptimizerNonConvergence when the component of b in the null
    space of S (eigenvalues <= |W| eps d_max) has norm >= alpha: J is then
    unbounded below.  It also raises when ||S y - b|| on the formed S
    exceeds alpha (1 + `tol`): the zeroed eigenvalues still act there on
    the null components beta_i / mu of y, large when mu is tiny.  Raises
    ValueError unless 0 < tol < 1, max_iterations >= 1, alpha is finite
    and positive, and the data's norm ||b|| is finite.
    """
    if not (0.0 < tol < 1.0 and max_iterations >= 1):
        raise ValueError("need 0 < tol < 1 and max_iterations >= 1")
    RegularizerConfig(scheme="minimal_l2", alpha_schedule=[alpha])  # checks alpha
    op, h = assemble_ucp(m, sets), m.box.spacing
    ws, b = op.minimal_l2_workspace, op.range_weight @ np.asarray(window_vals, dtype=float)
    ys, residuals, steps = _minimal_l2_solve(ws, b, [alpha], tol, max_iterations)
    y, f_w = ys[:, 0], op.range_weight.T @ ys[:, 0] / h
    f_full, phi_full = np.zeros(m.box.size), np.zeros(m.box.size)
    f_full[sets.w2] = f_w
    u_full = f_full.copy()
    u_full[sets.omega] = ws.state_map @ f_w
    phi_full[sets.omega] = ws.phi_map @ y

    j_val = (0.5 * h * float(np.sum(u_full[sets.omega] ** 2))
             - h * float(np.asarray(window_vals) @ f_w) + alpha * float(np.linalg.norm(y)))
    return MinimalL2Result(
        f_hat=GridFunction(f_full, m.box),
        u_hat=GridFunction(u_full, m.box),
        phi_hat=GridFunction(phi_full, m.box),
        j_value=j_val,
        residual_dual=float(residuals[0]),
        iterations=int(steps[0]),
        converged=True,
    )

