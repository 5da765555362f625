"""Computations the tests use and the package does not: the full-grid
circulant product and dense matrix, the complement of omega, the
singular-integral quadrature oracle, the eigenvalue oracle of the Dirichlet
solvability decision, the measurement map and energy form of the forward
problem, the dual norm and inner product on a region, the
weighted adjoint of the interior-to-window operator, its singular modes,
LAPACK's full SVD as the oracle of the operator's rank-adaptive one, the
one-alpha truncated SVD, the scalar one-alpha-at-a-time minimal-L2 solver,
the trace rows' norms by np.linalg.norm, the quotient by boolean-mask
gathers, window data synthesized on a 2x finer grid, the Runge
approximation of an interior target by forward states, nearest-neighbor
infill of masked quotient nodes, and the decay series with its own
moment-free projection and full-grid product per k."""

from __future__ import annotations

import math

import numpy as np

from fracrec import (
    FractionalOrder,
    GridFunction,
    IndexSets,
    MeasurementRecord,
    MinimalL2Result,
    OptimizerNonConvergence,
    Potential,
    RegularizerConfig,
    SobolevMachinery,
    UcpOperator,
    assemble_ucp,
    build_box,
    build_index_sets,
    build_sobolev,
    dirichlet_eigenfunctions,
    solve_dirichlet,
    solve_schedule,
    synthetic_measurement,
)
from fracrec.forward import UNIQUENESS_RTOL, _interior_matrix
from fracrec.grid import Circulant, SimulationBox, _check_same_box


def full_product(circ: Circulant, x: np.ndarray) -> np.ndarray:
    """C @ x on every row."""
    return circ.rows(np.arange(len(circ.col)), x)


def dense(circ: Circulant) -> np.ndarray:
    """The dense n x n matrix of a circulant (small n only)."""
    idx = np.arange(len(circ.col))
    return circ[np.ix_(idx, idx)]


def exterior(box: SimulationBox, sets: IndexSets) -> np.ndarray:
    """The node indices outside omega."""
    return np.setdiff1d(np.arange(box.size), sets.omega)


def fraclap_apply(m: SobolevMachinery, u: GridFunction) -> GridFunction:
    """Apply the collocation fractional Laplacian: exact matrix-vector product."""
    _check_same_box(m, u)
    return GridFunction(full_product(m.frac_lap, u.values), m.box)


def _power_integral(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    # int_a^b d^p dd, 0 < a < b, with the log branch at p = -1
    if abs(p + 1.0) < 1e-13:
        return np.log(b / a)
    return (b ** (p + 1.0) - a ** (p + 1.0)) / (p + 1.0)


def fraclap_quadrature_oracle(
    u: GridFunction,
    order: FractionalOrder,
    eval_points: np.ndarray,
) -> np.ndarray:
    """Evaluate the singular-integral fractional Laplacian at selected nodes.

    Independent of the spectral matrix: computes
    c_s * PV int (u(x) - u(y)) / |x - y|^(1+2s) dy
    by product integration with exact per-cell kernel moments against a
    local quadratic model of u on every non-central cell, an exact tail
    formula for the u(x) contribution, and a Taylor correction (with
    fourth-order difference stencils) across the central cell, where the
    principal value lives.  Second-order accurate overall; requires u to
    vanish near the box ends.

    Parameters
    ----------
    u : GridFunction
        Compactly supported sample; support must stay 4 cells away from
        the box boundary.
    order : FractionalOrder
    eval_points : ndarray of node indices

    Returns
    -------
    ndarray of values at `eval_points`.
    """
    s = order.s
    box = u.box
    x = box.nodes
    h = box.spacing
    n = box.size
    vals = u.values
    if np.any(vals[:4] != 0.0) or np.any(vals[-4:] != 0.0):
        raise ValueError("support of u touches the box boundary")

    cns = 4.0 ** s * math.gamma(0.5 + s) / (np.sqrt(np.pi) * abs(math.gamma(-s)))
    du = np.zeros(n)
    du[2:-2] = (-vals[4:] + 8.0 * vals[3:-1] - 8.0 * vals[1:-3] + vals[:-4]) / (12.0 * h)
    d2u = np.zeros(n)
    d2u[2:-2] = (
        -vals[4:] + 16.0 * vals[3:-1] - 30.0 * vals[2:-2] + 16.0 * vals[1:-3] - vals[:-4]
    ) / (12.0 * h ** 2)
    d4u = np.zeros(n)
    d4u[2:-2] = (
        vals[4:] - 4.0 * vals[3:-1] + 6.0 * vals[2:-2] - 4.0 * vals[1:-3] + vals[:-4]
    ) / h ** 4

    delta = 0.5 * h
    support = np.nonzero((vals != 0.0) | (du != 0.0) | (d2u != 0.0))[0]
    out = np.empty(len(eval_points))
    for t, i in enumerate(np.asarray(eval_points)):
        far = support[support != i]
        d = np.abs(x[far] - x[i])
        a = d - 0.5 * h
        b = d + 0.5 * h
        sgn = np.sign(x[far] - x[i])
        m0 = _power_integral(a, b, -1.0 - 2.0 * s)
        i1 = _power_integral(a, b, -2.0 * s)
        m1 = i1 - d * m0
        i2 = _power_integral(a, b, 1.0 - 2.0 * s)
        m2 = i2 - 2.0 * d * i1 + d * d * m0
        far_integral = np.sum(
            vals[far] * m0 + sgn * du[far] * m1 + 0.5 * d2u[far] * m2
        )
        tail = vals[i] * (delta ** (-2.0 * s) / s)
        central = (
            -(d2u[i] / 2.0) * (2.0 * delta ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s))
            - (d4u[i] / 24.0) * (2.0 * delta ** (4.0 - 2.0 * s) / (4.0 - 2.0 * s))
        )
        out[t] = cns * (tail - far_integral + central)
    return out


def check_dirichlet_uniqueness(m: SobolevMachinery, sets: IndexSets, q: Potential) -> dict:
    """{"ok": bool, "margin": smallest singular value} of the interior block
    A_oo + diag(q), decided by its eigenvalues: "ok" when the smallest
    |eigenvalue| exceeds UNIQUENESS_RTOL times the largest, the test
    solve_dirichlet applies when its Cholesky certificate fails."""
    svals = np.abs(np.linalg.eigvalsh(_interior_matrix(m, sets, q)))
    margin = float(svals.min())
    return {"ok": margin > UNIQUENESS_RTOL * float(svals.max()), "margin": margin}


def dtn_apply(
    m: SobolevMachinery,
    sets: IndexSets,
    q: Potential,
    f: GridFunction,
    where: np.ndarray,
) -> np.ndarray:
    """Measurement map: values of A u on the node set `where` (inside the exterior)."""
    if not np.isin(where, exterior(m.box, sets)).all():
        raise ValueError("measurement nodes must lie in the exterior")
    u = solve_dirichlet(m, sets, q, f)
    return m.frac_lap.rows(where, u.values)


def bq_eval(
    m: SobolevMachinery,
    sets: IndexSets,
    q: Potential,
    u: GridFunction,
    w: GridFunction,
) -> float:
    """Symmetric energy form: (A u, w)_L2 + (q u, w)_L2(omega)."""
    h = m.box.spacing
    su = np.flatnonzero(u.values)
    quad = h * float(u.values[su] @ m.frac_lap.rows(su, w.values))
    om = sets.omega
    quad += h * float(np.sum(q.values * u.values[om] * w.values[om]))
    return quad


def hminus_s_norm(m: SobolevMachinery, hfun: GridFunction, region: np.ndarray) -> float:
    """Dual Sobolev norm ||Q h|| of h over `region`, Q the machinery's dual weight."""
    return float(np.linalg.norm(m.dual_weight(region) @ hfun.values[region]))


def hminus_s_inner(
    m: SobolevMachinery, h1: np.ndarray, h2: np.ndarray, region: np.ndarray
) -> float:
    """Dual-norm inner product (Q h1) . (Q h2) of two value vectors given on `region`."""
    q = m.dual_weight(region)
    return float((q @ np.asarray(h1)) @ (q @ np.asarray(h2)))


def with_full_svd(op: UcpOperator) -> UcpOperator:
    """`op` with LAPACK's full thin SVD of its weighted matrix set as its SVD
    factors before their first read, so every later solve on its geometry
    runs on them."""
    if "svd_factors" in vars(op):
        raise ValueError("the operator's SVD factors were already read")
    vars(op)["svd_factors"] = tuple(np.linalg.svd(op.weighted, full_matrices=False))
    return op


def domain_modes(op: UcpOperator) -> np.ndarray:
    """|omega| x r modes R^-1 V, orthonormal in G_omega."""
    return op.domain_chol_inv @ op.svd_factors[2].T


def range_modes(op: UcpOperator) -> np.ndarray:
    """|W| x r modes Q^-1 U, orthonormal in the dual Gram."""
    return np.linalg.solve(op.range_weight, op.svd_factors[0])


def range_coefficients(op: UcpOperator, window_vals: np.ndarray) -> np.ndarray:
    """Dual inner products of `window_vals` with every range mode."""
    return op.svd_factors[0].T @ (op.range_weight @ window_vals)


def spectral_reconstruct(op: UcpOperator, window_vals: np.ndarray, alpha: float) -> GridFunction:
    """Truncated-SVD inversion keeping singular values >= alpha."""
    cfg = RegularizerConfig(scheme="spectral", alpha_schedule=[alpha])
    return op.embed_domain(solve_schedule(op, window_vals, cfg, cfg.alpha_schedule)[:, 0])


def ucp_adjoint(op: UcpOperator, window_vals: np.ndarray) -> GridFunction:
    """Adjoint with respect to the weighted inner products.

    Returns the omega-supported function a with
    <a, v>_Hs = <window_vals, L v>_dual for every omega-supported v.
    """
    y = op.weighted.T @ (op.range_weight @ np.asarray(window_vals))
    return op.embed_domain(op.domain_chol_inv @ y)


def minimal_l2_oracle(
    m: SobolevMachinery,
    sets: IndexSets,
    window_vals: np.ndarray,
    alpha: float,
    tol: float = 1e-8,
    max_iterations: int = 200_000,
) -> MinimalL2Result:
    """The minimal-L2 minimizer at one alpha by a scalar bisection of the
    secular equation, with the interior reconstruction from its own dense
    solve with A_oo.  Same contract as fracrec.minimal_l2_reconstruct."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    w = sets.w2
    op = assemble_ucp(m, sets)
    ws = op.minimal_l2_workspace
    b = op.range_weight @ np.asarray(window_vals, dtype=float)
    d, beta = ws.eigvals, ws.eigvecs.T @ b
    nb, null = float(np.linalg.norm(b)), float(np.linalg.norm(beta[d == 0.0]))

    def reach(log_mu: float) -> float:  # mu ||y(mu)||
        mu = np.exp(log_mu)
        return float(np.linalg.norm(mu * beta / (d + mu)))

    y, it = np.zeros(len(w)), 0
    if nb > alpha:  # otherwise zero is optimal
        if null >= alpha:
            raise OptimizerNonConvergence(
                f"no minimizer at alpha={alpha:.3e}: null-space norm {null:.3e} >= alpha"
            )
        lo = np.log(d[d > 0.0].min() * np.sqrt(alpha**2 - null**2) / nb)
        hi = np.log(d[-1] * alpha / (nb - alpha))
        reach_lo = reach(lo)
        while reach_lo < (1.0 - tol) * alpha:
            if it == max_iterations:
                raise OptimizerNonConvergence(f"{max_iterations} bisection steps at alpha={alpha:.3e}")
            it += 1
            mid = 0.5 * (lo + hi)
            if (r := reach(mid)) <= alpha:
                lo, reach_lo = mid, r
            else:
                hi = mid
        y = ws.eigvecs @ (beta / (d + np.exp(lo)))
    residual = float(np.linalg.norm(ws.smooth_hessian @ y - b))
    if residual > alpha * (1.0 + tol):
        raise OptimizerNonConvergence(f"residual {residual / alpha:.8f} alpha at alpha={alpha:.3e}")

    h = m.box.spacing
    f_w = (op.range_weight.T / h) @ y
    f_full = np.zeros(m.box.size)
    f_full[w] = f_w
    u_full = f_full.copy()
    u_full[sets.omega] = ws.state_map @ f_w
    phi_full = np.zeros(m.box.size)
    a_oo = m.frac_lap[np.ix_(sets.omega, sets.omega)]
    phi_full[sets.omega] = np.linalg.solve(a_oo, -u_full[sets.omega])

    j_val = (
        0.5 * h * float(np.sum(u_full[sets.omega] ** 2))
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


def minimal_l2_oracle_iterates(
    op: UcpOperator, sets: IndexSets, window_vals: np.ndarray, cfg: RegularizerConfig, alphas
) -> np.ndarray:
    """Minimal-L2 omega iterates as columns, one oracle solve per alpha: the
    schedule ends before the first alpha that raises (which re-raises when
    it is the first) and after the first whose dual residual reaches the
    discrepancy delta."""
    delta = cfg.stop_rule[1] if cfg.stop_rule[0] == "discrepancy" else None
    cols: list = []
    for alpha in alphas:
        try:
            res = minimal_l2_oracle(
                op.machinery, sets, window_vals, alpha,
                tol=cfg.inner_solver_tol, max_iterations=cfg.max_inner_iterations,
            )
        except OptimizerNonConvergence:
            if not cols:
                raise
            break
        cols.append(res.phi_hat.values[op.omega])
        resid = op.range_weight @ (op.matrix @ cols[-1] - window_vals)
        if delta is not None and np.linalg.norm(resid) <= delta:
            break
    return np.stack(cols, axis=1)


def trace_norms(op: UcpOperator, iterates: np.ndarray, window_vals: np.ndarray):
    """The trace rows' dual residual norms and Sobolev norms per iterate
    column, by np.linalg.norm."""
    resid = op.range_weight @ (op.matrix @ iterates - window_vals[:, None])
    return np.linalg.norm(resid, axis=0), np.linalg.norm(op.domain_chol @ iterates, axis=0)


def quotient_masked_gather(m: SobolevMachinery, sets: IndexSets, u: GridFunction, tau: float):
    """The quotient -(A u)/u and its mask by boolean-mask gathers."""
    u_om = u.values[sets.omega]
    mask = np.abs(u_om) <= tau * float(np.abs(u_om).max())
    au = m.frac_lap.rows(sets.omega, u.values)
    q_vals = np.full(len(sets.omega), np.nan)
    q_vals[~mask] = -au[~mask] / u_om[~mask]
    return q_vals, mask


def fine_grid_measurement(
    m: SobolevMachinery, f: GridFunction, regions, q_of_x, f_of_x
) -> MeasurementRecord:
    """Noise-free window data for the datum `f` of the grid of `m`,
    synthesized on a grid with twice its resolution and pair-averaged back
    onto its window nodes, so the data carry no inverse crime.

    `regions` are the (omega, w1, w2) interval lists of the coarse
    index sets; q_of_x and f_of_x evaluate the potential on the interior
    nodes and the datum on the control-window nodes of the fine grid.
    """
    box_f = build_box(m.box.radius, 2 * m.box.size)
    m_f = build_sobolev(box_f, m.order)
    sets_f = build_index_sets(box_f, *regions)
    q_f = Potential(q_of_x(box_f.nodes[sets_f.omega]))
    f_vals = np.zeros(box_f.size)
    f_vals[sets_f.w1] = f_of_x(box_f.nodes[sets_f.w1])
    g = synthetic_measurement(m_f, sets_f, q_f, GridFunction(f_vals, box_f)).g
    return MeasurementRecord(f=f.copy(), g=0.5 * (g[0::2] + g[1::2]))


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
        u = solve_dirichlet(m, sets, q, GridFunction(fk, m.box))
        columns[:, k] = u.values[sets.omega]

    sqh = np.sqrt(h)
    # minimum-norm least squares, cutting singular values at eps * max(shape)
    rtol = np.finfo(float).eps * max(columns.shape)
    coef = np.linalg.pinv(sqh * columns, rtol=rtol) @ (sqh * target)
    err = float(np.sqrt(h * np.sum((target - columns @ coef) ** 2)))
    f_full = np.zeros(m.box.size)
    f_full[sets.w1] = basis @ coef
    return GridFunction(f_full, m.box), err


def infill_nearest(
    sets: IndexSets, q_vals: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Optional nearest-unmasked-neighbor infill for masked quotient nodes."""
    if not mask.any():
        return q_vals.copy()
    if mask.all():
        raise ValueError("every node is masked; nothing to infill from")
    out = q_vals.copy()
    good = np.nonzero(~mask)[0]
    for i in np.nonzero(mask)[0]:
        out[i] = q_vals[good[np.argmin(np.abs(good - i))]]
    return out


def moment_free(vals: np.ndarray, y: np.ndarray, degree: int) -> np.ndarray:
    """Orthogonal projection of `vals` onto the vectors whose moments y^p,
    p < degree, vanish on the even and, separately, the odd positions."""
    basis = np.polynomial.legendre.legvander(y, degree - 1)  # same span as y^p
    even = (np.arange(len(y)) % 2 == 0)[:, None]
    q, _ = np.linalg.qr(np.hstack([basis * even, basis * ~even]))
    return vals - q @ (q.T @ vals)


def instability_series_per_k(
    m: SobolevMachinery, sets: IndexSets, k_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """The decay series' v_k rows and window dual norms, one QR of the
    parity-split basis of degree < k and one full-grid product per k."""
    vk = dirichlet_eigenfunctions(m, sets, k_max)
    om = sets.omega
    h = m.box.spacing
    x = m.box.nodes[om]
    y = (x - 0.5 * (x[0] + x[-1])) / (0.5 * (x[-1] - x[0] + h))
    grid = np.zeros(m.box.size)  # carries each v_k, zero off omega, into its product
    q = m.dual_weight(sets.w2)
    norms = []
    for k, row in enumerate(vk, start=1):
        v = moment_free(row, y, k)
        row[:] = grid[om] = v / np.sqrt(h * np.sum(v**2))
        norms.append(np.linalg.norm(q @ m.frac_lap.rows(sets.w2, grid)))
    return vk, np.array(norms)
