"""Computations the tests use and the package does not: the full-grid
fractional Laplacian product, the singular-integral quadrature oracle, the
measurement map and energy form of the forward problem, the weighted
adjoint of the interior-to-window operator, the scalar one-alpha-at-a-time
minimal-L2 solver, and nearest-neighbor infill of masked quotient nodes."""

from __future__ import annotations

import math

import numpy as np

from fracrec import (
    FractionalOrder,
    GridFunction,
    IndexSets,
    MinimalL2Result,
    OptimizerNonConvergence,
    Potential,
    RegularizerConfig,
    SobolevMachinery,
    UcpOperator,
    solve_dirichlet,
)
from fracrec.grid import _check_same_box
from fracrec.ucp import _minl2_workspace


def fraclap_apply(m: SobolevMachinery, u: GridFunction) -> GridFunction:
    """Apply the collocation fractional Laplacian: exact matrix-vector product."""
    _check_same_box(m, u)
    return GridFunction(m.frac_lap @ u.values, m.box)


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


def dtn_apply(
    m: SobolevMachinery,
    sets: IndexSets,
    q: Potential,
    f: GridFunction,
    where: np.ndarray,
) -> np.ndarray:
    """Measurement map: values of A u on the node set `where` (inside the exterior)."""
    if not np.isin(where, sets.exterior).all():
        raise ValueError("measurement nodes must lie in the exterior")
    sol = solve_dirichlet(m, sets, q, f)
    return m.frac_lap.rows(where, sol.u.values)


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
    window: np.ndarray | None = None,
) -> MinimalL2Result:
    """The minimal-L2 minimizer at one alpha by a scalar bisection of the
    secular equation, with the interior reconstruction from its own dense
    solve with A_oo.  Same contract as fracrec.minimal_l2_reconstruct."""
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

    f_w = ws.chol_inv @ y
    f_full = np.zeros(m.box.size)
    f_full[w] = f_w
    u_full = f_full.copy()
    u_full[sets.omega] = ws.state_map @ f_w
    phi_full = np.zeros(m.box.size)
    a_oo = m.frac_lap[np.ix_(sets.omega, sets.omega)]
    phi_full[sets.omega] = np.linalg.solve(a_oo, -u_full[sets.omega])

    h = m.box.spacing
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
    op: UcpOperator, window_vals: np.ndarray, cfg: RegularizerConfig, alphas
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
                op.machinery, op.sets, window_vals, alpha,
                tol=cfg.inner_solver_tol, max_iterations=cfg.max_inner_iterations,
                window=op.window,
            )
        except OptimizerNonConvergence:
            if not cols:
                raise
            break
        cols.append(res.phi_hat.values[op.sets.omega])
        resid = op.range_weight @ (op.matrix @ cols[-1] - window_vals)
        if delta is not None and np.linalg.norm(resid) <= delta:
            break
    return np.stack(cols, axis=1)


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
