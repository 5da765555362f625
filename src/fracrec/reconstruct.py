"""Single-measurement recovery pipeline.

From one exterior datum f (supported in the control window) and the
measured values g of the fractional Laplacian of the state on the
measurement window, the potential is recovered in four steps:

1. subtract the known datum contribution: h = g - (A f)|_W;
2. invert the interior-to-window map for the interior part v;
3. assemble the state u = f + v;
4. form the pointwise quotient q = -(A u)/u on nodes where u is not
   numerically tiny, masking the rest.

Synthetic measurements can be generated on the same grid, on a 2x finer
grid (pair-averaged back, avoiding the inverse crime), and with seeded
additive Gaussian noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .forward import Potential, solve_dirichlet
from .grid import (
    GridFunction,
    IndexSets,
    SobolevMachinery,
    build_box,
    build_index_sets,
    build_sobolev,
)
from .ucp import (
    OptimizerNonConvergence,
    RegularizerConfig,
    UcpOperator,
    _filter_gains,
    _filtered_solve,
    _minimal_l2_solve,
    _minl2_workspace,
    assemble_ucp,
    default_alpha_schedule,
)

__all__ = [
    "MeasurementRecord",
    "ReconstructionReport",
    "PipelineError",
    "measurement_to_h",
    "recover_interior",
    "quotient_q",
    "full_pipeline",
    "synthetic_measurement",
]


class PipelineError(RuntimeError):
    """Failure in one of the four recovery steps, labeled with the step number."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step ({step}): {message}")


@dataclass
class MeasurementRecord:
    """One exterior measurement: the datum f and the window values g."""

    f: GridFunction
    g: np.ndarray                 # values on the w2 nodes

    def __post_init__(self) -> None:
        self.g = np.asarray(self.g, dtype=float)
        if not np.all(np.isfinite(self.g)):
            raise ValueError("the measured values g must be finite")
        if not np.any(self.f.values != 0.0):
            raise ValueError("the exterior datum f must be nonzero")


@dataclass
class ReconstructionReport:
    """Everything the pipeline produced, in order of the four steps."""

    h: np.ndarray                 # step-1 datum on the w2 nodes
    v: GridFunction               # recovered interior part (omega-supported)
    u: GridFunction               # f + v
    q_rec: np.ndarray             # per-omega-node values, NaN where masked
    nodal_mask: np.ndarray        # True where the quotient was suppressed
    residuals: list = field(default_factory=list)  # per-alpha trace rows
    scheme_used: RegularizerConfig | None = None
    mask_fraction: float = 0.0
    tau: float = 1e-3


def measurement_to_h(
    m: SobolevMachinery, sets: IndexSets, rec: MeasurementRecord
) -> np.ndarray:
    """Step (1): subtract the datum's own window contribution from g."""
    if np.any(rec.f.values[sets.omega] != 0.0):
        raise PipelineError(1, "datum f has values on interior nodes")
    if rec.g.shape != sets.w2.shape:
        raise PipelineError(1, f"g has {rec.g.shape} values, window has {len(sets.w2)}")
    return rec.g - m.frac_lap.rows(sets.w2, rec.f.values)


def _trace_norms(
    op: UcpOperator, iterates: np.ndarray, window_vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per column of the omega iterates: the dual norm ||Q (B v - h)|| of
    the window residual and the Sobolev norm ||R v||, on the assembled
    operator."""
    resid = op.range_weight @ (op.matrix @ iterates - window_vals[:, None])
    return np.linalg.norm(resid, axis=0), np.linalg.norm(op.domain_chol @ iterates, axis=0)


def recover_interior(
    op: UcpOperator,
    window_vals: np.ndarray,
    cfg: RegularizerConfig,
    keep_iterates: bool = False,
) -> tuple[GridFunction, list]:
    """Step (2): run the selected scheme over the alpha schedule.

    Returns the stop-rule iterate and the residual/penalty trace; without a
    schedule, default_alpha_schedule(sigma_1) is run.  Each scheme solves
    the whole schedule at once: spectral and tikhonov as one filtered solve,
    minimal_l2 as one secular bisection that ends the schedule before the
    first alpha without a certified minimizer.  Each trace row holds the
    dual norm of its iterate's window residual and the iterate's Sobolev
    norm, both from the assembled operator.  The fixed-list rule returns
    the last iterate; ("discrepancy", delta) cuts the trace at the first
    row whose residual is at or below delta and returns that row's iterate.
    `keep_iterates` adds each row's iterate to it (small problems only).
    """
    if cfg.alpha_schedule is None:
        alphas = default_alpha_schedule(float(op.sigmas[0]))
    else:
        alphas = cfg.alpha_schedule
    delta = cfg.stop_rule[1] if cfg.stop_rule[0] == "discrepancy" else None
    window_vals = np.asarray(window_vals, dtype=float)
    if cfg.scheme == "minimal_l2":
        ws = _minl2_workspace(op.machinery, op.sets, op.window)
        tol, cap = cfg.inner_solver_tol, cfg.max_inner_iterations
        iterates = ws.phi_map @ _minimal_l2_solve(ws, window_vals, alphas, tol, cap)[0]
    else:
        gains = _filter_gains(cfg.scheme, op.sigmas, alphas)
        iterates, _ = _filtered_solve(op, window_vals, gains)
    residuals, penalties = _trace_norms(op, iterates, window_vals)

    hits = np.flatnonzero(residuals <= delta) if delta is not None else []
    n = hits[0] + 1 if len(hits) else len(residuals)
    trace: list = []
    for k in range(n):
        row = {
            "alpha": float(alphas[k]),
            "residual_dual": float(residuals[k]),
            "penalty_hs": float(penalties[k]),
        }
        if keep_iterates:
            row["iterate"] = op.embed_domain(iterates[:, k])
        trace.append(row)
    return op.embed_domain(iterates[:, n - 1]), trace


def quotient_q(
    m: SobolevMachinery, sets: IndexSets, u: GridFunction, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Step (4): pointwise quotient q = -(A u)/u on non-tiny nodes.

    Nodes with |u| <= tau * max over omega of |u| are masked (NaN in the
    returned values).  tau must lie in (0, 1).
    """
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0,1), got {tau}")
    u_om = u.values[sets.omega]
    peak = float(np.abs(u_om).max())
    if peak == 0.0:
        raise PipelineError(4, "state vanishes identically on omega (zero datum upstream?)")
    mask = np.abs(u_om) <= tau * peak
    au = m.frac_lap.rows(sets.omega, u.values)
    q_vals = np.full(len(sets.omega), np.nan)
    q_vals[~mask] = -au[~mask] / u_om[~mask]
    return q_vals, mask


def full_pipeline(
    m: SobolevMachinery,
    sets: IndexSets,
    rec: MeasurementRecord,
    cfg: RegularizerConfig,
    tau: float = 1e-3,
) -> ReconstructionReport:
    """Run steps (1)-(4) and assemble the report.  Below s = 1/4 it warns:
    the recovery theory for a merely bounded potential needs s >= 1/4."""
    if m.order.s < 0.25:
        warnings.warn(
            "recovery with a merely bounded potential requires s >= 1/4; "
            f"running at s={m.order.s}",
            stacklevel=2,
        )
    h_vals = measurement_to_h(m, sets, rec)
    try:
        op = assemble_ucp(m, sets)
        v, trace = recover_interior(op, h_vals, cfg)
    except (PipelineError, OptimizerNonConvergence):
        raise
    except Exception as exc:  # noqa: BLE001 - step labeling
        raise PipelineError(2, str(exc)) from exc
    u = GridFunction(rec.f.values + v.values, m.box)
    try:
        q_vals, mask = quotient_q(m, sets, u, tau)
    except PipelineError:
        raise
    except Exception as exc:  # noqa: BLE001
        raise PipelineError(4, str(exc)) from exc
    return ReconstructionReport(
        h=h_vals,
        v=v,
        u=u,
        q_rec=q_vals,
        nodal_mask=mask,
        residuals=trace,
        scheme_used=cfg,
        mask_fraction=float(mask.mean()),
        tau=tau,
    )


def _pair_average(vals: np.ndarray) -> np.ndarray:
    return 0.5 * (vals[0::2] + vals[1::2])


def synthetic_measurement(
    m: SobolevMachinery,
    sets: IndexSets,
    q: Potential,
    f: GridFunction,
    noise_level: float = 0.0,
    seed: int = 0,
    fine_factor: int = 1,
    region_specs: tuple | None = None,
    profile_fns: tuple | None = None,
) -> MeasurementRecord:
    """Generate a measurement record by a forward solve.

    With ``fine_factor == 2`` the forward problem is solved on a grid with
    twice the resolution and the window data pair-averaged back onto the
    coarse window nodes; this requires `region_specs` (the interval
    specifications used to build the index sets) and `profile_fns`, a pair
    of callables (q_of_x, f_of_x) evaluating the potential on interior
    nodes and the datum on control-window nodes of the fine grid.

    Noise is additive Gaussian on g with standard deviation
    noise_level * max|g|, drawn from a generator seeded by `seed`.
    """
    if noise_level < 0:
        raise ValueError("noise level must be >= 0")
    if fine_factor == 1:
        g = m.frac_lap.rows(sets.w2, solve_dirichlet(m, sets, q, f).u.values)
    elif fine_factor == 2:
        if region_specs is None or profile_fns is None:
            raise ValueError("fine-grid synthesis needs region_specs and profile_fns")
        omega_spec, w1_spec, w2_spec = region_specs
        q_of_x, f_of_x = profile_fns
        box_f = build_box(m.box.radius, 2 * m.box.points_per_axis, m.box.dimension)
        m_f = build_sobolev(box_f, m.order)
        sets_f = build_index_sets(box_f, omega_spec, w1_spec, w2_spec)
        q_f = Potential(q_of_x(box_f.nodes[sets_f.omega]))
        f_vals = np.zeros(box_f.size)
        f_vals[sets_f.w1] = f_of_x(box_f.nodes[sets_f.w1])
        sol = solve_dirichlet(m_f, sets_f, q_f, GridFunction(f_vals, box_f))
        g_fine = m_f.frac_lap.rows(sets_f.w2, sol.u.values)
        if len(g_fine) != 2 * len(sets.w2):
            raise ValueError("fine window nodes do not pair-align with the coarse window")
        g = _pair_average(g_fine)
    else:
        raise ValueError("fine_factor must be 1 or 2")

    if noise_level > 0:
        rng = np.random.default_rng(seed)
        g = g + rng.standard_normal(len(g)) * (noise_level * float(np.abs(g).max()))
    return MeasurementRecord(f=f.copy(), g=g)
