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
    assemble_ucp,
    default_alpha_schedule,
    minimal_l2_reconstruct,
    spectral_reconstruct,
    tikhonov_reconstruct,
    ucp_svd,
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
    "infill_nearest",
]


class PipelineError(RuntimeError):
    """Failure in one of the four recovery steps, labeled with the step number."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step ({step}): {message}")
        self.step = step


@dataclass
class MeasurementRecord:
    """One exterior measurement: the datum f and the window values g."""

    f: GridFunction
    g: np.ndarray                 # values on the w2 nodes
    noise_level: float = 0.0

    def __post_init__(self) -> None:
        self.g = np.asarray(self.g, dtype=float)
        if not np.all(np.isfinite(self.g)):
            raise ValueError("the measured values g must be finite")
        if not np.any(self.f.values != 0.0):
            raise ValueError("the exterior datum f must be nonzero")
        if self.noise_level < 0:
            raise ValueError("noise level must be >= 0")


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


def recover_interior(
    op: UcpOperator,
    window_vals: np.ndarray,
    cfg: RegularizerConfig,
    keep_iterates: bool = False,
) -> tuple[GridFunction, list]:
    """Step (2): run the selected scheme over the alpha schedule.

    Returns the stop-rule iterate and the residual/penalty trace.  With the
    fixed-list rule the final (smallest-alpha) iterate is returned; with
    ("discrepancy", delta) the first iterate whose dual residual reaches
    delta.  Without a schedule, default_alpha_schedule(sigma_1) is run.
    Every scheme's trace row holds the dual norm of the window residual and
    the Sobolev norm of the iterate; when `keep_iterates` is set it also
    carries the iterate itself (small problems only).
    """
    if cfg.alpha_schedule is None:
        alphas = default_alpha_schedule(float(op.svd_factors[1][0]))
    else:
        alphas = cfg.alpha_schedule
    svd = ucp_svd(op) if cfg.scheme == "spectral" else None

    kind = cfg.stop_rule[0]
    delta = cfg.stop_rule[1] if kind == "discrepancy" else None
    trace: list = []
    chosen: GridFunction | None = None
    for alpha in alphas:
        if cfg.scheme == "spectral":
            v = spectral_reconstruct(svd, window_vals, alpha)
        elif cfg.scheme == "tikhonov":
            v, _ = tikhonov_reconstruct(op, window_vals, alpha)
        else:
            try:
                res = minimal_l2_reconstruct(
                    op.machinery, op.sets, window_vals, alpha,
                    tol=cfg.inner_solver_tol,
                    max_iterations=cfg.max_inner_iterations,
                    window=op.window,
                )
            except OptimizerNonConvergence:
                if chosen is None:
                    raise
                # the data's null-space component does not depend on alpha:
                # a smaller alpha only comes closer to it, or passes it
                break
            v = res.phi_hat
        residual = op.dual_norm(op.apply(v) - window_vals)
        # hs_norm of the omega-supported iterate, without the N x N Gram product
        penalty = float(np.linalg.norm(op.domain_chol @ v.values[op.sets.omega]))
        row = {"alpha": float(alpha), "residual_dual": residual, "penalty_hs": penalty}
        if keep_iterates:
            row["iterate"] = v
        trace.append(row)
        chosen = v
        if delta is not None and residual <= delta:
            break
    return chosen, trace


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
    """Run steps (1)-(4) and assemble the report."""
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
        q_f = Potential(q_of_x(box_f.nodes[sets_f.omega]), q.regularity_tag)
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
    return MeasurementRecord(f=f.copy(), g=g, noise_level=noise_level)
