"""Single-measurement recovery pipeline.

From one exterior datum f (supported in the control window) and the
measured values g of the fractional Laplacian of the state on the
measurement window, the potential is recovered in four steps:

1. subtract the known datum contribution: h = g - (A f)|_W;
2. invert the interior-to-window map for the interior part v;
3. assemble the state u = f + v;
4. form the pointwise quotient q = -(A u)/u on nodes where u is not
   numerically tiny, masking the rest.

Synthetic measurements are generated by a forward solve on the same
grid, with optional seeded additive Gaussian noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .forward import Potential, solve_dirichlet
from .grid import GridFunction, IndexSets, SobolevMachinery
from .ucp import (
    OptimizerNonConvergence,
    RegularizerConfig,
    UcpOperator,
    assemble_ucp,
    solve_schedule,
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
        if not np.isfinite(self.g).all():
            raise ValueError("the measured values g must be finite")
        if not self.f.values.any():
            raise ValueError("the exterior datum f must be nonzero")


@dataclass
class ReconstructionReport:
    """Everything the pipeline produced, in order of the four steps."""

    h: np.ndarray                 # step-1 datum on the w2 nodes
    v: GridFunction               # recovered interior part (omega-supported)
    u: GridFunction               # f + v
    q_rec: np.ndarray             # per-omega-node values, NaN where masked
    nodal_mask: np.ndarray        # True where the quotient was suppressed
    residuals: list               # per-alpha trace rows
    scheme_used: RegularizerConfig
    mask_fraction: float
    tau: float


def measurement_to_h(
    m: SobolevMachinery, sets: IndexSets, rec: MeasurementRecord
) -> np.ndarray:
    """Step (1): subtract the datum's own window contribution from g."""
    if rec.f.values[sets.omega].any():
        raise PipelineError(1, "datum f has values on interior nodes")
    if rec.g.shape != sets.w2.shape:
        raise PipelineError(1, f"g has {rec.g.size} values, window has {len(sets.w2)}")
    return rec.g - m.frac_lap.rows(sets.w2, rec.f.values)


def _trace_norms(
    op: UcpOperator, iterates: np.ndarray, window_vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per column of the omega iterates: the dual norm ||Q (B v - h)|| of
    the window residual and the Sobolev norm ||R v||, on the assembled
    operator."""
    resid = op.range_weight @ (op.matrix @ iterates - window_vals[:, None])
    return (np.sqrt(np.add.reduce(np.square(resid), axis=0)),
            np.sqrt(np.add.reduce(np.square(op.domain_chol @ iterates), axis=0)))


def recover_interior(
    op: UcpOperator,
    window_vals: np.ndarray,
    cfg: RegularizerConfig,
) -> tuple[GridFunction, list]:
    """Step (2): run the selected scheme over the alpha schedule.

    Returns the stop-rule iterate and the residual/penalty trace; without a
    schedule, the operator's default_schedule is run.  solve_schedule solves
    the whole schedule at once; minimal_l2 ends it before the first alpha
    without a certified minimizer.  Each trace row holds the dual norm of
    its iterate's window residual and the iterate's Sobolev norm, both
    from the assembled operator.  The fixed-list rule returns
    the last iterate; ("discrepancy", delta) cuts the trace at the first
    row whose residual is at or below delta and returns that row's iterate.
    A kept row or a returned iterate that is not finite (data so large
    that the norms overflow) raises PipelineError; minimal_l2 refuses such
    data by ValueError before it solves.
    """
    alphas = op.default_schedule if cfg.alpha_schedule is None else cfg.alpha_schedule
    delta = cfg.stop_rule[1] if cfg.stop_rule[0] == "discrepancy" else None
    window_vals = np.asarray(window_vals, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        iterates = solve_schedule(op, window_vals, cfg, alphas)
        residuals, penalties = _trace_norms(op, iterates, window_vals)

    hits = (residuals <= delta).nonzero()[0] if delta is not None else []
    n = hits[0] + 1 if len(hits) else len(residuals)
    if not np.isfinite(np.concatenate((residuals[:n], penalties[:n], iterates[:, n - 1]))).all():
        rows = np.isfinite(residuals[:n]) & np.isfinite(penalties[:n])
        k = n - 1 if rows.all() else np.argmin(rows)
        raise PipelineError(2, f"the iterate at alpha {alphas[k]:.6g} has no finite "
                               "residual or norm: the data are too large")
    trace = [{"alpha": a, "residual_dual": r, "penalty_hs": p} for a, r, p in
             zip(alphas[:n].tolist(), residuals[:n].tolist(), penalties[:n].tolist())]
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
    size = np.abs(u_om)
    peak = float(size.max())
    if peak == 0.0:
        raise PipelineError(4, "state vanishes identically on omega (zero datum upstream?)")
    mask = size <= tau * peak
    au = m.frac_lap.rows(sets.omega, u.values)
    return np.divide(-au, u_om, out=np.full(len(u_om), np.nan), where=~mask), mask


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
    if not v.values.any():
        # f vanishes on omega (step 1), so u = v there and step 4 has no quotient
        row, stop = trace[-1], cfg.stop_rule
        fired = stop[0] == "discrepancy" and row["residual_dual"] <= stop[1]
        why = f", at or below delta {stop[1]:.6g}" if fired else ""
        raise PipelineError(2, "the recovered interior part is zero at the accepted alpha "
                               f"{row['alpha']:.6g} (residual {row['residual_dual']:.6g}{why})")
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
        mask_fraction=float(np.count_nonzero(mask) / mask.size),
        tau=tau,
    )


def synthetic_measurement(
    m: SobolevMachinery,
    sets: IndexSets,
    q: Potential,
    f: GridFunction,
    noise_level: float = 0.0,
    seed: int = 0,
) -> MeasurementRecord:
    """Generate a measurement record by a forward solve on the same grid.

    Noise is additive Gaussian on g with standard deviation
    noise_level * max|g|, drawn from a generator seeded by `seed`.
    """
    if not noise_level >= 0:
        raise ValueError("noise level must be >= 0")
    g = m.frac_lap.rows(sets.w2, solve_dirichlet(m, sets, q, f).values)
    if noise_level > 0:
        rng = np.random.default_rng(seed)
        g = g + rng.standard_normal(len(g)) * (noise_level * float(np.abs(g).max()))
    return MeasurementRecord(f=f.copy(), g=g)
