"""Reproducible experiments: operator spectrum, noise-stability sweep, and
the oscillating-source decay series.

The decay series applies the fractional Laplacian to oscillatory interior
functions of increasing index k and records the dual-norm size of the trace
on a far two-component shell window, together with a least squares fit of
log-norm against k.  The k-th function is the interval sine of frequency k
made orthogonal to all polynomials of degree < k on each parity class of the
interior nodes; those spans nest in k, so one QR serves every k.  Far from
the interior the collocation matrix is a smooth kernel on each offset parity
(a checkerboard from the symbol's kink at the Nyquist frequency), so those
vanishing moments remove the first k terms of the far-field expansion and
the trace decays like (2(R - 1))^-k at shell radius R.  Plain interval sines
keep O(1/k) low moments and decay only algebraically.

The stability sweep perturbs exact window data with seeded noise at a
ladder of levels, reconstructs with a configurable scheme, measures errors
in a weaker Sobolev norm, and fits both a logarithmic modulus
C*E / log(C*E/eta)^sigma and a power law to the (noise, error) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    FractionalOrder,
    GridFunction,
    IndexSets,
    SobolevMachinery,
    build_box,
    build_index_sets,
    build_sobolev,
    hs_norm,
    l2_norm,
    smooth_bump,
)
from .ucp import DISCREPANCY_FACTOR, RegularizerConfig, UcpOperator, default_alpha_schedule
from .reconstruct import recover_interior

__all__ = [
    "InstabilitySeries",
    "StabilitySweep",
    "dirichlet_eigenfunctions",
    "instability_series",
    "make_instability_geometry",
    "stability_sweep",
    "spectrum_report",
]

# the k range of the decay fit, both ends included
DECAY_FIT_RANGE = (2, 12)


@dataclass
class InstabilitySeries:
    """Window-trace norms of increasingly oscillatory interior functions."""

    k_values: np.ndarray
    vk: np.ndarray                # moment-annihilating sines on omega, row k - 1, unit L2 norm
    hk_norms: np.ndarray          # dual norms of their window traces
    decay_fit: dict               # slope/r2 of log ||h_k|| vs k, k_fit, floor


@dataclass
class StabilitySweep:
    """Reconstruction errors against noise level, with modulus fits."""

    recon_errors: np.ndarray      # mean over trials, weaker-norm errors
    per_trial: np.ndarray         # levels x trials
    fitted_modulus: dict          # {"C", "sigma", "residual"}
    power_fit: dict               # {"residual"} of log err vs log eta
    energy: float                 # Sobolev size of the exact unknown


def dirichlet_eigenfunctions(
    m: SobolevMachinery, sets: IndexSets, k_max: int
) -> np.ndarray:
    """Interval Laplacian eigenfunctions on omega, one row per k.

    Requires omega to be a single interval (a, b); row k - 1 holds
    sin(k pi (x - a)/(b - a)) at the omega nodes for k = 1..k_max,
    normalized to unit discrete interior L2 norm.  On a cell-centered grid
    aligned with the interval the sine family is exactly orthonormal.
    """
    om = sets.omega
    if np.any(np.diff(om) != 1):
        raise ValueError("omega must be a single interval of consecutive nodes")
    x = m.box.nodes[om]
    h = m.box.spacing
    a, b = x[0] - h / 2.0, x[-1] + h / 2.0
    out = np.sin(np.arange(1, k_max + 1)[:, None] * np.pi * (x - a) / (b - a))
    return out / np.sqrt(h * np.sum(out**2, axis=1, keepdims=True))


def _fit_loglinear(x: np.ndarray, values: np.ndarray) -> dict:
    """Least-squares line through (x, log values): its slope, its r2 and the
    residual sum of squares r @ r, r = slope * x + intercept - log values."""
    logs = np.log(values)
    slope, intercept = np.polyfit(x, logs, 1)
    r = slope * x + intercept - logs
    ss_res = float(r @ r)
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "r2": r2, "residual": ss_res}


def make_instability_geometry(
    shell_radius: float,
    s: float,
    box_radius: float = 32.0,
    points: int = 1024,
) -> tuple[SobolevMachinery, IndexSets]:
    """Box and regions for the decay series: interior (-1,1), window the
    symmetric shell {shell_radius - 1 < |x| < shell_radius}."""
    if not shell_radius >= 13.0:
        raise ValueError(f"shell radius must be >= 13, got {shell_radius}: the far-field "
                         "expansion needs the window at distance >= 12 from the interior region")
    if box_radius <= shell_radius:
        raise ValueError("box radius must exceed the shell radius")
    box = build_box(box_radius, points)
    m = build_sobolev(box, FractionalOrder(s))
    shell = [(-shell_radius, -(shell_radius - 1.0)), (shell_radius - 1.0, shell_radius)]
    sets = build_index_sets(box, [(-1.0, 1.0)], shell, shell)
    return m, sets


def instability_series(
    m: SobolevMachinery,
    sets: IndexSets,
    k_max: int = 12,
) -> InstabilitySeries:
    """Decay series of window traces of oscillatory interior functions.

    v_k is the k-th interval sine of `dirichlet_eigenfunctions` projected
    onto the functions whose discrete moments y^p, p < k, vanish on the
    even and on the odd omega nodes, and rescaled to unit interior L2 norm.
    One QR of the parity-split Legendre basis in degree order (even p0, odd
    p0, even p1, ...) serves every k: the first 2k columns of Q span p < k.
    h_k is the fractional Laplacian of v_k restricted to the window (both
    shell components), measured in the dual Sobolev norm.

    The decay fit runs over the k in DECAY_FIT_RANGE whose norm exceeds the
    rounding floor eps * ||A e_0|| * ||v_k|| / sqrt(n) per window node
    (A the n x n collocation matrix, ||v_k|| the Euclidean norm of its nodal
    values), measured in the same dual norm.  That is the FFT rounding error
    in the matrix entries carried into the product; the measured floor of
    the series sits about 4x below it.  `decay_fit` records the fitted k as
    `k_fit` and the threshold as `floor`.

    Raises ValueError when k_max leaves fewer than two k in DECAY_FIT_RANGE,
    when 2 * k_max reaches the number of omega nodes (the moment conditions
    would leave no function) or when fewer than two k in DECAY_FIT_RANGE
    clear the floor.
    """
    lo, hi = DECAY_FIT_RANGE
    if k_max < lo + 1:
        raise ValueError(f"kmax {k_max} must be >= {lo + 1}: the decay fit needs two k in "
                         f"{lo}..{hi}")
    n_om = len(sets.omega)
    if 2 * k_max >= n_om:
        raise ValueError(
            f"kmax {k_max} needs more than {2 * k_max} interior nodes, got {n_om}; "
            "refine the grid or lower kmax"
        )
    vk = dirichlet_eigenfunctions(m, sets, k_max)
    om = sets.omega
    h = m.box.spacing
    x = m.box.nodes[om]
    y = (x - 0.5 * (x[0] + x[-1])) / (0.5 * (x[-1] - x[0] + h))
    basis = np.polynomial.legendre.legvander(y, k_max - 1)  # same span as y^p
    even = (np.arange(len(y)) % 2 == 0)[:, None]
    onb, _ = np.linalg.qr(np.stack([basis * even, basis * ~even], axis=2).reshape(len(y), -1))
    ks = np.arange(1, k_max + 1)
    vk -= (vk @ onb * (np.arange(2 * k_max) < 2 * ks[:, None])) @ onb.T
    vk /= np.sqrt(h * np.sum(vk**2, axis=1, keepdims=True))
    traces = m.frac_lap[sets.w2[:, None], om] @ vk.T  # one column per k
    q = m.dual_weight(sets.w2)  # one Gram factor serves every dual norm below
    norms = np.linalg.norm(q @ traces, axis=0)
    # ||v_k|| = 1/sqrt(h) for every k, so the floor is one number per series
    per_node = np.finfo(float).eps * np.linalg.norm(m.frac_lap.col) / np.sqrt(h * m.box.size)
    floor = per_node * np.linalg.norm(q @ np.ones(len(sets.w2)))
    sel = (ks >= lo) & (ks <= hi) & (norms > floor)
    if np.count_nonzero(sel) < 2:
        raise ValueError(
            f"fewer than two k in {lo}..{hi} have window norms above the "
            f"rounding floor {floor:.3e}"
        )
    line = _fit_loglinear(ks[sel], norms[sel])
    fit = {"slope": line["slope"], "r2": line["r2"], "k_fit": [int(k) for k in ks[sel]],
           "floor": float(floor)}
    return InstabilitySeries(k_values=ks, vk=vk, hk_norms=norms, decay_fit=fit)


def _fit_log_modulus(eta: np.ndarray, err: np.ndarray, energy: float) -> dict:
    """Fit err ~ C*E / log(C*E/eta)^sigma in log space.

    For fixed t = log C the log-residual log(C E) - sigma log log(C E/eta)
    - log err is linear in sigma, so sigma is its least-squares slope,
    floored at the smallest positive normal double (the model needs
    sigma > 0).  Only t is searched: a scan of [t0, t0 + 50], where
    t0 = log(max eta / E) puts every C E / eta at or above 1, then repeated
    finer scans of the cell around the best point, down to a width of 1e-12.
    log log(C E/eta) is log(t + log E - log eta): no ratio C E / eta is
    formed, so a ladder down to subnormal eta does not overflow.
    """
    log_e, log_eta, log_err = np.log(energy), np.log(eta), np.log(err)

    def profile(t: float) -> tuple[float, float]:  # (sum of squares, sigma)
        a = t + log_e - log_err
        l = np.log(np.maximum(t + log_e - log_eta, np.log1p(1e-9)))
        sigma = max(float(a @ l) / float(l @ l), np.finfo(float).tiny)
        r = a - sigma * l
        return float(r @ r), sigma

    t0 = float(np.log(eta.max() / energy))
    ts = np.linspace(t0, t0 + 50.0, 201)
    while True:
        costs = [profile(t)[0] for t in ts]
        k = int(np.argmin(costs))
        if ts[-1] - ts[0] <= 1e-12:
            break
        ts = np.linspace(ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)], 21)
    cost, sigma = profile(ts[k])
    if not np.isfinite(cost):
        return {"C": np.nan, "sigma": np.nan, "residual": np.inf}
    return {"C": float(np.exp(ts[k])), "sigma": sigma, "residual": cost}


def stability_sweep(
    op: UcpOperator,
    scheme: str,
    trials: int,
    noise_levels: np.ndarray,
    s_prime: float,
    seed: int = 0,
    alpha_schedule=None,
) -> StabilitySweep:
    """Noise-ladder reconstruction experiment in a weaker error norm.

    For each relative noise level eta: perturb the exact window data of a
    fixed smooth interior truth by Gaussian noise scaled to eta times the
    data's dual norm, reconstruct with `scheme` over `alpha_schedule` (stop
    at DISCREPANCY_FACTOR * eta * ||h||), and record the order-`s_prime`
    Sobolev error.  Each (level, trial) pair owns its own seeded generator.

    Raises ValueError unless 0 <= s_prime < s (s_prime = 0 is the L2 norm),
    trials >= 1, every level is finite and >= 0, at least two distinct
    levels are positive (the fits need two points), and no positive level
    underflows to eta = level * ||h|| = 0.
    """
    m = op.machinery
    if not (0.0 <= s_prime < m.order.s):
        raise ValueError(f"s_prime must lie in [0, {m.order.s}), got {s_prime}")
    noise_levels = np.asarray(noise_levels, dtype=float)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not np.all(np.isfinite(noise_levels) & (noise_levels >= 0)):
        raise ValueError("noise levels must be finite and >= 0")
    if len(np.unique(noise_levels[noise_levels > 0])) < 2:
        raise ValueError("the noise ladder needs at least two distinct positive levels")
    if alpha_schedule is None:
        # the sweep must resolve noise floors far below the pipeline default
        alpha_schedule = default_alpha_schedule(op.sigmas[0], kmax=48, step=0.25)
    m_weak = build_sobolev(m.box, FractionalOrder(s_prime)) if s_prime > 0 else None

    om_nodes = m.box.nodes[op.omega]
    center = 0.5 * (om_nodes[0] + om_nodes[-1])
    width = 0.6 * 0.5 * (om_nodes[-1] - om_nodes[0] + m.box.spacing)
    truth = op.embed_domain(smooth_bump(m.box, center, width).values[op.omega])
    energy = hs_norm(m, truth)
    h_exact = op.apply(truth)
    h_norm = op.dual_norm(h_exact)
    under = noise_levels[(noise_levels > 0) & (noise_levels * h_norm == 0)]
    if len(under):
        raise ValueError(f"noise level {under[0]:g} times ||h|| = {h_norm:.6g} underflows to 0")

    def weak_err(v: GridFunction) -> float:
        d = v.values - truth.values
        return l2_norm(m, d) if m_weak is None else hs_norm(m_weak, GridFunction(d, m.box))

    def one_trial(i: int, t: int) -> float:
        lvl = noise_levels[i]
        rng = np.random.default_rng([seed, t, i])
        noise = rng.standard_normal(op.n_window)
        nn = op.dual_norm(noise)
        if nn > 0 and lvl > 0:
            noise *= lvl * h_norm / nn
        else:
            noise = np.zeros(op.n_window)
        data = h_exact + noise
        stop = ("discrepancy", DISCREPANCY_FACTOR * lvl * h_norm) if lvl > 0 else ("fixed_list",)
        v, _ = recover_interior(op, data, RegularizerConfig(scheme, alpha_schedule, stop))
        return weak_err(v)

    per_trial = np.array(
        [[one_trial(i, t) for t in range(trials)] for i in range(len(noise_levels))]
    )
    mean_errors = per_trial.mean(axis=1)

    pos = noise_levels > 0
    eta = noise_levels[pos] * h_norm
    err = mean_errors[pos]
    return StabilitySweep(
        recon_errors=mean_errors,
        per_trial=per_trial,
        fitted_modulus=_fit_log_modulus(eta, err, energy),
        power_fit={"residual": _fit_loglinear(np.log(eta), err)["residual"]},
        energy=energy,
    )


def spectrum_report(op: UcpOperator) -> dict:
    """Tabulate the singular spectrum with a log-decay fit over the leading modes."""
    sig = op.sigmas
    j = np.arange(1, len(sig) + 1)
    lead = min(20, op.numerical_rank)
    # a line needs two points: below two leading modes the slope is nan
    slope = _fit_loglinear(j[:lead].astype(float), sig[:lead])["slope"] if lead >= 2 else np.nan
    return {
        "j": j,
        "sigma": sig,
        "log10_sigma": np.log10(np.maximum(sig, np.finfo(float).tiny)),
        "numerical_rank": op.numerical_rank,
        "slope": slope,
    }
