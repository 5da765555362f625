"""Reproducible experiments: operator spectrum, noise-stability sweep, and
the oscillating-source decay series.

The decay series applies the fractional Laplacian to oscillatory interior
functions of increasing index k and records the dual-norm size of the trace
on a far two-component shell window, together with a least squares fit of
log-norm against k.  The k-th function is the interval sine of frequency k
made orthogonal to all polynomials of degree < k on each parity class of the
interior nodes.  Far from the interior the collocation matrix is a smooth
kernel on each offset parity (a checkerboard from the symbol's kink at the
Nyquist frequency), so those vanishing moments remove the first k terms of
the far-field expansion and the trace decays like (2(R - 1))^-k at shell
radius R.  Plain interval sines keep O(1/k) low moments and decay only
algebraically.

The stability sweep perturbs exact window data with seeded noise at a
ladder of levels, reconstructs with a configurable scheme, measures errors
in a weaker Sobolev norm, and fits both a logarithmic modulus
C*E / log(C*E/eta)^sigma and a power law to the (noise, error) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    FractionalOrder,
    GridFunction,
    IndexSets,
    SobolevMachinery,
    build_box,
    build_index_sets,
    build_sobolev,
    hminus_s_inner,
    hminus_s_norm,
    hs_norm,
    smooth_bump,
)
from .ucp import RegularizerConfig, UcpOperator
from .reconstruct import recover_interior

__all__ = [
    "InstabilitySeries",
    "StabilitySweep",
    "dirichlet_eigenfunctions",
    "instability_series",
    "make_instability_geometry",
    "stability_sweep",
    "spectrum_report",
    "fit_loglinear",
]


@dataclass
class InstabilitySeries:
    """Window-trace norms of increasingly oscillatory interior functions."""

    k_values: np.ndarray
    vk: list                      # moment-annihilating sines, unit interior L2 norm
    hk_norms: np.ndarray          # dual norms of their window traces
    decay_fit: dict               # slope/intercept/r2 of log ||h_k|| vs k, k_fit, floor


@dataclass
class StabilitySweep:
    """Reconstruction errors against noise level, with modulus fits."""

    noise_levels: np.ndarray
    recon_errors: np.ndarray      # mean over trials, weaker-norm errors
    per_trial: np.ndarray         # levels x trials
    fitted_modulus: dict          # {"C", "sigma", "residual"}
    power_fit: dict               # {"C", "p", "residual"}
    energy: float                 # Sobolev size of the exact unknown


def dirichlet_eigenfunctions(
    m: SobolevMachinery, sets: IndexSets, k_max: int
) -> list[GridFunction]:
    """Interval Laplacian eigenfunctions on omega, zero-extended.

    Requires omega to be a single interval (a, b); returns
    sin(k pi (x - a)/(b - a)) for k = 1..k_max, normalized to unit discrete
    interior L2 norm.  On a cell-centered grid aligned with the interval
    the sine family is exactly orthonormal.
    """
    om = sets.omega
    if np.any(np.diff(om) != 1):
        raise ValueError("omega must be a single interval of consecutive nodes")
    x = m.box.nodes[om]
    h = m.box.spacing
    a, b = x[0] - h / 2.0, x[-1] + h / 2.0
    out = []
    for k in range(1, k_max + 1):
        vals = np.zeros(m.box.size)
        vals[om] = np.sin(k * np.pi * (x - a) / (b - a))
        nrm = np.sqrt(h * np.sum(vals[om] ** 2))
        vals /= nrm
        out.append(GridFunction(vals, m.box))
    return out


def fit_loglinear(k: np.ndarray, values: np.ndarray) -> dict:
    """Least-squares line through (k, log values); returns slope/intercept/r2."""
    logs = np.log(values)
    slope, intercept = np.polyfit(k, logs, 1)
    pred = slope * k + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2}


def make_instability_geometry(
    shell_radius: float,
    s: float,
    box_radius: float = 32.0,
    points: int = 1024,
) -> tuple[SobolevMachinery, IndexSets]:
    """Box and regions for the decay series: interior (-1,1), window the
    symmetric shell {shell_radius - 1 < |x| < shell_radius}."""
    if shell_radius < 13.0:
        raise ValueError(f"shell radius must be >= 13, got {shell_radius}: the far-field "
                         "expansion needs the window at distance >= 12 from the interior region")
    if box_radius <= shell_radius:
        raise ValueError("box radius must exceed the shell radius")
    box = build_box(box_radius, points)
    m = build_sobolev(box, FractionalOrder(s))
    shell = [(-shell_radius, -(shell_radius - 1.0)), (shell_radius - 1.0, shell_radius)]
    sets = build_index_sets(box, [(-1.0, 1.0)], shell, shell)
    return m, sets


def _moment_free(vals: np.ndarray, y: np.ndarray, degree: int) -> np.ndarray:
    """Orthogonal projection of `vals` onto the vectors whose moments y^p,
    p < degree, vanish on the even and, separately, the odd positions."""
    basis = np.polynomial.legendre.legvander(y, degree - 1)  # same span as y^p
    even = (np.arange(len(y)) % 2 == 0)[:, None]
    q, _ = np.linalg.qr(np.hstack([basis * even, basis * ~even]))
    return vals - q @ (q.T @ vals)


def instability_series(
    m: SobolevMachinery,
    sets: IndexSets,
    k_max: int = 12,
    fit_range: tuple[int, int] = (2, 12),
) -> InstabilitySeries:
    """Decay series of window traces of oscillatory interior functions.

    v_k is the k-th interval sine of `dirichlet_eigenfunctions` projected
    onto the functions whose discrete moments y^p, p < k, vanish on the
    even and on the odd omega nodes, and rescaled to unit interior L2 norm.
    h_k is the fractional Laplacian of v_k restricted to the window (both
    shell components), measured in the dual Sobolev norm.

    The decay fit runs over the k in `fit_range` whose norm exceeds the
    rounding floor eps * ||A e_0|| * ||v_k|| / sqrt(n) per window node
    (A the n x n collocation matrix, ||v_k|| the Euclidean norm of its nodal
    values), measured in the same dual norm.  That is the FFT rounding error
    in the matrix entries carried into the product; the measured floor of
    the series sits about 4x below it.  `decay_fit` records the fitted k as
    `k_fit` and the threshold as `floor`.

    Raises ValueError when 2 * k_max reaches the number of omega nodes (the
    moment conditions would leave no function) or when fewer than two k in
    `fit_range` clear the floor.
    """
    n_om = len(sets.omega)
    if 2 * k_max >= n_om:
        raise ValueError(
            f"kmax {k_max} needs more than {2 * k_max} interior nodes, got {n_om}; "
            "refine the grid or lower kmax"
        )
    phis = dirichlet_eigenfunctions(m, sets, k_max)
    om = sets.omega
    h = m.box.spacing
    x = m.box.nodes[om]
    y = (x - 0.5 * (x[0] + x[-1])) / (0.5 * (x[-1] - x[0] + h))
    vks = []
    for k, phi in enumerate(phis, start=1):
        v = _moment_free(phi.values[om], y, k)
        vals = np.zeros(m.box.size)
        vals[om] = v / np.sqrt(h * np.sum(v**2))
        vks.append(GridFunction(vals, m.box))
    ks = np.arange(1, k_max + 1)
    traces = [m.frac_lap.rows(sets.w2, vk.values) for vk in vks]
    norms = np.sqrt([hminus_s_inner(m, t, t, sets.w2) for t in traces])
    # ||v_k|| = 1/sqrt(h) for every k, so the floor is one number per series
    per_node = np.finfo(float).eps * np.linalg.norm(m.frac_lap.col) / np.sqrt(h * m.box.size)
    floor = per_node * hminus_s_norm(m, GridFunction(np.ones(m.box.size), m.box), sets.w2)
    lo, hi = fit_range
    sel = (ks >= lo) & (ks <= hi) & (norms > floor)
    if np.count_nonzero(sel) < 2:
        raise ValueError(
            f"fewer than two k in {lo}..{hi} have window norms above the "
            f"rounding floor {floor:.3e}"
        )
    fit = fit_loglinear(ks[sel], norms[sel])
    fit["k_fit"] = [int(k) for k in ks[sel]]
    fit["floor"] = float(floor)
    return InstabilitySeries(k_values=ks, vk=vks, hk_norms=norms, decay_fit=fit)


def _fit_log_modulus(eta: np.ndarray, err: np.ndarray, energy: float) -> dict:
    """Fit err ~ C*E / log(C*E/eta)^sigma in log space.

    For fixed t = log C the log-residual log(C E) - sigma log log(C E/eta)
    - log err is linear in sigma, so sigma is its least-squares slope,
    floored at the smallest positive normal double (the model needs
    sigma > 0).  Only t is searched: a scan of [t0, t0 + 50], where
    t0 = log(max eta / E) puts every C E / eta at or above 1, then repeated
    finer scans of the cell around the best point, down to a width of 1e-12.
    """
    log_e, log_err = np.log(energy), np.log(err)

    def profile(t: float) -> tuple[float, float]:  # (sum of squares, sigma)
        a = t + log_e - log_err
        l = np.log(np.log(np.maximum(np.exp(t) * energy / eta, 1.0 + 1e-9)))
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


def _fit_power_law(eta: np.ndarray, err: np.ndarray) -> dict:
    """Fit err ~ C * eta^p: the least-squares line through (log eta, log err)."""
    log_eta, log_err = np.log(eta), np.log(err)
    p, log_c = np.polyfit(log_eta, log_err, 1)
    resid = log_c + p * log_eta - log_err
    return {"C": float(np.exp(log_c)), "p": float(p), "residual": float(resid @ resid)}


def stability_sweep(
    op: UcpOperator,
    cfg: RegularizerConfig,
    trials: int,
    noise_levels: np.ndarray,
    s_prime: float,
    seed: int = 0,
) -> StabilitySweep:
    """Noise-ladder reconstruction experiment in a weaker error norm.

    For each relative noise level eta: perturb the exact window data of a
    fixed smooth interior truth by Gaussian noise scaled to eta times the
    data's dual norm, reconstruct with `cfg` (discrepancy stopping at
    1.5 * eta * ||h||), and record the error in the order-`s_prime` Sobolev
    norm.  Each (level, trial) pair owns its own seeded generator stream.

    Raises ValueError unless 0 <= s_prime < s (s_prime = 0 is the L2 norm),
    trials >= 1, every level is finite and >= 0, and at least two levels
    are positive (the fits need two points).
    """
    m = op.machinery
    if not (0.0 <= s_prime < m.order.s):
        raise ValueError(f"s_prime must lie in [0, {m.order.s}), got {s_prime}")
    noise_levels = np.asarray(noise_levels, dtype=float)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not np.all(np.isfinite(noise_levels) & (noise_levels >= 0)):
        raise ValueError("noise levels must be finite and >= 0")
    if np.count_nonzero(noise_levels > 0) < 2:
        raise ValueError("the noise ladder needs at least two positive levels")
    m_weak = build_sobolev(m.box, FractionalOrder(s_prime)) if s_prime > 0 else None

    om_nodes = m.box.nodes[op.sets.omega]
    center = 0.5 * (om_nodes[0] + om_nodes[-1])
    width = 0.6 * 0.5 * (om_nodes[-1] - om_nodes[0] + m.box.spacing)
    truth = op.embed_domain(smooth_bump(m.box, center, width).values[op.sets.omega])
    energy = hs_norm(m, truth)
    h_exact = op.apply(truth)
    h_norm = op.dual_norm(h_exact)

    def weak_err(v: GridFunction) -> float:
        d = GridFunction(v.values - truth.values, m.box)
        if m_weak is None:
            return float(np.sqrt(m.box.spacing * np.sum(d.values**2)))
        return hs_norm(m_weak, d)

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
        stop = ("discrepancy", 1.5 * lvl * h_norm) if lvl > 0 else ("fixed_list",)
        v, _ = recover_interior(op, data, replace(cfg, stop_rule=stop))
        return weak_err(v)

    per_trial = np.array(
        [[one_trial(i, t) for t in range(trials)] for i in range(len(noise_levels))]
    )
    mean_errors = per_trial.mean(axis=1)

    pos = noise_levels > 0
    eta = noise_levels[pos] * h_norm
    err = mean_errors[pos]
    return StabilitySweep(
        noise_levels=noise_levels,
        recon_errors=mean_errors,
        per_trial=per_trial,
        fitted_modulus=_fit_log_modulus(eta, err, energy),
        power_fit=_fit_power_law(eta, err),
        energy=energy,
    )


def spectrum_report(op: UcpOperator) -> dict:
    """Tabulate the singular spectrum with a log-decay fit over the leading modes."""
    sig = op.sigmas
    j = np.arange(1, len(sig) + 1)
    lead = min(20, op.numerical_rank)
    fit = fit_loglinear(j[:lead].astype(float), sig[:lead])
    return {
        "j": j,
        "sigma": sig,
        "log10_sigma": np.log10(np.maximum(sig, np.finfo(float).tiny)),
        "numerical_rank": op.numerical_rank,
        "slope": fit["slope"],
        "r2": fit["r2"],
    }
