"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline.  Every criterion measures honest values and asserts its stated
target.  Criterion 7b (fine-grid data clause) fails: 2.6% dual-relative
grid-transfer data error at 512 nodes is about five decades more than the
0.2 potential target allows under the logarithmic stability of the
inversion; see its body for the measured quantities it reports.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg as sla

import fracrec as fr
from fracrec.cli import EXIT_EIGENVALUE, EXIT_OK, main

from conftest import OMEGA, RADIUS, S, W1_PIPELINE, W2_PIPELINE, random_omega_bump
import reference as ref

Q_AMP, Q_WIDTH = 2.0, 0.5
F_CENTER, F_WIDTH = 4.5, 0.45


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def pipeline_problem(mach, sets):
    box = mach.box
    q = fr.Potential(Q_AMP * fr.smooth_bump(box, 0.0, Q_WIDTH).values[sets.omega])
    fv = np.zeros(box.size)
    fv[sets.w1] = fr.smooth_bump(box, F_CENTER, F_WIDTH).values[sets.w1]
    return q, fr.GridFunction(fv, box)


@pytest.fixture(scope="module")
def pipeline_truth(mach, sets_pipeline):
    q, f = pipeline_problem(mach, sets_pipeline)
    u = fr.solve_dirichlet(mach, sets_pipeline, q, f)
    return q, f, u


def test_criterion_01_fractional_laplacian(box, mach, sets_classic, rng):
    start = time.monotonic()
    x = box.nodes
    u = fr.GridFunction(
        np.where(np.abs(x) < 1, np.sqrt(np.clip(1 - x**2, 0, None)), 0.0), box
    )
    out = ref.fraclap_apply(mach, u)
    interior = sets_classic.omega[np.abs(x[sets_classic.omega]) <= 0.75]
    ball_err = float(np.abs(out.values[interior] - 1.0).max())

    worst = 0.0
    om = sets_classic.omega
    h = box.spacing
    for _ in range(20):
        bump = random_omega_bump(box, rng)
        mat = ref.fraclap_apply(mach, bump).values[om]
        orc = ref.fraclap_quadrature_oracle(bump, fr.FractionalOrder(0.5), om)
        rel = float(np.sqrt(h * np.sum((mat - orc) ** 2) / (h * np.sum(orc**2))))
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    _report(
        "01 fractional laplacian",
        ball_err <= 2e-2 and worst <= 1e-2 and elapsed <= 30.0,
        f"ball err {ball_err:.3e} <= 2e-2, oracle agreement {worst:.3e} <= 1e-2, "
        f"{elapsed:.1f}s <= 30s",
    )


def test_criterion_02_forward_wellposedness(box, mach, sets_pipeline, rng, tmp_path):
    worst_res, worst_weak = 0.0, 0.0
    for trial in range(5):
        q = fr.Potential(rng.uniform(0, 2, len(sets_pipeline.omega)))
        fv = np.zeros(box.size)
        fv[sets_pipeline.w1] = fr.smooth_bump(
            box, F_CENTER + rng.uniform(-0.1, 0.1), F_WIDTH
        ).values[sets_pipeline.w1]
        f = fr.GridFunction(fv, box)
        u = fr.solve_dirichlet(mach, sets_pipeline, q, f)
        diag = fr.solve_diagnostics(mach, sets_pipeline, q, f, u)
        worst_res = max(worst_res, diag["interior_residual"])
        scale = fr.hs_norm(mach, u) ** 2
        for _ in range(5):
            w = np.zeros(box.size)
            w[sets_pipeline.omega] = rng.standard_normal(len(sets_pipeline.omega))
            val = abs(ref.bq_eval(mach, sets_pipeline, q, u, fr.GridFunction(w, box)))
            worst_weak = max(worst_weak, val / scale)

    # the eigenvalue-condition detector must flag the constructed failing q
    a_oo = mach.frac_lap[np.ix_(sets_pipeline.omega, sets_pipeline.omega)]
    lam1 = float(sla.eigvalsh(a_oo)[0])
    doc = {
        "version": 1, "dimension": 1,
        "box": {"radius": 16.0, "points": 512}, "s": 0.5,
        "omega": {"intervals": [[-1.0, 1.0]]},
        "w1": {"intervals": [[4.0, 5.0]]},
        "w2": {"intervals": [[-3.0, -1.25], [1.25, 3.0]]},
        "q": {"kind": "constant", "params": {"value": -lam1}},
        "f": {"kind": "bump", "params": {"center": F_CENTER, "width": F_WIDTH}},
        "noise": {"level": 0.0, "seed": 1},
        "scheme": {"name": "tikhonov"}, "tau": 0.001,
    }
    ppath = tmp_path / "eig.json"
    ppath.write_text(json.dumps(doc))
    code = main(["forward", str(ppath), str(tmp_path / "out.json")])
    _report(
        "02 forward well-posedness",
        worst_res <= 1e-8 and worst_weak <= 1e-8 and code == EXIT_EIGENVALUE,
        f"interior residual {worst_res:.2e} <= 1e-8, weak-form {worst_weak:.2e} <= 1e-8, "
        f"detector exit {code} == 2",
    )


def test_criterion_03_svd_relations(op_onesided, svd_onesided):
    sig = svd_onesided.sigmas
    gram = op_onesided.machinery.gram_hs[
        np.ix_(op_onesided.omega, op_onesided.omega)
    ]
    psis, phis = ref.domain_modes(svd_onesided), ref.range_modes(svd_onesided)
    worst_rel = 0.0
    for j in range(min(10, svd_onesided.numerical_rank)):
        psi, phi = psis[:, j], phis[:, j]
        fwd = op_onesided.dual_norm(op_onesided.matrix @ psi - sig[j] * phi) / sig[j]
        adj_vec = ref.ucp_adjoint(op_onesided, phi).values[op_onesided.omega] \
            - sig[j] * psi
        adj = float(np.sqrt(adj_vec @ gram @ adj_vec)) / sig[j]
        worst_rel = max(worst_rel, fwd, adj)
    r = svd_onesided.numerical_rank
    psi_g = psis[:, :r].T @ gram @ psis[:, :r]
    q = op_onesided.range_weight @ phis[:, :r]
    phi_g = q.T @ q
    ortho = max(
        float(np.abs(psi_g - np.eye(r)).max()), float(np.abs(phi_g - np.eye(r)).max())
    )
    _report(
        "03 svd relations",
        worst_rel <= 1e-9 and ortho <= 1e-9,
        f"triplet relations {worst_rel:.2e} <= 1e-9, orthonormality {ortho:.2e} <= 1e-9",
    )


def test_criterion_04_tikhonov(box, mach, sets_pipeline, op_pipeline, pipeline_truth, rng):
    start = time.monotonic()
    q, f, u = pipeline_truth
    rec = fr.synthetic_measurement(mach, sets_pipeline, q, f)
    h = fr.measurement_to_h(mach, sets_pipeline, rec)
    sigma1 = float(np.linalg.norm(op_pipeline.weighted, 2))

    worst_cert = 0.0
    res_trace, pen_trace = [], []
    for alpha in fr.default_alpha_schedule(sigma1):
        _, info = fr.tikhonov_reconstruct(op_pipeline, h, alpha)
        worst_cert = max(worst_cert, info["gradient_certificate"])
        res_trace.append(info["residual_dual"])
        pen_trace.append(info["penalty_hs"])
    res_trace, pen_trace = np.array(res_trace), np.array(pen_trace)
    monotone = bool(
        np.all(np.diff(res_trace) <= 1e-10 * res_trace[0])
        and np.all(np.diff(pen_trace) >= -1e-10 * pen_trace[-1])
    )

    v_true = fr.GridFunction(u.values - f.values, box)
    base = fr.hs_norm(mach, v_true)
    best = np.inf
    for alpha in fr.default_alpha_schedule(sigma1, kmax=24):
        v, _ = fr.tikhonov_reconstruct(op_pipeline, h, alpha)
        err = fr.hs_norm(mach, fr.GridFunction(v.values - v_true.values, box)) / base
        best = min(best, err)
    elapsed = time.monotonic() - start
    _report(
        "04 tikhonov",
        worst_cert <= 1e-8 and monotone and best <= 5e-2 and elapsed <= 120.0,
        f"certificate {worst_cert:.2e} <= 1e-8, traces monotone {monotone}, "
        f"exact-data best err {best:.3e} <= 5e-2, {elapsed:.1f}s <= 2min",
    )


def test_criterion_05_spectral(op_pipeline, svd_pipeline, rng):
    sig = svd_pipeline.sigmas
    gram = op_pipeline.machinery.gram_hs[
        np.ix_(op_pipeline.omega, op_pipeline.omega)
    ]
    h = rng.standard_normal(op_pipeline.n_window)
    worst_eq = 0.0
    for alpha in (sig[0] ** 2, sig[0] ** 2 * 1e-3, sig[0] ** 2 * 1e-6):
        v_ne, _ = fr.tikhonov_reconstruct(op_pipeline, h, alpha)
        coef = (sig / (sig**2 + alpha)) * ref.range_coefficients(svd_pipeline, h)
        v_ff = ref.domain_modes(svd_pipeline) @ coef
        d = v_ne.values[op_pipeline.omega] - v_ff
        worst_eq = max(worst_eq, float(np.sqrt(d @ gram @ d) / np.sqrt(v_ff @ gram @ v_ff)))

    res = []
    for alpha in fr.default_alpha_schedule(sig[0]):
        v = ref.spectral_reconstruct(svd_pipeline, h, alpha)
        res.append(op_pipeline.dual_norm(op_pipeline.apply(v) - h))
    res = np.array(res)
    monotone = bool(np.all(np.diff(res) <= 1e-12 * res[0]))
    _report(
        "05 spectral",
        worst_eq <= 1e-8 and monotone,
        f"filter-factor equivalence {worst_eq:.2e} <= 1e-8, residual monotone {monotone}",
    )


def test_criterion_06_minimal_l2(box, mach, sets_pipeline, op_pipeline, rng):
    start = time.monotonic()
    worst_res, worst_ident = 0.0, 0.0
    w2 = sets_pipeline.w2
    for trial in range(5):
        src = random_omega_bump(box, rng)
        vals = src.values.copy()
        vals[ref.exterior(box, sets_pipeline)] = 0.0
        h = op_pipeline.apply(fr.GridFunction(vals, box))
        h = h * (1.0 + 0.02 * rng.standard_normal(len(h)))
        alpha = 0.3 * op_pipeline.dual_norm(h)
        out = fr.minimal_l2_reconstruct(mach, sets_pipeline, h, alpha, tol=1e-8)
        rvals = np.zeros(box.size)
        rvals[w2] = ref.full_product(mach.frac_lap, out.phi_hat.values)[w2] - h
        resid = ref.hminus_s_norm(mach, fr.GridFunction(rvals, box), w2)
        worst_res = max(worst_res, resid / alpha)
        half_u = 0.5 * box.spacing * np.sum(out.u_hat.values[sets_pipeline.omega] ** 2)
        worst_ident = max(worst_ident, abs(out.j_value + half_u) / max(half_u, 1e-300))
    elapsed = time.monotonic() - start
    _report(
        "06 minimal-L2",
        worst_res <= 1.01 and worst_ident <= 1e-6 and elapsed <= 300.0,
        f"residual/alpha {worst_res:.6f} <= 1.01, energy identity {worst_ident:.2e} <= 1e-6, "
        f"{elapsed:.1f}s <= 5min",
    )


def _run_pipeline_q_error(mach, sets, rec, cfg, q_true, tau=1e-3):
    report = fr.full_pipeline(mach, sets, rec, cfg, tau=tau)
    good = ~report.nodal_mask
    rel = float(
        np.abs(report.q_rec[good] - q_true.values[good]).max() / np.abs(q_true.values).max()
    )
    return rel, float(report.mask_fraction)


def test_criterion_07a_pipeline_exact_data(mach, sets_pipeline, op_pipeline, pipeline_truth):
    start = time.monotonic()
    q, f, _ = pipeline_truth
    sigma1 = float(np.linalg.norm(op_pipeline.weighted, 2))
    cfg = fr.RegularizerConfig(
        scheme="spectral", alpha_schedule=fr.default_alpha_schedule(sigma1, kmax=24)
    )
    rec = fr.synthetic_measurement(mach, sets_pipeline, q, f)
    rel, mask_frac = _run_pipeline_q_error(mach, sets_pipeline, rec, cfg, q)
    elapsed = time.monotonic() - start
    _report(
        "07a pipeline, exact data",
        rel <= 1e-1 and mask_frac <= 0.05 and elapsed <= 300.0,
        f"q rel-Linf {rel:.3e} <= 1e-1, mask {mask_frac:.3f} <= 0.05, {elapsed:.1f}s <= 5min",
    )


def test_criterion_07b_pipeline_fine_grid_data(mach, sets_pipeline, op_pipeline, pipeline_truth):
    # data synthesized on a 2x finer grid and pair-averaged back; the grid
    # transfer acts as ~2% dual-norm data error, and the exponentially
    # ill-posed inversion amplifies it far beyond the stated tolerance
    start = time.monotonic()
    q, f, u = pipeline_truth
    box = mach.box

    def q_of(x):
        gf = np.zeros(len(x))
        t = x / Q_WIDTH
        inside = np.abs(t) < 1
        gf[inside] = Q_AMP * np.exp(1 - 1 / (1 - t[inside] ** 2))
        return gf

    def f_of(x):
        gf = np.zeros(len(x))
        t = (x - F_CENTER) / F_WIDTH
        inside = np.abs(t) < 1
        gf[inside] = np.exp(1 - 1 / (1 - t[inside] ** 2))
        return gf

    rec = ref.fine_grid_measurement(mach, f, (OMEGA, W1_PIPELINE, W2_PIPELINE), q_of, f_of)
    # discrepancy stopping at 1.5x the (known, derived) grid-transfer level
    h = fr.measurement_to_h(mach, sets_pipeline, rec)
    v_true = u.values - f.values
    transfer = op_pipeline.dual_norm(
        h - ref.full_product(mach.frac_lap, v_true)[sets_pipeline.w2])
    sigma1 = float(np.linalg.norm(op_pipeline.weighted, 2))
    cfg = fr.RegularizerConfig(
        scheme="spectral",
        alpha_schedule=fr.default_alpha_schedule(sigma1, kmax=48, step=0.25),
        stop_rule=("discrepancy", 1.5 * transfer),
    )
    rel, mask_frac = _run_pipeline_q_error(mach, sets_pipeline, rec, cfg, q)
    elapsed = time.monotonic() - start
    _report(
        "07b pipeline, 2x finer data",
        rel <= 2e-1 and elapsed <= 300.0,
        f"q rel-Linf {rel:.3e} <= 2e-1 "
        f"(grid-transfer data error {transfer / op_pipeline.dual_norm(h):.1%} dual-relative), "
        f"{elapsed:.1f}s <= 5min",
    )


def test_criterion_08a_instability_decay_bound():
    # the k-th interior function annihilates the moments of degree < k on
    # each parity class of nodes, so its window trace loses the first k
    # far-field terms and decays like (2(R - 1))^-k; k at the rounding floor
    # of the product stay out of the fit
    start = time.monotonic()
    m13, sets13 = fr.make_instability_geometry(13.0, 0.5)
    series = fr.instability_series(m13, sets13, k_max=12)
    slope = series.decay_fit["slope"]
    elapsed = time.monotonic() - start
    _report(
        "08a instability decay bound",
        slope <= -np.log(2.0) and elapsed <= 120.0,
        f"fitted slope {slope:.4f} <= -log 2 = {-np.log(2.0):.4f}, {elapsed:.1f}s <= 2min",
    )


def test_criterion_08b_instability_geometry_sensitivity():
    start = time.monotonic()
    m13, sets13 = fr.make_instability_geometry(13.0, 0.5)
    s13 = fr.instability_series(m13, sets13, k_max=12)
    m20, sets20 = fr.make_instability_geometry(20.0, 0.5)
    s20 = fr.instability_series(m20, sets20, k_max=12)
    elapsed = time.monotonic() - start
    _report(
        "08b instability geometry sensitivity",
        s20.decay_fit["slope"] < s13.decay_fit["slope"] and elapsed <= 120.0,
        f"slope at shell 20 ({s20.decay_fit['slope']:.4f}) steeper than at 13 "
        f"({s13.decay_fit['slope']:.4f}), {elapsed:.1f}s <= 2min",
    )


def test_criterion_09_logarithmic_stability(op_pipeline):
    start = time.monotonic()
    sigma1 = float(np.linalg.norm(op_pipeline.weighted, 2))
    cfg = fr.RegularizerConfig(
        scheme="spectral",
        alpha_schedule=fr.default_alpha_schedule(sigma1, kmax=60, step=0.25),
    )
    levels = 10.0 ** np.linspace(-2, -8, 7)
    sweep = fr.stability_sweep(
        op_pipeline, cfg.scheme, trials=5, noise_levels=levels, s_prime=0.25, seed=3,
        alpha_schedule=cfg.alpha_schedule,
    )
    monotone = bool(np.all(np.diff(sweep.recon_errors) <= 1e-12))
    log_better = sweep.fitted_modulus["residual"] < sweep.power_fit["residual"]
    elapsed = time.monotonic() - start
    _report(
        "09 logarithmic stability",
        monotone and log_better and sweep.fitted_modulus["sigma"] > 0 and elapsed <= 600.0,
        f"mean errors monotone {monotone}, log-model residual "
        f"{sweep.fitted_modulus['residual']:.3f} < power-law {sweep.power_fit['residual']:.3f}, "
        f"sigma {sweep.fitted_modulus['sigma']:.2f} > 0, {elapsed:.1f}s <= 10min",
    )


def test_criterion_10_runge_approximation(box, mach, sets_pipeline):
    q = fr.Potential(np.full(len(sets_pipeline.omega), 0.5))
    x = box.nodes[sets_pipeline.w1]
    h = box.spacing
    a, b = x[0] - h / 2, x[-1] + h / 2
    f0 = np.zeros(box.size)
    f0[sets_pipeline.w1] = np.sin(3 * np.pi * (x - a) / (b - a))
    target_exact = fr.solve_dirichlet(
        mach, sets_pipeline, q, fr.GridFunction(f0, box)
    ).values[sets_pipeline.omega]
    _, err_exact = ref.runge_approximate(mach, sets_pipeline, q, target_exact, control_dim=5)

    target = fr.smooth_bump(box, 0.1, 0.7).values[sets_pipeline.omega]
    errs = [
        ref.runge_approximate(mach, sets_pipeline, q, target, control_dim=cd)[1]
        for cd in (4, 8, 16, 32)
    ]
    non_increasing = all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))
    _report(
        "10 runge approximation",
        err_exact <= 1e-8 and non_increasing,
        f"representable target err {err_exact:.2e} <= 1e-8, "
        f"errors {['%.3e' % e for e in errs]} non-increasing {non_increasing}",
    )


def test_criterion_11_determinism(tmp_path):
    doc = {
        "version": 1, "dimension": 1,
        "box": {"radius": 16.0, "points": 512}, "s": 0.5,
        "omega": {"intervals": [[-1.0, 1.0]]},
        "w1": {"intervals": [[4.0, 5.0]]},
        "w2": {"intervals": [[-3.0, -1.25], [1.25, 3.0]]},
        "q": {"kind": "bump", "params": {"center": 0.0, "width": 0.5, "amplitude": 2.0}},
        "f": {"kind": "bump", "params": {"center": F_CENTER, "width": F_WIDTH}},
        "noise": {"level": 1e-3, "seed": 9},
        "scheme": {"name": "tikhonov"}, "tau": 0.001,
    }
    ppath = tmp_path / "prob.json"
    ppath.write_text(json.dumps(doc))
    rep_bytes, csv_bytes = [], []
    for tag in ("a", "b"):
        rep = tmp_path / f"rep_{tag}.json"
        assert main(["reconstruct", str(ppath), str(rep), "--quiet"]) == EXIT_OK
        rep_bytes.append(rep.read_bytes())
        csv = tmp_path / f"stab_{tag}.csv"
        assert main(["stability", str(ppath), str(csv), "--trials", "2",
                     "--levels", "1e-2,1e-4"]) == EXIT_OK
        csv_bytes.append(csv.read_bytes())
    _report(
        "11 determinism",
        rep_bytes[0] == rep_bytes[1] and csv_bytes[0] == csv_bytes[1],
        "reconstruct reports and stability CSVs byte-identical across reruns",
    )


def _isolated_nodes(box, offsets):
    """Windows of width h/2 around single nodes of the example window (1.25, 3)
    and its mirror, at the given node offsets counted outward from omega."""
    x, quarter = box.nodes, box.spacing / 4
    right = np.nonzero((x > 1.25) & (x < 3.0))[0]
    left = np.nonzero((x > -3.0) & (x < -1.25))[0][::-1]
    return sorted((x[side[o]] - quarter, x[side[o]] + quarter)
                  for side in (left, right) for o in offsets)


def test_disjoint_windows(box, mach):
    # the paper's claim: q is recovered from data on arbitrary, possibly
    # disjoint exterior sets.  Spectral scheme, exact data, the auto schedule
    # run whole.  Each row: w2, numerical rank, and bounds on the q error
    # relative to max|q| over all unmasked nodes and over |x| < 0.75; a
    # bound is the measured error plus 10%, rounded up at two digits
    third = range(0, 24, 3)  # every third node, eight per side
    rows = {
        "two intervals": (W2_PIPELINE, 30, (0.12, 0.12)),
        "(1.25, 3)": ([(1.25, 3.0)], 19, (0.89, 0.43)),
        "(8, 10)": ([(8.0, 10.0)], 11, (0.87, 0.48)),
        "every third node, 8 per side": (_isolated_nodes(box, third), 16, (0.19, 0.18)),
        "every third node, 4 per side": (_isolated_nodes(box, third[:4]), 8, None),
        "every third node, 2 per side": (_isolated_nodes(box, third[:2]), 4, None),
    }
    details, ok = [], True
    for name, (w2, rank, bounds) in rows.items():
        sets = fr.build_index_sets(box, OMEGA, W1_PIPELINE, w2)
        q, f = pipeline_problem(mach, sets)
        report = fr.full_pipeline(mach, sets, fr.synthetic_measurement(mach, sets, q, f),
                                  fr.RegularizerConfig(scheme="spectral"))
        good = ~report.nodal_mask
        inner = good & (np.abs(box.nodes[sets.omega]) < 0.75)
        err = np.abs(report.q_rec - q.values) / np.abs(q.values).max()
        errs = (float(err[good].max()), float(err[inner].max()))
        got = fr.assemble_ucp(mach, sets).numerical_rank
        ok &= got == rank and all(e <= b for e, b in zip(errs, bounds or ()))
        details.append(f"{name}: {len(sets.w2)} nodes, rank {got} == {rank}"
                       + ("" if bounds is None else
                          f", q error {errs[0]:.3f} / {errs[1]:.3f} <= {bounds[0]} / {bounds[1]}"))
    _report("disjoint windows", ok, "; ".join(details))


REFINED_POINTS = (512, 1024, 2048, 4096)


@pytest.fixture(scope="module")
def refined_machinery():
    return {n: fr.build_sobolev(fr.build_box(RADIUS, n), fr.FractionalOrder(S))
            for n in REFINED_POINTS}


def _cluster_ladder(refined_machinery, centers, k):
    """Per N of REFINED_POINTS: the numerical rank and the q error over
    |x| < 0.75, relative to max|q|, for w2 made of the k nodes nearest each
    center, each in its own interval of width h/2, so the window's measure
    k h / 2 per center halves with each doubling of N.  Spectral scheme,
    exact data, the kmax = 24 schedule of 07a run whole."""
    ranks, errs = [], []
    for m in refined_machinery.values():
        x, quarter = m.box.nodes, m.box.spacing / 4
        w2 = sorted((x[i] - quarter, x[i] + quarter) for c in centers
                    for i in np.argsort(np.abs(x - c), kind="stable")[:k])
        sets = fr.build_index_sets(m.box, OMEGA, W1_PIPELINE, w2)
        op = fr.assemble_ucp(m, sets)
        q, f = pipeline_problem(m, sets)
        cfg = fr.RegularizerConfig(scheme="spectral", alpha_schedule=fr.default_alpha_schedule(
            float(op.sigmas[0]), kmax=24))
        report = fr.full_pipeline(m, sets, fr.synthetic_measurement(m, sets, q, f), cfg)
        inner = ~report.nodal_mask & (np.abs(x[sets.omega]) < 0.75)
        err = np.abs(report.q_rec - q.values)[inner].max() / np.abs(q.values).max()
        ranks.append(op.numerical_rank)
        errs.append(float(err))
    return ranks, errs


# the discrete form of unique continuation from a set of measure zero: the
# window keeps its node count while N grows, and its measure goes to zero.
# The band holds every measured inner error, each end widened by 10% and
# rounded outward at two digits (0.137-0.169 for k = 8, 0.529-0.558 for k = 4)
@pytest.mark.parametrize("k, band", [(8, (0.12, 0.19)), (4, (0.47, 0.62))])
def test_two_clusters_keep_rank_and_inner_error_under_refinement(refined_machinery, k, band):
    ranks, errs = _cluster_ladder(refined_machinery, (-2.0, 2.0), k)
    _report(
        f"vanishing measure, two clusters of {k}",
        ranks == [2 * k] * len(REFINED_POINTS) and all(band[0] <= e <= band[1] for e in errs),
        f"N {REFINED_POINTS}: ranks {ranks} == {2 * k}, inner q error "
        + ", ".join(f"{e:.3f}" for e in errs) + f" in {band}",
    )


# one shrinking cluster sees ever fewer independent directions (16, 14, 12, 11
# measured); its inner error, 0.158 to 0.381, stays under 0.381 plus 10%
def test_one_cluster_loses_rank_under_refinement(refined_machinery):
    ranks, errs = _cluster_ladder(refined_machinery, (2.0,), 16)
    _report(
        "vanishing measure, one cluster of 16",
        ranks[0] == 16 and ranks[-1] < 16 and all(a >= b for a, b in zip(ranks, ranks[1:]))
        and max(errs) <= 0.42,
        f"N {REFINED_POINTS}: ranks {ranks} non-increasing from 16, inner q error "
        + ", ".join(f"{e:.3f}" for e in errs) + " <= 0.42",
    )
