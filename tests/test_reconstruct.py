"""Four-step recovery pipeline: datum subtraction, inversion, quotient, report."""

import numpy as np
import pytest
import scipy.linalg as sla

import fracrec as fr
from fracrec.ucp import _minl2_workspace

from conftest import OMEGA, W1_PIPELINE, W2_PIPELINE, random_omega_bump
import reference as ref


Q_AMP, Q_WIDTH = 2.0, 0.5
F_CENTER, F_WIDTH = 4.5, 0.45


def pipeline_potential(box, sets):
    return fr.Potential(Q_AMP * fr.smooth_bump(box, 0.0, Q_WIDTH).values[sets.omega])


def pipeline_datum(box, sets):
    vals = np.zeros(box.size)
    vals[sets.w1] = fr.smooth_bump(box, F_CENTER, F_WIDTH).values[sets.w1]
    return fr.GridFunction(vals, box)


def deep_tikhonov(op, kmax=24):
    sigma1 = float(np.linalg.norm(op.weighted, 2))
    return fr.RegularizerConfig(
        scheme="tikhonov", alpha_schedule=fr.default_alpha_schedule(sigma1, kmax=kmax)
    )


def deep_spectral(op, kmax=24):
    sigma1 = float(np.linalg.norm(op.weighted, 2))
    return fr.RegularizerConfig(
        scheme="spectral", alpha_schedule=fr.default_alpha_schedule(sigma1, kmax=kmax)
    )


@pytest.fixture(scope="module")
def ground_truth(box, mach, sets_pipeline):
    q = pipeline_potential(box, sets_pipeline)
    f = pipeline_datum(box, sets_pipeline)
    sol = fr.solve_dirichlet(mach, sets_pipeline, q, f)
    return q, f, sol


class TestMeasurementToH:
    def test_datum_only_measurement_gives_zero(self, mach, sets_pipeline, box):
        f = pipeline_datum(box, sets_pipeline)
        g = (mach.frac_lap @ f.values)[sets_pipeline.w2]
        rec = fr.MeasurementRecord(f=f, g=g)
        h = fr.measurement_to_h(mach, sets_pipeline, rec)
        assert np.all(h == 0.0)

    def test_synthetic_h_is_window_image_of_interior_part(
        self, mach, sets_pipeline, box, ground_truth
    ):
        q, f, sol = ground_truth
        rec = fr.synthetic_measurement(mach, sets_pipeline, q, f)
        h = fr.measurement_to_h(mach, sets_pipeline, rec)
        v = sol.u.values - f.values
        lv = (mach.frac_lap @ v)[sets_pipeline.w2]
        assert np.abs(h - lv).max() <= 1e-10 * np.abs(lv).max()

    def test_additive_noise_shifts_h_exactly(self, mach, sets_pipeline, box, rng):
        f = pipeline_datum(box, sets_pipeline)
        g = (mach.frac_lap @ f.values)[sets_pipeline.w2]
        e = rng.standard_normal(len(g))
        h0 = fr.measurement_to_h(mach, sets_pipeline, fr.MeasurementRecord(f=f, g=g))
        h1 = fr.measurement_to_h(mach, sets_pipeline, fr.MeasurementRecord(f=f, g=g + e))
        assert np.allclose(h1 - h0, e, rtol=0, atol=1e-14 * np.abs(g).max())

    def test_zero_datum_rejected(self, box):
        with pytest.raises(ValueError, match="nonzero"):
            fr.MeasurementRecord(f=fr.GridFunction(np.zeros(box.size), box), g=np.zeros(3))


class TestRecoverInterior:
    def test_zero_data_zero_result(self, op_pipeline):
        for cfg in (deep_tikhonov(op_pipeline), deep_spectral(op_pipeline)):
            v, trace = fr.recover_interior(op_pipeline, np.zeros(op_pipeline.n_window), cfg)
            assert np.all(v.values == 0.0)
            assert len(trace) == len(cfg.alpha_schedule)

    def test_exact_synthetic_error_bound(
        self, mach, sets_pipeline, op_pipeline, box, ground_truth
    ):
        q, f, sol = ground_truth
        rec = fr.synthetic_measurement(mach, sets_pipeline, q, f)
        h = fr.measurement_to_h(mach, sets_pipeline, rec)
        v_true = fr.GridFunction(sol.u.values - f.values, box)
        base = fr.hs_norm(mach, v_true)
        cfg = deep_tikhonov(op_pipeline)
        _, trace = fr.recover_interior(op_pipeline, h, cfg, keep_iterates=True)
        errs = [
            fr.hs_norm(mach, fr.GridFunction(r["iterate"].values - v_true.values, box)) / base
            for r in trace
        ]
        assert min(errs) <= 5e-2

    def test_scheme_cross_check_on_representable_data(
        self, mach, sets_pipeline, op_pipeline, svd_pipeline, box
    ):
        # measurement synthesized from leading singular content; both schemes
        # must return the same interior part at matched schedule depths
        sig = svd_pipeline.sigmas
        weights = np.array([0.8, -0.5, 0.3, 0.15, -0.08, 0.04])
        v_lead = op_pipeline.embed_domain(svd_pipeline.domain_modes[:, :6] @ weights)
        f = pipeline_datum(box, sets_pipeline)
        g = op_pipeline.apply(v_lead) + (mach.frac_lap @ f.values)[sets_pipeline.w2]
        rec = fr.MeasurementRecord(f=f, g=g)
        h = fr.measurement_to_h(mach, sets_pipeline, rec)
        cfg_s = fr.RegularizerConfig(
            scheme="spectral", alpha_schedule=np.array([np.sqrt(sig[5] * sig[6])])
        )
        cfg_t = fr.RegularizerConfig(
            scheme="tikhonov", alpha_schedule=np.array([1e-5 * sig[5] ** 2])
        )
        v_s, _ = fr.recover_interior(op_pipeline, h, cfg_s)
        v_t, _ = fr.recover_interior(op_pipeline, h, cfg_t)
        d = fr.hs_norm(mach, fr.GridFunction(v_s.values - v_t.values, box))
        assert d / fr.hs_norm(mach, v_lead) <= 1e-3

    def test_minimal_l2_scheme_in_pipeline(
        self, mach, sets_pipeline, op_pipeline, box, ground_truth
    ):
        q, f, sol = ground_truth
        rec = fr.synthetic_measurement(mach, sets_pipeline, q, f)
        h = fr.measurement_to_h(mach, sets_pipeline, rec)
        hn = op_pipeline.dual_norm(h)
        cfg = fr.RegularizerConfig(
            scheme="minimal_l2",
            alpha_schedule=hn * 10.0 ** (-np.arange(0, 5, dtype=float)),
            max_inner_iterations=100_000,
        )
        v, trace = fr.recover_interior(op_pipeline, h, cfg)
        v_true = fr.GridFunction(sol.u.values - f.values, box)
        err = fr.hs_norm(mach, fr.GridFunction(v.values - v_true.values, box))
        assert err <= fr.hs_norm(mach, v_true)  # coarse sanity: better than zero guess
        assert [r["residual_dual"] for r in trace] == sorted(
            (r["residual_dual"] for r in trace), reverse=True
        )

    def test_minimal_l2_kkt_certificate(self, mach, sets_pipeline, ground_truth, rng):
        # the returned control satisfies S y - b + alpha y / ||y|| = 0
        q, f, _ = ground_truth
        rec = fr.synthetic_measurement(mach, sets_pipeline, q, f)
        h = fr.measurement_to_h(mach, sets_pipeline, rec)
        h_noisy = h * (1.0 + 0.02 * rng.standard_normal(len(h)))
        ws = _minl2_workspace(mach, sets_pipeline, sets_pipeline.w2)
        for vals, scales in ((h, (1e-2, 1e-4)), (h_noisy, (1e-2,))):
            b = ws.data_vector(vals)
            for scale in scales:
                alpha = scale * np.linalg.norm(b)
                res = fr.minimal_l2_reconstruct(mach, sets_pipeline, vals, alpha)
                y = sla.solve_triangular(ws.chol_inv, res.f_hat.values[sets_pipeline.w2])
                kkt = ws.smooth_hessian @ y - b + alpha * y / np.linalg.norm(y)
                assert np.linalg.norm(kkt) <= 1e-6 * alpha
                # the root is approached from below: the residual never exceeds alpha
                assert res.residual_dual <= alpha

    def test_minimal_l2_returns_only_certified_points(self, mach, sets_pipeline, ground_truth):
        # noisy data has a sizeable null-space component; every alpha either
        # has no minimizer or returns a point within the residual certificate
        q, f, _ = ground_truth
        ws = _minl2_workspace(mach, sets_pipeline, sets_pipeline.w2)
        for level in (1e-4, 1e-2):
            rec = fr.synthetic_measurement(mach, sets_pipeline, q, f, noise_level=level, seed=3)
            h = fr.measurement_to_h(mach, sets_pipeline, rec)
            for k in range(1, 5):
                alpha = np.linalg.norm(ws.data_vector(h)) * 10.0 ** -k
                try:
                    res = fr.minimal_l2_reconstruct(mach, sets_pipeline, h, alpha)
                except fr.OptimizerNonConvergence:
                    continue
                assert res.residual_dual <= alpha * (1.0 + 1e-6)

    def test_minimal_l2_budget_exhaustion_keeps_last_iterate(
        self, mach, sets_pipeline, op_pipeline, box, ground_truth
    ):
        q, f, _ = ground_truth
        rec = fr.synthetic_measurement(mach, sets_pipeline, q, f)
        h = fr.measurement_to_h(mach, sets_pipeline, rec)
        hn = op_pipeline.dual_norm(h)
        # last alpha is below the floating-point coercivity floor
        cfg = fr.RegularizerConfig(
            scheme="minimal_l2",
            alpha_schedule=np.array([0.5 * hn, 1e-14 * hn]),
            max_inner_iterations=2_000,
        )
        v, trace = fr.recover_interior(op_pipeline, h, cfg)
        assert v is not None
        assert len(trace) == 1

    def test_discrepancy_stops_early(self, op_pipeline, svd_pipeline, box, rng):
        truth = random_omega_bump(box, rng)
        vals = truth.values.copy()
        vals[op_pipeline.sets.exterior] = 0.0
        h = op_pipeline.apply(fr.GridFunction(vals, box))
        h = h + 0.1 * op_pipeline.dual_norm(h) / op_pipeline.n_window * rng.standard_normal(
            op_pipeline.n_window
        )
        delta = 0.3 * op_pipeline.dual_norm(h)
        cfg = fr.RegularizerConfig(
            scheme="spectral",
            alpha_schedule=fr.default_alpha_schedule(svd_pipeline.sigmas[0]),
            stop_rule=("discrepancy", delta),
        )
        v, trace = fr.recover_interior(op_pipeline, h, cfg)
        assert trace[-1]["residual_dual"] <= delta
        assert len(trace) < len(cfg.alpha_schedule)


class TestTraceRowNorms:
    def test_rows_match_hs_and_dual_norms(self, mach, sets_pipeline, op_pipeline, box, ground_truth):
        q, f, _ = ground_truth
        rec = fr.synthetic_measurement(mach, sets_pipeline, q, f, noise_level=1e-3, seed=3)
        h = fr.measurement_to_h(mach, sets_pipeline, rec)
        schedules = {
            "spectral": None,
            "tikhonov": None,
            "minimal_l2": op_pipeline.dual_norm(h) * np.array([0.3, 0.1, 0.03]),
        }
        w2 = sets_pipeline.w2
        for scheme, alphas in schedules.items():
            cfg = fr.RegularizerConfig(scheme=scheme, alpha_schedule=alphas)
            _, trace = fr.recover_interior(op_pipeline, h, cfg, keep_iterates=True)
            assert len(trace) == (13 if alphas is None else len(alphas))
            for row in trace:
                v = row["iterate"]
                assert row["penalty_hs"] == pytest.approx(fr.hs_norm(mach, v), rel=1e-10)
                rvals = np.zeros(box.size)
                rvals[w2] = op_pipeline.apply(v) - h
                resid = fr.hminus_s_norm(mach, fr.GridFunction(rvals, box), w2)
                assert row["residual_dual"] == pytest.approx(resid, rel=1e-10)


def per_alpha_reference(op, h, scheme, alphas, delta):
    """Reference for the batched schedule, one alpha at a time: a filtered
    solve by matrix-vector products, the embedding, the window image, its
    dual norm and the R product."""
    u, sig, vt = op.svd_factors
    qh = op.range_weight @ h
    trace, chosen = [], None
    for alpha in alphas:
        if scheme == "spectral":
            keep = sig >= alpha
            gain = np.zeros(len(sig))
            gain[keep] = 1.0 / sig[keep]
        else:
            gain = sig / (sig**2 + alpha)
        v = op.embed_domain(op.domain_chol_inv @ (vt.T @ (gain * (u.T @ qh))))
        residual = op.dual_norm(op.apply(v) - h)
        penalty = float(np.linalg.norm(op.domain_chol @ v.values[op.sets.omega]))
        trace.append({"alpha": float(alpha), "residual_dual": residual, "penalty_hs": penalty})
        chosen = v
        if delta is not None and residual <= delta:
            break
    return chosen, trace


class TestBatchedScheduleOracle:
    @pytest.mark.parametrize("scheme", ["spectral", "tikhonov"])
    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_matches_per_alpha_loop(self, mach, sets_pipeline, op_pipeline, ground_truth,
                                    scheme, noise):
        q, f, _ = ground_truth
        rec = fr.synthetic_measurement(mach, sets_pipeline, q, f, noise_level=noise, seed=7)
        h = fr.measurement_to_h(mach, sets_pipeline, rec)
        alphas = fr.default_alpha_schedule(float(op_pipeline.svd_factors[1][0]))
        qh_norm = op_pipeline.dual_norm(h)
        _, full = per_alpha_reference(op_pipeline, h, scheme, alphas, None)
        res = [row["residual_dual"] for row in full]
        # a delta between rows 5 and 6 stops mid-schedule, half the smallest
        # residual is never met
        assert res[5] > 1.01 * res[6]
        stop_rules = {
            "fixed": ("fixed_list",),
            "mid": ("discrepancy", float(np.sqrt(res[5] * res[6]))),
            "never": ("discrepancy", 0.5 * min(res)),
        }
        for name, stop in stop_rules.items():
            delta = stop[1] if len(stop) > 1 else None
            want_v, want = per_alpha_reference(op_pipeline, h, scheme, alphas, delta)
            cfg = fr.RegularizerConfig(scheme=scheme, stop_rule=stop)
            got_v, got = fr.recover_interior(op_pipeline, h, cfg)
            assert len(got) == len(want) == (7 if name == "mid" else len(alphas)), name
            for g, w in zip(got, want):
                assert g["alpha"] == w["alpha"]
                assert g["penalty_hs"] == pytest.approx(w["penalty_hs"], rel=1e-13, abs=0.0)
                assert abs(g["residual_dual"] - w["residual_dual"]) <= 1e-14 * qh_norm
            scale = np.abs(want_v.values).max()
            assert np.abs(got_v.values - want_v.values).max() <= 1e-13 * scale, name


class TestMinimalL2ScheduleOracle:
    """The batched secular solve against the scalar one-alpha-at-a-time oracle."""

    @staticmethod
    def data(mach, sets, ground_truth, noise):
        q, f, _ = ground_truth
        rec = fr.synthetic_measurement(mach, sets, q, f, noise_level=noise, seed=2)
        h = fr.measurement_to_h(mach, sets, rec)
        ws = _minl2_workspace(mach, sets, sets.w2)
        b = ws.data_vector(h)
        beta = ws.eigvecs.T @ b
        return h, float(np.linalg.norm(b)), float(np.linalg.norm(beta[ws.eigvals == 0.0]))

    @staticmethod
    def agree(op, h, cfg):
        alphas = cfg.alpha_schedule
        if alphas is None:
            alphas = fr.default_alpha_schedule(float(op.sigmas[0]))
        want = ref.minimal_l2_oracle_iterates(op, h, cfg, alphas)
        _, trace = fr.recover_interior(op, h, cfg, keep_iterates=True)
        assert len(trace) == want.shape[1]
        for row, col in zip(trace, want.T):
            got = row["iterate"].values[op.sets.omega]
            assert np.linalg.norm(got - col) <= 1e-12 * np.linalg.norm(col)
        return trace, alphas

    def test_exact_data_full_auto_schedule(self, mach, sets_pipeline, op_pipeline, ground_truth):
        h, nb, _ = self.data(mach, sets_pipeline, ground_truth, 0.0)
        trace, alphas = self.agree(op_pipeline, h, fr.RegularizerConfig(scheme="minimal_l2"))
        assert len(trace) > 1 and alphas[-1] < nb

    def test_noisy_data_discrepancy_stop(self, mach, sets_pipeline, op_pipeline, ground_truth):
        h, nb, null = self.data(mach, sets_pipeline, ground_truth, 1e-3)
        alphas = nb * np.geomspace(0.5, 2.0 * null / nb, 8)
        fixed = fr.RegularizerConfig(scheme="minimal_l2", alpha_schedule=alphas)
        res = [row["residual_dual"] for row in self.agree(op_pipeline, h, fixed)[0]]
        assert len(res) == len(alphas) and res[2] > 1.01 * res[3]
        cfg = fr.RegularizerConfig(
            scheme="minimal_l2", alpha_schedule=alphas,
            stop_rule=("discrepancy", float(np.sqrt(res[2] * res[3]))),
        )
        trace, _ = self.agree(op_pipeline, h, cfg)
        assert len(trace) == 4

    def test_schedule_crossing_the_null_norm_is_cut(
        self, mach, sets_pipeline, op_pipeline, ground_truth
    ):
        # kept alphas stay 2x above the null norm: closer to it, ||y|| / ||phi||
        # grows past 1e5 and phi carries that much rounding in either solver
        h, nb, null = self.data(mach, sets_pipeline, ground_truth, 1e-2)
        alphas = null * np.array([6.0, 4.0, 2.0, 1.0, 0.5])
        assert alphas[0] < nb
        cfg = fr.RegularizerConfig(scheme="minimal_l2", alpha_schedule=alphas)
        trace, _ = self.agree(op_pipeline, h, cfg)
        assert len(trace) == 3

    def test_first_alpha_above_data_norm_gives_zero(
        self, mach, sets_pipeline, op_pipeline, ground_truth
    ):
        h, nb, _ = self.data(mach, sets_pipeline, ground_truth, 1e-4)
        cfg = fr.RegularizerConfig(
            scheme="minimal_l2", alpha_schedule=nb * np.array([2.0, 1.0, 0.3, 0.1])
        )
        trace, _ = self.agree(op_pipeline, h, cfg)
        assert len(trace) == 4
        assert not np.any(trace[0]["iterate"].values) and not np.any(trace[1]["iterate"].values)
        assert np.any(trace[2]["iterate"].values)

    def test_first_alpha_at_null_norm_raises(self, mach, sets_pipeline, op_pipeline, ground_truth):
        h, _, null = self.data(mach, sets_pipeline, ground_truth, 1e-2)
        cfg = fr.RegularizerConfig(
            scheme="minimal_l2", alpha_schedule=null * np.array([1.0, 0.5])
        )
        with pytest.raises(fr.OptimizerNonConvergence, match="no minimizer"):
            ref.minimal_l2_oracle_iterates(op_pipeline, h, cfg, cfg.alpha_schedule)
        with pytest.raises(fr.OptimizerNonConvergence, match="no minimizer"):
            fr.recover_interior(op_pipeline, h, cfg)


class TestQuotient:
    def test_recovers_potential_from_true_state(
        self, mach, sets_pipeline, ground_truth
    ):
        q, f, sol = ground_truth
        q_vals, mask = fr.quotient_q(mach, sets_pipeline, sol.u, tau=1e-3)
        rel = np.abs(q_vals[~mask] - q.values[~mask]).max() / np.abs(q.values).max()
        assert rel <= 1e-6
        assert mask.mean() <= 0.05

    def test_zero_potential_ground_truth(self, mach, sets_pipeline, box):
        q0 = fr.Potential(np.zeros(len(sets_pipeline.omega)))
        f = pipeline_datum(box, sets_pipeline)
        sol = fr.solve_dirichlet(mach, sets_pipeline, q0, f)
        q_vals, mask = fr.quotient_q(mach, sets_pipeline, sol.u, tau=1e-3)
        au_full = mach.frac_lap @ sol.u.values
        u_om = sol.u.values[sets_pipeline.omega]
        bound = 1e-6 * np.abs(au_full).max() / np.abs(u_om).max()
        assert np.abs(q_vals[~mask]).max() <= bound

    def test_mask_fraction_over_random_data(self, mach, sets_pipeline, box, rng):
        q = fr.Potential(rng.uniform(0, 1, len(sets_pipeline.omega)))
        fractions = []
        for _ in range(10):
            vals = np.zeros(box.size)
            x = box.nodes[sets_pipeline.w1]
            vals[sets_pipeline.w1] = sum(
                rng.uniform(-1, 2) * np.sin((k + 1) * np.pi * (x - x[0] + box.spacing / 2))
                for k in range(3)
            )
            if not np.any(vals != 0.0):
                continue
            sol = fr.solve_dirichlet(mach, sets_pipeline, q, fr.GridFunction(vals, box))
            _, mask = fr.quotient_q(mach, sets_pipeline, sol.u, tau=1e-3)
            fractions.append(mask.mean())
        assert np.mean(fractions) <= 0.05

    def test_identically_zero_state_rejected(self, mach, sets_pipeline, box):
        with pytest.raises(fr.PipelineError, match=r"step \(4\)"):
            fr.quotient_q(
                mach, sets_pipeline, fr.GridFunction(np.zeros(box.size), box), tau=1e-3
            )

    def test_tau_range_checked(self, mach, sets_pipeline, ground_truth):
        _, _, sol = ground_truth
        with pytest.raises(ValueError, match="tau"):
            fr.quotient_q(mach, sets_pipeline, sol.u, tau=1.5)

    def test_infill_nearest(self, sets_pipeline):
        n = len(sets_pipeline.omega)
        q = np.arange(n, dtype=float)
        mask = np.zeros(n, dtype=bool)
        mask[3] = True
        q[3] = np.nan
        out = ref.infill_nearest(sets_pipeline, q, mask)
        assert out[3] in (2.0, 4.0)
        assert not np.isnan(out).any()


class TestFullPipeline:
    def test_zero_potential_recovery(self, mach, sets_pipeline, op_pipeline, box):
        q0 = fr.Potential(np.zeros(len(sets_pipeline.omega)))
        f = pipeline_datum(box, sets_pipeline)
        rec = fr.synthetic_measurement(mach, sets_pipeline, q0, f)
        report = fr.full_pipeline(mach, sets_pipeline, rec, deep_spectral(op_pipeline))
        good = ~report.nodal_mask
        assert np.abs(report.q_rec[good]).max() <= 1e-2

    def test_smooth_potential_exact_data(
        self, mach, sets_pipeline, op_pipeline, box, ground_truth
    ):
        q, f, _ = ground_truth
        rec = fr.synthetic_measurement(mach, sets_pipeline, q, f)
        report = fr.full_pipeline(mach, sets_pipeline, rec, deep_spectral(op_pipeline))
        good = ~report.nodal_mask
        rel = np.abs(report.q_rec[good] - q.values[good]).max() / np.abs(q.values).max()
        assert rel <= 1e-1
        assert report.mask_fraction <= 0.05

    def test_report_invariants(self, mach, sets_pipeline, op_pipeline, box, ground_truth):
        q, f, _ = ground_truth
        rec = fr.synthetic_measurement(mach, sets_pipeline, q, f)
        report = fr.full_pipeline(mach, sets_pipeline, rec, deep_spectral(op_pipeline))
        # state = datum + interior part, exactly
        assert np.array_equal(report.u.values, f.values + report.v.values)
        # interior part vanishes on the exterior window nodes
        assert np.all(report.v.values[sets_pipeline.exterior] == 0.0)
        # quotient identity on unmasked nodes is a tautology of step (4)
        au = (mach.frac_lap @ report.u.values)[sets_pipeline.omega]
        u_om = report.u.values[sets_pipeline.omega]
        good = ~report.nodal_mask
        resid = au[good] + report.q_rec[good] * u_om[good]
        assert np.abs(resid).max() <= 1e-12 * np.abs(au).max()
        # mask definition
        peak = np.abs(u_om).max()
        assert np.array_equal(report.nodal_mask, np.abs(u_om) <= report.tau * peak)

    def test_noise_sweep_monotone_improvement(
        self, mach, sets_pipeline, op_pipeline, box
    ):
        om = sets_pipeline.omega
        x = box.nodes[om]
        q = fr.Potential(np.where(np.abs(x) < 0.5, 1.5, 0.0))
        f = pipeline_datum(box, sets_pipeline)
        sol = fr.solve_dirichlet(mach, sets_pipeline, q, f)
        v_true = fr.GridFunction(sol.u.values - f.values, box)
        sigma1 = float(np.linalg.norm(op_pipeline.weighted, 2))
        errs = []
        for lvl in (1e-2, 1e-4, 1e-6, 0.0):
            rec = fr.synthetic_measurement(
                mach, sets_pipeline, q, f, noise_level=lvl, seed=42
            )
            h = fr.measurement_to_h(mach, sets_pipeline, rec)
            noise_dual = op_pipeline.dual_norm(h - op_pipeline.apply(v_true))
            stop = ("discrepancy", 1.5 * noise_dual) if lvl > 0 else ("fixed_list",)
            cfg = fr.RegularizerConfig(
                scheme="spectral",
                alpha_schedule=fr.default_alpha_schedule(sigma1, kmax=24),
                stop_rule=stop,
            )
            report = fr.full_pipeline(mach, sets_pipeline, rec, cfg)
            good = ~report.nodal_mask
            errs.append(
                np.abs(report.q_rec[good] - q.values[good]).max() / np.abs(q.values).max()
            )
        assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))

    def test_idempotence_on_own_output(
        self, mach, sets_pipeline, op_pipeline, box, ground_truth
    ):
        q, f, _ = ground_truth
        cfg = deep_spectral(op_pipeline)
        rec = fr.synthetic_measurement(mach, sets_pipeline, q, f)
        rep1 = fr.full_pipeline(mach, sets_pipeline, rec, cfg)
        err1 = np.abs(
            np.where(rep1.nodal_mask, 0.0, rep1.q_rec - q.values)
        ).max() / np.abs(q.values).max()
        q_closed = fr.Potential(ref.infill_nearest(sets_pipeline, rep1.q_rec, rep1.nodal_mask))
        rec2 = fr.synthetic_measurement(mach, sets_pipeline, q_closed, f)
        rep2 = fr.full_pipeline(mach, sets_pipeline, rec2, cfg)
        err2 = np.abs(
            np.where(rep2.nodal_mask, 0.0, rep2.q_rec - q.values)
        ).max() / np.abs(q.values).max()
        assert err2 <= 2 * max(err1, 1e-12) + 1e-12

    def test_determinism(self, mach, sets_pipeline, op_pipeline, box, ground_truth):
        q, f, _ = ground_truth
        cfg = fr.RegularizerConfig(
            scheme="tikhonov",
            alpha_schedule=fr.default_alpha_schedule(
                float(np.linalg.norm(op_pipeline.weighted, 2))
            ),
        )
        outs = []
        for _ in range(2):
            rec = fr.synthetic_measurement(
                mach, sets_pipeline, q, f, noise_level=1e-3, seed=7
            )
            rep = fr.full_pipeline(mach, sets_pipeline, rec, cfg)
            outs.append((rep.q_rec.copy(), rep.v.values.copy()))
        assert np.array_equal(outs[0][0], outs[1][0], equal_nan=True)
        assert np.array_equal(outs[0][1], outs[1][1])

    def test_low_order_warning_for_bounded_potential(
        self, box, sets_pipeline
    ):
        m_low = fr.build_sobolev(box, fr.FractionalOrder(0.2))
        q = fr.Potential(np.zeros(len(sets_pipeline.omega)))
        f = pipeline_datum(box, sets_pipeline)
        rec = fr.synthetic_measurement(m_low, sets_pipeline, q, f)
        op = fr.assemble_ucp(m_low, sets_pipeline)
        cfg = fr.RegularizerConfig(
            scheme="spectral",
            alpha_schedule=fr.default_alpha_schedule(
                float(np.linalg.norm(op.weighted, 2)), kmax=6
            ),
        )
        with pytest.warns(UserWarning, match="s >= 1/4"):
            fr.full_pipeline(m_low, sets_pipeline, rec, cfg)


class TestFineGridSynthesis:
    def test_pair_alignment_and_consistency(self, mach, sets_pipeline, box):
        q_of_x = lambda x: Q_AMP * np.exp(
            np.where(np.abs(x / Q_WIDTH) < 1, 1 - 1 / (1 - np.clip((x / Q_WIDTH) ** 2, 0, 1 - 1e-15)), -np.inf)
        )
        f_of_x = lambda x: np.exp(
            np.where(np.abs((x - F_CENTER) / F_WIDTH) < 1,
                     1 - 1 / (1 - np.clip(((x - F_CENTER) / F_WIDTH) ** 2, 0, 1 - 1e-15)),
                     -np.inf)
        )
        q = pipeline_potential(box, sets_pipeline)
        f = pipeline_datum(box, sets_pipeline)
        rec_c = fr.synthetic_measurement(mach, sets_pipeline, q, f)
        rec_f = fr.synthetic_measurement(
            mach, sets_pipeline, q, f, fine_factor=2,
            region_specs=(OMEGA, W1_PIPELINE, W2_PIPELINE),
            profile_fns=(q_of_x, f_of_x),
        )
        assert rec_f.g.shape == rec_c.g.shape
        # the two syntheses agree to a few percent but not exactly
        rel = np.abs(rec_f.g - rec_c.g).max() / np.abs(rec_c.g).max()
        assert 1e-8 < rel < 0.1

    def test_unsupported_factor(self, mach, sets_pipeline, box):
        q = pipeline_potential(box, sets_pipeline)
        f = pipeline_datum(box, sets_pipeline)
        with pytest.raises(ValueError, match="fine_factor"):
            fr.synthetic_measurement(mach, sets_pipeline, q, f, fine_factor=3)
