"""Interior-to-window operator, weighted SVD, and the three inversion schemes."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq

import fracrec as fr

from conftest import OMEGA, W1_PIPELINE, W2_PIPELINE, random_omega_bump
import reference as ref


def omega_vector(op, values_om):
    return op.embed_domain(values_om)


class TestAssembly:
    def test_zero_maps_to_zero(self, op_onesided):
        v = op_onesided.embed_domain(np.zeros(op_onesided.n_omega))
        assert np.all(op_onesided.apply(v) == 0.0)

    def test_columns_match_full_operator(self, op_onesided, mach):
        # applying the full matrix to a basis vector and restricting agrees
        j = 7
        e = np.zeros(op_onesided.n_omega)
        e[j] = 1.0
        full = mach.frac_lap @ op_onesided.embed_domain(e).values
        assert np.array_equal(op_onesided.matrix[:, j], full[op_onesided.window]) or \
            np.abs(op_onesided.matrix[:, j] - full[op_onesided.window]).max() <= 1e-12

    def test_two_route_agreement(self, op_onesided, mach, box, rng):
        v = random_omega_bump(box, rng)
        vals = v.values.copy()
        keep = np.zeros(box.size, dtype=bool)
        keep[op_onesided.sets.omega] = True
        vals[~keep] = 0.0
        gf = fr.GridFunction(vals, box)
        via_matrix = op_onesided.apply(gf)
        via_full = ref.fraclap_apply(mach, gf).values[op_onesided.window]
        assert np.abs(via_matrix - via_full).max() <= 1e-12 * np.abs(via_full).max()

    def test_off_support_smallness(self, op_onesided, mach, box, rng):
        # the operator smooths away from the support: window values are tiny
        # compared to the interior size of the fractional Laplacian
        v = random_omega_bump(box, rng)
        om = op_onesided.sets.omega
        av = ref.fraclap_apply(mach, v).values
        win = np.sqrt(box.spacing * np.sum(av[op_onesided.window] ** 2))
        inside = np.sqrt(box.spacing * np.sum(av[om] ** 2))
        assert win <= 5e-2 * inside

    def test_empty_window_rejected(self, mach, sets_classic):
        with pytest.raises(ValueError, match="nonempty"):
            fr.assemble_ucp(mach, sets_classic, window=np.array([], dtype=int))


class TestWeightedSvd:
    def test_singular_triplet_relations(self, svd_onesided, op_onesided):
        for j in range(min(10, svd_onesided.numerical_rank)):
            psi = svd_onesided.domain_modes[:, j]
            phi = svd_onesided.range_modes[:, j]
            lpsi = op_onesided.matrix @ psi
            resid = op_onesided.dual_norm(lpsi - svd_onesided.sigmas[j] * phi)
            assert resid <= 1e-9 * svd_onesided.sigmas[j]
            lstar = ref.ucp_adjoint(op_onesided, phi).values[op_onesided.sets.omega]
            gram = op_onesided.machinery.gram_hs[
                np.ix_(op_onesided.sets.omega, op_onesided.sets.omega)
            ]
            d = lstar - svd_onesided.sigmas[j] * psi
            assert np.sqrt(d @ gram @ d) <= 1e-9 * svd_onesided.sigmas[j]

    def test_domain_orthonormality(self, svd_onesided, op_onesided):
        gram = op_onesided.machinery.gram_hs[
            np.ix_(op_onesided.sets.omega, op_onesided.sets.omega)
        ]
        r = svd_onesided.numerical_rank
        psi = svd_onesided.domain_modes[:, :r]
        g = psi.T @ gram @ psi
        assert np.abs(g - np.eye(r)).max() <= 1e-9

    def test_range_orthonormality(self, svd_onesided, op_onesided):
        r = svd_onesided.numerical_rank
        phi = svd_onesided.range_modes[:, :r]
        q = op_onesided.range_weight
        g = (q @ phi).T @ (q @ phi)
        assert np.abs(g - np.eye(r)).max() <= 1e-9

    def test_strictly_decreasing(self, svd_onesided):
        lead = svd_onesided.sigmas[: svd_onesided.numerical_rank]
        assert np.all(np.diff(lead) < 0)

    def test_exponential_decay_slope(self, svd_onesided):
        m = min(20, len(svd_onesided.sigmas))
        j = np.arange(1, m + 1)
        slope = np.polyfit(j, np.log(svd_onesided.sigmas[:m]), 1)[0]
        assert slope <= -0.5

    def test_rank_bounded_by_window(self, svd_onesided, op_onesided):
        assert svd_onesided.numerical_rank <= op_onesided.n_window


class TestSharedSvdFactors:
    def test_concurrent_first_use_matches_serial(self, mach, sets_pipeline, rng):
        h = rng.standard_normal(len(sets_pipeline.w2))
        want = fr.tikhonov_reconstruct(fr.assemble_ucp(mach, sets_pipeline), h, 1e-6)[0]
        op = fr.assemble_ucp(mach, sets_pipeline)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(fr.tikhonov_reconstruct, op, h, 1e-6) for _ in range(16)]
                got = [f.result(timeout=60)[0] for f in futures]
        finally:
            sys.setswitchinterval(old)
        assert all(np.array_equal(v.values, want.values) for v in got)
        assert fr.ucp_svd(op).sigmas is op.svd_factors[1]
        assert not any(a.flags.writeable for a in op.svd_factors)


class TestFiltersTakeTheOperator:
    @pytest.mark.parametrize("scheme", ["spectral", "tikhonov"])
    def test_single_alpha_matches_recover_interior(self, mach, sets_pipeline, rng, scheme):
        h = rng.standard_normal(len(sets_pipeline.w2))
        op = fr.assemble_ucp(mach, sets_pipeline)
        for alpha in (1e-2, 1e-5, 1e-8):
            if scheme == "spectral":
                got = fr.spectral_reconstruct(op, h, alpha)
            else:
                got = fr.tikhonov_reconstruct(op, h, alpha)[0]
            cfg = fr.RegularizerConfig(scheme=scheme, alpha_schedule=[alpha])
            want, _ = fr.recover_interior(op, h, cfg)
            assert np.array_equal(got.values, want.values)


class TestAdjoint:
    def test_zero(self, op_onesided):
        out = ref.ucp_adjoint(op_onesided, np.zeros(op_onesided.n_window))
        assert np.all(out.values == 0.0)

    def test_adjoint_identity_sweep(self, op_onesided, mach, box, rng):
        om = op_onesided.sets.omega
        for _ in range(50):
            v = op_onesided.embed_domain(rng.standard_normal(len(om)))
            hw = rng.standard_normal(op_onesided.n_window)
            lv = op_onesided.apply(v)
            lhs = fr.hminus_s_inner(mach, lv, hw, op_onesided.window)
            a = ref.ucp_adjoint(op_onesided, hw)
            rhs = fr.hs_inner(mach, a, v)
            scale = op_onesided.dual_norm(lv) * op_onesided.dual_norm(hw) + 1e-300
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestSpectralScheme:
    def test_mode_recovery_once_alpha_below_sigma(self, svd_onesided, op_onesided):
        j = 2
        sig = svd_onesided.sigmas
        psi = svd_onesided.domain_modes[:, j]
        h = op_onesided.matrix @ psi
        rec = fr.spectral_reconstruct(svd_onesided, h, alpha=sig[j] * 0.999)
        gram = op_onesided.machinery.gram_hs[
            np.ix_(op_onesided.sets.omega, op_onesided.sets.omega)
        ]
        d = rec.values[op_onesided.sets.omega] - psi
        assert np.sqrt(d @ gram @ d) <= 1e-9
        # above sigma_j the mode is filtered out entirely
        rec0 = fr.spectral_reconstruct(svd_onesided, h, alpha=sig[j - 1])
        d0 = rec0.values[op_onesided.sets.omega]
        assert np.sqrt(d0 @ gram @ d0) <= 1e-9 or np.abs(d0).max() <= 1e-12

    def test_zero_data(self, svd_onesided, op_onesided):
        out = fr.spectral_reconstruct(svd_onesided, np.zeros(op_onesided.n_window), 1e-3)
        assert np.all(out.values == 0.0)

    def test_alpha_above_sigma1_returns_zero(self, svd_onesided, op_onesided, rng):
        h = rng.standard_normal(op_onesided.n_window)
        out = fr.spectral_reconstruct(svd_onesided, h, alpha=2 * svd_onesided.sigmas[0])
        assert np.all(out.values == 0.0)

    def test_error_decreases_on_exact_data(self, svd_onesided, op_onesided, mach, box, rng):
        v = random_omega_bump(box, rng)
        vals = v.values.copy()
        mask = np.ones(box.size, dtype=bool)
        mask[op_onesided.sets.omega] = False
        vals[mask] = 0.0
        truth = fr.GridFunction(vals, box)
        h = op_onesided.apply(truth)
        sig1 = svd_onesided.sigmas[0]
        errs = []
        for k in range(13):
            rec = fr.spectral_reconstruct(svd_onesided, h, sig1 * 10 ** (-k / 2))
            d = fr.GridFunction(rec.values - truth.values, box)
            errs.append(fr.hs_norm(mach, d))
        errs = np.array(errs)
        assert np.all(np.diff(errs) <= 1e-12 * errs[0])

    def test_residual_nonincreasing_in_alpha(self, svd_onesided, op_onesided, rng):
        h = rng.standard_normal(op_onesided.n_window)
        sig1 = svd_onesided.sigmas[0]
        res = []
        for k in range(13):
            rec = fr.spectral_reconstruct(svd_onesided, h, sig1 * 10 ** (-k / 2))
            res.append(op_onesided.dual_norm(op_onesided.apply(rec) - h))
        res = np.array(res)
        assert np.all(np.diff(res) <= 1e-12 * res[0])


class TestTikhonovScheme:
    def test_zero_data(self, op_onesided):
        for alpha in (1.0, 1e-4, 1e-10):
            v, info = fr.tikhonov_reconstruct(op_onesided, np.zeros(op_onesided.n_window), alpha)
            assert np.all(v.values == 0.0)

    def test_large_alpha_shrinks(self, op_onesided, mach, rng):
        h = rng.standard_normal(op_onesided.n_window)
        sig1 = op_onesided.weighted.max()
        v, info = fr.tikhonov_reconstruct(op_onesided, h, alpha=1e6)
        assert fr.hs_norm(mach, v) <= 1e-4 * op_onesided.dual_norm(h)

    def test_filter_factor_equivalence(self, op_onesided, svd_onesided, mach, rng):
        h = rng.standard_normal(op_onesided.n_window)
        sig = svd_onesided.sigmas
        gram = op_onesided.machinery.gram_hs[
            np.ix_(op_onesided.sets.omega, op_onesided.sets.omega)
        ]
        for alpha in (sig[0] ** 2, sig[0] ** 2 * 1e-3, sig[0] ** 2 * 1e-6):
            v, _ = fr.tikhonov_reconstruct(op_onesided, h, alpha)
            coef = (sig / (sig**2 + alpha)) * svd_onesided.range_coefficients(h)
            v_ff = svd_onesided.domain_modes @ coef
            d = v.values[op_onesided.sets.omega] - v_ff
            rel = np.sqrt(d @ gram @ d) / np.sqrt(v_ff @ gram @ v_ff)
            assert rel <= 1e-8

    def test_gradient_certificate(self, op_onesided, rng):
        h = rng.standard_normal(op_onesided.n_window)
        sig1 = float(np.linalg.norm(op_onesided.weighted, 2))
        for alpha in fr.default_alpha_schedule(sig1):
            _, info = fr.tikhonov_reconstruct(op_onesided, h, alpha)
            assert info["gradient_certificate"] <= 1e-8

    def test_monotone_residual_and_penalty(self, op_onesided, rng):
        h = rng.standard_normal(op_onesided.n_window)
        sig1 = float(np.linalg.norm(op_onesided.weighted, 2))
        res, pen = [], []
        for alpha in fr.default_alpha_schedule(sig1):
            _, info = fr.tikhonov_reconstruct(op_onesided, h, alpha)
            res.append(info["residual_dual"])
            pen.append(info["penalty_hs"])
        res, pen = np.array(res), np.array(pen)
        assert np.all(np.diff(res) <= 1e-10 * res[0])
        assert np.all(np.diff(pen) >= -1e-10 * pen[-1])

    def test_cross_scheme_consistency_on_exact_data(
        self, op_onesided, svd_onesided, mach, box
    ):
        # truth in the numerically representable range: both schemes converge
        # to the same limit once the matched cutoffs pass its deepest mode
        sig = svd_onesided.sigmas
        weights = np.array([1.0, -0.7, 0.4, 0.2, -0.1])
        truth_om = svd_onesided.domain_modes[:, :5] @ weights
        truth = op_onesided.embed_domain(truth_om)
        h = op_onesided.apply(truth)
        alpha_spec = np.sqrt(sig[4] * sig[5])
        alpha_tik = 1e-5 * sig[4] ** 2
        v_spec = fr.spectral_reconstruct(svd_onesided, h, alpha_spec)
        v_tik, _ = fr.tikhonov_reconstruct(op_onesided, h, alpha_tik)
        d = fr.GridFunction(v_spec.values - v_tik.values, box)
        base = fr.hs_norm(mach, truth)
        assert fr.hs_norm(mach, d) / base <= 1e-4
        # and both sit on the truth itself
        for v in (v_spec, v_tik):
            dd = fr.GridFunction(v.values - truth.values, box)
            assert fr.hs_norm(mach, dd) / base <= 1e-4


def stacked_tikhonov(op, h, alpha):
    """Tikhonov minimizer from the stacked least-squares system
    [Lam; sqrt(alpha) I] y = [Q h; 0] in the Sobolev coordinates y = R w."""
    lam = op.weighted
    n_om = lam.shape[1]
    stacked = np.vstack([lam, np.sqrt(alpha) * np.eye(n_om)])
    rhs = np.concatenate([op.range_weight @ h, np.zeros(n_om)])
    y, *_ = sla.lstsq(stacked, rhs, lapack_driver="gelsy")
    return op.embed_domain(op.domain_chol_inv @ y)


class TestTikhonovStackedOracle:
    def test_matches_stacked_least_squares(self, op_pipeline, svd_pipeline, mach, box, rng):
        h = rng.standard_normal(op_pipeline.n_window)
        sig1 = svd_pipeline.sigmas[0]
        alphas = np.concatenate([fr.default_alpha_schedule(sig1), sig1**2 * 10.0 ** -np.arange(7)])
        for alpha in alphas:
            v, _ = fr.tikhonov_reconstruct(op_pipeline, h, alpha)
            ref = stacked_tikhonov(op_pipeline, h, alpha)
            d = fr.GridFunction(v.values - ref.values, box)
            assert fr.hs_norm(mach, d) <= 1e-10 * fr.hs_norm(mach, ref)


def secular_minimizer(smat, b, alpha):
    """Direct minimizer of 1/2 y'Sy - b'y + alpha ||y|| via the scalar secular equation."""
    d, v = sla.eigh(smat)
    beta = v.T @ b
    if np.linalg.norm(beta) <= alpha:
        return np.zeros_like(b)
    def g(r):
        return np.sqrt(np.sum((beta / (d + alpha / r)) ** 2)) - r
    r = brentq(g, 1e-13, 1e13, xtol=1e-15, rtol=1e-14, maxiter=500)
    return v @ (beta / (d + alpha / r))


class TestMinimalL2Scheme:
    def test_zero_data(self, mach, sets_pipeline):
        res = fr.minimal_l2_reconstruct(
            mach, sets_pipeline, np.zeros(len(sets_pipeline.w2)), alpha=0.1
        )
        assert np.all(res.f_hat.values == 0.0)
        assert np.all(res.phi_hat.values == 0.0)
        assert res.j_value == 0.0

    def test_certificates_on_random_data(self, mach, sets_pipeline, op_pipeline, box, rng):
        w2 = sets_pipeline.w2
        for trial in range(3):
            src = random_omega_bump(box, rng)
            vals = src.values.copy()
            mask = np.ones(box.size, dtype=bool)
            mask[sets_pipeline.omega] = False
            vals[mask] = 0.0
            h = op_pipeline.apply(fr.GridFunction(vals, box))
            h = h * (1.0 + 0.02 * rng.standard_normal(len(h)))
            alpha = 0.3 * op_pipeline.dual_norm(h)
            res = fr.minimal_l2_reconstruct(mach, sets_pipeline, h, alpha, tol=1e-8)
            # window residual certificate, via the independent dual-norm routine
            rvals = np.zeros(box.size)
            rvals[w2] = (mach.frac_lap @ res.phi_hat.values)[w2] - h
            resid = fr.hminus_s_norm(mach, fr.GridFunction(rvals, box), w2)
            assert resid <= alpha * 1.01
            # energy identity
            half_u = 0.5 * box.spacing * np.sum(res.u_hat.values[sets_pipeline.omega] ** 2)
            assert abs(res.j_value + half_u) <= 1e-6 * max(half_u, 1e-300)

    def test_matches_secular_oracle(self, mach, sets_pipeline, box, rng):
        from fracrec.ucp import _minl2_workspace

        ws = _minl2_workspace(mach, sets_pipeline, sets_pipeline.w2)
        src = random_omega_bump(box, rng)
        vals = src.values.copy()
        mask = np.ones(box.size, dtype=bool)
        mask[sets_pipeline.omega] = False
        vals[mask] = 0.0
        h = (mach.frac_lap @ vals)[sets_pipeline.w2]
        b = ws.data_vector(h)
        alpha = 0.4 * np.linalg.norm(b)
        res = fr.minimal_l2_reconstruct(mach, sets_pipeline, h, alpha, tol=1e-10)
        y_ref = secular_minimizer(ws.smooth_hessian, b, alpha)
        f_ref = ws.chol_inv @ y_ref
        num = np.linalg.norm(res.f_hat.values[sets_pipeline.w2] - f_ref)
        assert num <= 1e-5 * np.linalg.norm(f_ref)

    def test_exact_data_recovery_improves_along_schedule(
        self, mach, sets_pipeline, op_pipeline, box
    ):
        truth = fr.smooth_bump(box, 0.0, 0.6)
        vals = truth.values.copy()
        mask = np.ones(box.size, dtype=bool)
        mask[sets_pipeline.omega] = False
        vals[mask] = 0.0
        truth = fr.GridFunction(vals, box)
        h = op_pipeline.apply(truth)
        scale = op_pipeline.dual_norm(h)
        base = fr.hs_norm(mach, truth)
        errs = []
        for k in (0, 2, 4, 6):
            alpha = scale * 10.0 ** (-k)
            res = fr.minimal_l2_reconstruct(mach, sets_pipeline, h, alpha,
                                            max_iterations=400_000)
            d = fr.GridFunction(res.phi_hat.values - truth.values, box)
            errs.append(fr.hs_norm(mach, d) / base)
        assert all(b <= a * (1 + 1e-9) for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.3

    def test_null_component_decides_existence(self, mach, sets_pipeline):
        # a datum whose component in the control Hessian's numerical null
        # space has norm c: no minimizer below alpha = c, an exact one above
        from fracrec.ucp import _minl2_workspace

        ws = _minl2_workspace(mach, sets_pipeline, sets_pipeline.w2)
        null = ws.eigvals == 0.0
        assert 0 < null.sum() < len(null)
        c = 0.1
        b = ws.eigvecs[:, ~null].sum(axis=1) / np.sqrt((~null).sum())
        b = b + c * ws.eigvecs[:, null][:, 0]
        h = np.linalg.solve(ws.chol_inv.T, b) / ws.spacing
        assert np.linalg.norm(ws.eigvecs[:, null].T @ ws.data_vector(h)) == pytest.approx(
            c, rel=1e-9
        )
        with pytest.raises(fr.OptimizerNonConvergence, match="no minimizer"):
            fr.minimal_l2_reconstruct(mach, sets_pipeline, h, 0.99 * c)
        res = fr.minimal_l2_reconstruct(mach, sets_pipeline, h, 1.01 * c)
        assert res.converged and np.all(np.isfinite(res.phi_hat.values))
        assert np.any(res.f_hat.values != 0.0)

    def test_fails_closed_just_above_the_null_norm(self):
        # with null/alpha in 0.6-0.99 the zeroed Hessian modes still act on the
        # large null components of y in the formed residual ||S y - b||: the
        # solve must raise rather than return a point above alpha (1 + tol)
        from fracrec.ucp import _minl2_workspace

        box = fr.build_box(16.0, 256)
        m = fr.build_sobolev(box, fr.FractionalOrder(0.5))
        sets = fr.build_index_sets(box, OMEGA, W1_PIPELINE, W2_PIPELINE)
        q = fr.Potential(2.0 * fr.smooth_bump(box, 0.0, 0.5).values[sets.omega])
        f = np.zeros(box.size)
        f[sets.w1] = fr.smooth_bump(box, 4.5, 0.45).values[sets.w1]
        f = fr.GridFunction(f, box)
        ws = _minl2_workspace(m, sets, sets.w2)
        tol, returned = 1e-10, 0
        for level in (0.0, 1e-4, 1e-2):
            rec = fr.synthetic_measurement(m, sets, q, f, noise_level=level, seed=1)
            h = fr.measurement_to_h(m, sets, rec)
            beta = ws.eigvecs.T @ ws.data_vector(h)
            null = np.linalg.norm(beta[ws.eigvals == 0.0])
            for ratio in (0.6, 0.8, 0.9, 0.95, 0.99):
                alpha = null / ratio
                try:
                    res = fr.minimal_l2_reconstruct(m, sets, h, alpha, tol=tol)
                except fr.OptimizerNonConvergence:
                    continue
                returned += 1
                assert res.residual_dual <= alpha * (1.0 + tol)
        assert returned > 0

    def test_nonconvergence_raises(self, mach, sets_pipeline, rng):
        # alpha far below the floating-point coercivity floor on pure noise
        h = rng.standard_normal(len(sets_pipeline.w2))
        with pytest.raises(fr.OptimizerNonConvergence):
            fr.minimal_l2_reconstruct(mach, sets_pipeline, h, alpha=1e-12,
                                      max_iterations=2_000)


class TestMinimalL2Workspace:
    def test_cache_distinguishes_omega_with_same_window(self, mach, sets_pipeline, box, rng):
        # a second omega with the same window on one machinery must not reuse
        # the first omega's matrices: compare with a solve on a fresh machinery
        sets_shift = fr.build_index_sets(box, [(-1.25, 0.75)], W1_PIPELINE, W2_PIPELINE)
        assert np.array_equal(sets_shift.w2, sets_pipeline.w2)
        op_shift = fr.assemble_ucp(mach, sets_shift)
        h = op_shift.apply(op_shift.embed_domain(
            random_omega_bump(box, rng).values[sets_shift.omega] + 0.1
        ))
        alpha = 0.3 * op_shift.dual_norm(h)
        fr.minimal_l2_reconstruct(mach, sets_pipeline, h, alpha)
        warm = fr.minimal_l2_reconstruct(mach, sets_shift, h, alpha)
        cold = fr.minimal_l2_reconstruct(fr.build_sobolev(box, mach.order), sets_shift, h, alpha)
        diff = np.linalg.norm(warm.phi_hat.values - cold.phi_hat.values)
        assert diff <= 1e-12 * np.linalg.norm(cold.phi_hat.values)


class TestRegularizerConfig:
    def test_schedule_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            fr.RegularizerConfig(scheme="tikhonov", alpha_schedule=[1.0, 2.0])
        with pytest.raises(ValueError, match="decreasing"):
            fr.RegularizerConfig(scheme="tikhonov", alpha_schedule=[1.0, -0.5])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            fr.RegularizerConfig(scheme="landweber")

    def test_unknown_stop_rule_rejected(self):
        with pytest.raises(ValueError, match="stop rule"):
            fr.RegularizerConfig(scheme="spectral", stop_rule=("lcurve",))

    def test_negative_discrepancy_delta_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            fr.RegularizerConfig(scheme="spectral", stop_rule=("discrepancy", -1e-3))

    def test_discrepancy_without_delta_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            fr.RegularizerConfig(scheme="spectral", stop_rule=("discrepancy",))

    def test_bare_string_stop_rule_rejected(self):
        with pytest.raises(ValueError, match="stop rule must be"):
            fr.RegularizerConfig(scheme="spectral", stop_rule="fixed_list")

    @pytest.mark.parametrize("tol", [0.0, -1e-8, 1.0, float("nan")])
    def test_inner_solver_tol_outside_unit_interval_rejected(self, tol):
        with pytest.raises(ValueError, match="inner_solver_tol"):
            fr.RegularizerConfig(scheme="minimal_l2", inner_solver_tol=tol)

    def test_max_inner_iterations_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_inner_iterations"):
            fr.RegularizerConfig(scheme="minimal_l2", max_inner_iterations=0)

    def test_default_schedule_shape(self):
        sched = fr.default_alpha_schedule(2.0)
        assert len(sched) == 13
        assert sched[0] == 2.0
        assert np.allclose(sched[1:] / sched[:-1], 10**-0.5)


class TestRungeApproximation:
    def test_exactly_representable_target(self, mach, sets_classic, box):
        q = fr.Potential(np.full(len(sets_classic.omega), 0.5))
        x = box.nodes[sets_classic.w1]
        h = box.spacing
        a, b = x[0] - h / 2, x[-1] + h / 2
        f0 = np.zeros(box.size)
        f0[sets_classic.w1] = np.sin(2 * np.pi * (x - a) / (b - a))
        target = fr.solve_dirichlet(
            mach, sets_classic, q, fr.GridFunction(f0, box)
        ).u.values[sets_classic.omega]
        _, err = fr.runge_approximate(mach, sets_classic, q, target, control_dim=4)
        assert err <= 1e-8

    def test_zero_target(self, mach, sets_classic):
        q = fr.Potential(np.zeros(len(sets_classic.omega)))
        f, err = fr.runge_approximate(
            mach, sets_classic, q, np.zeros(len(sets_classic.omega)), control_dim=6
        )
        assert err == 0.0
        assert np.all(f.values == 0.0)

    def test_error_nonincreasing_in_dimension(self, mach, sets_classic, box):
        q = fr.Potential(np.zeros(len(sets_classic.omega)))
        target = fr.smooth_bump(box, 0.1, 0.7).values[sets_classic.omega]
        errs = [
            fr.runge_approximate(mach, sets_classic, q, target, control_dim=cd)[1]
            for cd in (4, 8, 16, 32)
        ]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))
