"""Spectrum report, oscillatory-source decay series, noise-stability sweep."""

import tracemalloc

import numpy as np
import pytest

import fracrec as fr
import fracrec.experiments as experiments
import reference as ref


@pytest.fixture(scope="module")
def shell13():
    return fr.make_instability_geometry(13.0, 0.5)


class TestEigenfunctions:
    def test_unit_norm_and_single_sign(self, mach, sets_classic, box):
        vks = fr.dirichlet_eigenfunctions(mach, sets_classic, k_max=4)
        v1 = vks[0]
        nrm = np.sqrt(box.spacing * np.sum(v1**2))
        assert nrm == pytest.approx(1.0, abs=1e-10)
        assert np.all(v1 > 0)

    def test_orthogonality(self, mach, sets_classic, box):
        vks = fr.dirichlet_eigenfunctions(mach, sets_classic, k_max=6)
        for i in range(6):
            for j in range(i + 1, 6):
                ip = box.spacing * np.sum(vks[i] * vks[j])
                assert abs(ip) <= 1e-10

    def test_second_difference_eigenvalue(self, mach, sets_classic, box):
        # interior second differences reproduce the interval eigenvalue (k pi / L)^2
        vks = fr.dirichlet_eigenfunctions(mach, sets_classic, k_max=3)
        h = box.spacing
        for k, vals in enumerate(vks, start=1):
            lap = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2
            lam = (k * np.pi / 2.0) ** 2
            inner = slice(2, len(vals) - 4)  # stay away from the support edge
            ratio = -lap[inner] / vals[1:-1][inner]
            assert np.abs(ratio - lam).max() <= 0.02 * lam

    def test_requires_single_interval(self, box):
        m = fr.build_sobolev(box, fr.FractionalOrder(0.5))
        sets = fr.build_index_sets(box, [(-1, -0.25), (0.25, 1)], [(2, 3)], [(2, 3)])
        with pytest.raises(ValueError, match="single interval"):
            fr.dirichlet_eigenfunctions(m, sets, k_max=2)


class TestInstabilitySeries:
    def test_geometry_preconditions(self):
        with pytest.raises(ValueError, match=">= 13"):
            fr.make_instability_geometry(5.0, 0.5)
        with pytest.raises(ValueError, match="box radius"):
            fr.make_instability_geometry(13.0, 0.5, box_radius=12.0)

    def test_one_gram_factorization_per_series(self, cholesky_calls):
        m, sets = fr.make_instability_geometry(13.0, 0.5)
        fr.instability_series(m, sets, k_max=12)
        assert cholesky_calls == [(len(sets.w2), len(sets.w2))]

    def test_norms_positive_and_fit_reported(self, shell13):
        m, sets = shell13
        series = fr.instability_series(m, sets, k_max=12)
        assert np.all(series.hk_norms > 1e-300)
        assert len(series.k_values) == 12
        assert "slope" in series.decay_fit and "r2" in series.decay_fit

    def test_steeper_decay_at_larger_shell_radius(self, shell13):
        m13, sets13 = shell13
        s13 = fr.instability_series(m13, sets13, k_max=12)
        m20, sets20 = fr.make_instability_geometry(20.0, 0.5)
        s20 = fr.instability_series(m20, sets20, k_max=12)
        assert s20.decay_fit["slope"] < s13.decay_fit["slope"]

    def test_vk_unit_norm_and_moment_free_per_parity(self, shell13):
        m, sets = shell13
        series = fr.instability_series(m, sets, k_max=12)
        om = sets.omega
        h = m.box.spacing
        y = m.box.nodes[om]
        for k, v in zip(series.k_values, series.vk):
            assert np.sqrt(h * np.sum(v**2)) == pytest.approx(1.0, abs=1e-12)
            for parity in (0, 1):
                cls = np.arange(len(om)) % 2 == parity
                for p in range(k):
                    moment = np.sum(v[cls] * y[cls] ** p)
                    scale = np.sum(np.abs(v[cls] * y[cls] ** p))
                    assert abs(moment) <= 1e-13 * scale

    def test_vk_rows_live_on_omega(self, shell13):
        m, sets = shell13
        series = fr.instability_series(m, sets, k_max=12)
        assert series.vk.shape == (12, len(sets.omega))

    def test_series_allocates_no_full_grid_vector_per_k(self):
        # the series used to keep 2 * k_max full-grid vectors, a 17.5 MB traced peak
        n, k_max = 16384, 40
        m, sets = fr.make_instability_geometry(13.0, 0.5, points=n)
        fr.instability_series(m, sets, k_max=k_max)  # first-call imports stay out of the peak
        tracemalloc.start()
        try:
            fr.instability_series(m, sets, k_max=k_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 * k_max * n

    def test_fit_skips_rounding_floor(self, shell13):
        m, sets = shell13
        series = fr.instability_series(m, sets, k_max=12)
        fit = series.decay_fit
        ks = series.k_values
        kept = np.isin(ks, fit["k_fit"])
        assert len(fit["k_fit"]) >= 2 and min(fit["k_fit"]) >= 2
        assert np.all(series.hk_norms[kept] > fit["floor"])
        assert np.all(series.hk_norms[(ks >= 2) & ~kept] <= fit["floor"])

    def test_infeasible_series_raises(self, monkeypatch):
        m, sets = fr.make_instability_geometry(13.0, 0.5, points=512)
        with pytest.raises(ValueError, match="interior nodes"):
            fr.instability_series(m, sets, k_max=12)
        m, sets = fr.make_instability_geometry(13.0, 0.5)
        monkeypatch.setattr(fr.experiments, "DECAY_FIT_RANGE", (10, 12))
        with pytest.raises(ValueError, match="rounding floor"):
            fr.instability_series(m, sets, k_max=12)
        with pytest.raises(ValueError, match=r"kmax 10 must be >= 11: .* two k in 10\.\.12"):
            fr.instability_series(m, sets, k_max=10)

    def test_fit_holds_only_what_the_report_reads(self, shell13):
        m, sets = shell13
        series = fr.instability_series(m, sets, k_max=12)
        assert set(series.decay_fit) == {"slope", "r2", "k_fit", "floor"}

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("n", [1024, 2048, 4096])
    @pytest.mark.parametrize("radius", [13.0, 20.0])
    def test_matches_per_k_projection(self, radius, n, s):
        # one QR of nested spans against one QR and one full-grid product per k
        m, sets = fr.make_instability_geometry(radius, s, points=n)
        lo, hi = experiments.DECAY_FIT_RANGE
        for k_max in (3, 8, 12):
            series = fr.instability_series(m, sets, k_max=k_max)
            vk, norms = ref.instability_series_per_k(m, sets, k_max)
            assert np.abs(series.vk - vk).max() <= 1e-13 * np.abs(vk).max()
            ks = series.k_values
            k_fit = ks[(ks >= lo) & (ks <= hi) & (norms > series.decay_fit["floor"])]
            assert series.decay_fit["k_fit"] == k_fit.tolist()
            slope = np.polyfit(k_fit, np.log(norms[k_fit - 1]), 1)[0]
            assert series.decay_fit["slope"] == pytest.approx(slope, rel=1e-4)

    def test_scaled_norms_bounded_constant_reported(self, shell13):
        # max_k ||h_k|| 2^k is finite and reported per run
        m, sets = shell13
        series = fr.instability_series(m, sets, k_max=12)
        scaled = series.hk_norms * 2.0 ** series.k_values
        assert np.isfinite(scaled).all()


class TestSpectrumReport:
    def test_columns_and_rank(self, svd_onesided, op_onesided):
        rep = fr.spectrum_report(svd_onesided)
        lead = rep["sigma"][: rep["numerical_rank"]]
        assert np.all(np.diff(lead) < 0)
        assert rep["numerical_rank"] <= op_onesided.n_window
        assert rep["slope"] <= -0.5
        assert len(rep["j"]) == len(rep["sigma"]) == len(rep["log10_sigma"])


@pytest.fixture(scope="module")
def sweep(op_pipeline):
    sigma1 = float(np.linalg.norm(op_pipeline.weighted, 2))
    cfg = fr.RegularizerConfig(
        scheme="spectral",
        alpha_schedule=sigma1 * 10.0 ** (-np.arange(0, 61) / 4.0),
    )
    levels = np.concatenate([[0.0], 10.0 ** np.linspace(-2, -8, 7)])
    return fr.stability_sweep(
        op_pipeline, cfg.scheme, trials=3, noise_levels=levels, s_prime=0.25, seed=3,
        alpha_schedule=cfg.alpha_schedule,
    )


class TestStabilitySweep:
    def test_exact_data_error_at_floor(self, sweep):
        assert sweep.recon_errors[0] <= 2e-2 * sweep.energy

    def test_monotone_in_the_mean(self, sweep):
        noisy = sweep.recon_errors[1:]
        assert np.all(np.diff(noisy) <= 1e-12 + 0 * noisy[:-1])

    def test_log_model_beats_power_law(self, sweep):
        assert sweep.fitted_modulus["sigma"] > 0
        assert sweep.fitted_modulus["residual"] < sweep.power_fit["residual"]

    def test_power_residual_is_the_log_log_line_s(self, op_pipeline):
        # the sweep fits against log(eta * ||h||); that shift of the abscissa
        # leaves the residual of the least-squares line unchanged
        levels = np.array([0.0, 1e-2, 1e-3, 1e-5, 1e-7])
        sweep = fr.stability_sweep(op_pipeline, "spectral", 2, levels, 0.25, seed=5)
        pos = levels > 0
        x, y = np.log(levels[pos]), np.log(sweep.recon_errors[pos])
        r = np.polyval(np.polyfit(x, y, 1), x) - y
        assert set(sweep.power_fit) == {"residual"}
        assert sweep.power_fit["residual"] == pytest.approx(float(r @ r), rel=1e-9)

    def test_repeated_level_is_one_level(self, op_pipeline):
        with pytest.raises(ValueError, match="two distinct positive levels"):
            fr.stability_sweep(op_pipeline, "spectral", 1, np.array([0.0, 1e-3, 1e-3]), 0.25)

    def test_underflowing_level_is_refused_before_any_trial(self, op_pipeline, monkeypatch):
        # 5e-324 * ||h|| rounds to 0 for ||h|| < 1/2
        solves = []
        monkeypatch.setattr(experiments, "recover_interior", lambda *a: solves.append(a))
        with pytest.raises(ValueError, match=r"noise level 4\.94066e-324 .* underflows to 0"):
            fr.stability_sweep(op_pipeline, "spectral", 1, np.array([1e-3, 5e-324]), 0.25)
        assert solves == []

    def test_seeded_determinism(self, op_pipeline):
        sigma1 = float(np.linalg.norm(op_pipeline.weighted, 2))
        cfg = fr.RegularizerConfig(
            scheme="spectral", alpha_schedule=fr.default_alpha_schedule(sigma1)
        )
        levels = 10.0 ** np.linspace(-2, -5, 3)
        a = fr.stability_sweep(op_pipeline, cfg.scheme, 2, levels, 0.25, seed=11,
                               alpha_schedule=cfg.alpha_schedule)
        b = fr.stability_sweep(op_pipeline, cfg.scheme, 2, levels, 0.25, seed=11,
                               alpha_schedule=cfg.alpha_schedule)
        assert np.array_equal(a.per_trial, b.per_trial)

    def test_weak_order_must_be_below_operator_order(self, op_pipeline):
        cfg = fr.RegularizerConfig(scheme="spectral", alpha_schedule=np.array([1e-3]))
        with pytest.raises(ValueError, match="s_prime"):
            fr.stability_sweep(op_pipeline, cfg.scheme, 1, np.array([1e-3]), s_prime=0.5,
                               alpha_schedule=cfg.alpha_schedule)


def least_squares_log_modulus(eta, err, energy):
    """The 12-start scipy least_squares fit of err ~ C*E / log(C*E/eta)^sigma
    in (log C, log sigma) that `_fit_log_modulus` replaced."""
    from scipy.optimize import least_squares

    def resid(p):
        c, sg = np.exp(p)
        arg = np.maximum(c * energy / eta, 1.0 + 1e-9)
        return np.log(c * energy / np.log(arg) ** sg) - np.log(err)

    fits = [least_squares(resid, x0=[c0, s0])
            for c0 in (-2.0, 0.0, 2.0, 5.0) for s0 in (-1.0, 0.0, 1.0)]
    best = min(fits, key=lambda r: r.cost)
    c, sg = np.exp(best.x)
    return {"C": c, "sigma": sg, "residual": 2.0 * best.cost}


class TestLogModulusFit:
    def test_zero_error_gives_no_fit(self):
        eta = 10.0 ** np.arange(-2.0, -6.0, -1.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # log(0) = -inf
            fit = experiments._fit_log_modulus(eta, np.array([1e-2, 1e-3, 0.0, 1e-5]), 1.0)
        assert np.isnan(fit["C"]) and np.isnan(fit["sigma"]) and fit["residual"] == np.inf

    def test_matches_multistart_least_squares(self, op_pipeline, monkeypatch):
        # the reference stops at least_squares' default 1e-8 tolerances; the
        # largest gaps seen on these ladders are 6.8e-6 in C and 7.3e-7 in sigma
        fit = experiments._fit_log_modulus
        ladders = []

        def record(eta, err, energy):
            ladders.append((eta, err, energy))
            return fit(eta, err, energy)

        monkeypatch.setattr(experiments, "_fit_log_modulus", record)
        sigma1 = float(np.linalg.norm(op_pipeline.weighted, 2))  # acceptance 09's ladder
        cfg = fr.RegularizerConfig(
            scheme="spectral",
            alpha_schedule=fr.default_alpha_schedule(sigma1, kmax=60, step=0.25),
        )
        fr.stability_sweep(op_pipeline, cfg.scheme, trials=5,
                           noise_levels=10.0 ** np.linspace(-2, -8, 7), s_prime=0.25, seed=3,
                           alpha_schedule=cfg.alpha_schedule)
        rng = np.random.default_rng(7)
        for _ in range(5):  # the log model with 10% log-normal scatter
            energy, c, sg = rng.uniform(0.5, 2.0), 10 ** rng.uniform(0, 3), rng.uniform(0.5, 4)
            eta = 10.0 ** np.linspace(-2, -8, 7) * rng.uniform(0.1, 10)
            err = c * energy / np.log(c * energy / eta) ** sg
            err *= np.exp(0.1 * rng.standard_normal(7))
            ladders.append((eta, err, energy))
        assert len(ladders) == 6
        for eta, err, energy in ladders:
            new, ref = fit(eta, err, energy), least_squares_log_modulus(eta, err, energy)
            assert new["residual"] <= ref["residual"] * (1.0 + 1e-12)
            assert new["C"] == pytest.approx(ref["C"], rel=1e-4)
            assert new["sigma"] == pytest.approx(ref["sigma"], rel=1e-5)
