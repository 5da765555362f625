"""Spectrum report, oscillatory-source decay series, noise-stability sweep."""

import numpy as np
import pytest

import fracrec as fr
import fracrec.experiments as experiments


@pytest.fixture(scope="module")
def shell13():
    return fr.make_instability_geometry(13.0, 0.5)


class TestEigenfunctions:
    def test_unit_norm_and_single_sign(self, mach, sets_classic, box):
        vks = fr.dirichlet_eigenfunctions(mach, sets_classic, k_max=4)
        v1 = vks[0]
        om = sets_classic.omega
        nrm = np.sqrt(box.spacing * np.sum(v1.values[om] ** 2))
        assert nrm == pytest.approx(1.0, abs=1e-10)
        assert np.all(v1.values[om] > 0)

    def test_orthogonality(self, mach, sets_classic, box):
        vks = fr.dirichlet_eigenfunctions(mach, sets_classic, k_max=6)
        om = sets_classic.omega
        for i in range(6):
            for j in range(i + 1, 6):
                ip = box.spacing * np.sum(vks[i].values[om] * vks[j].values[om])
                assert abs(ip) <= 1e-10

    def test_second_difference_eigenvalue(self, mach, sets_classic, box):
        # interior second differences reproduce the interval eigenvalue (k pi / L)^2
        vks = fr.dirichlet_eigenfunctions(mach, sets_classic, k_max=3)
        om = sets_classic.omega
        h = box.spacing
        for k, vk in enumerate(vks, start=1):
            vals = vk.values[om]
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
        for k, vk in zip(series.k_values, series.vk):
            v = vk.values[om]
            assert np.sqrt(h * np.sum(v**2)) == pytest.approx(1.0, abs=1e-12)
            assert np.all(vk.values[np.setdiff1d(np.arange(m.box.size), om)] == 0.0)
            for parity in (0, 1):
                cls = np.arange(len(om)) % 2 == parity
                for p in range(k):
                    moment = np.sum(v[cls] * y[cls] ** p)
                    scale = np.sum(np.abs(v[cls] * y[cls] ** p))
                    assert abs(moment) <= 1e-13 * scale

    def test_fit_skips_rounding_floor(self, shell13):
        m, sets = shell13
        series = fr.instability_series(m, sets, k_max=12)
        fit = series.decay_fit
        ks = series.k_values
        kept = np.isin(ks, fit["k_fit"])
        assert len(fit["k_fit"]) >= 2 and min(fit["k_fit"]) >= 2
        assert np.all(series.hk_norms[kept] > fit["floor"])
        assert np.all(series.hk_norms[(ks >= 2) & ~kept] <= fit["floor"])

    def test_infeasible_series_raises(self):
        m, sets = fr.make_instability_geometry(13.0, 0.5, points=512)
        with pytest.raises(ValueError, match="interior nodes"):
            fr.instability_series(m, sets, k_max=12)
        m, sets = fr.make_instability_geometry(13.0, 0.5)
        with pytest.raises(ValueError, match="rounding floor"):
            fr.instability_series(m, sets, k_max=12, fit_range=(10, 12))

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
        op_pipeline, cfg, trials=3, noise_levels=levels, s_prime=0.25, seed=3
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

    def test_seeded_determinism(self, op_pipeline):
        sigma1 = float(np.linalg.norm(op_pipeline.weighted, 2))
        cfg = fr.RegularizerConfig(
            scheme="spectral", alpha_schedule=fr.default_alpha_schedule(sigma1)
        )
        levels = 10.0 ** np.linspace(-2, -5, 3)
        a = fr.stability_sweep(op_pipeline, cfg, 2, levels, 0.25, seed=11)
        b = fr.stability_sweep(op_pipeline, cfg, 2, levels, 0.25, seed=11)
        assert np.array_equal(a.per_trial, b.per_trial)

    def test_weak_order_must_be_below_operator_order(self, op_pipeline):
        cfg = fr.RegularizerConfig(scheme="spectral", alpha_schedule=np.array([1e-3]))
        with pytest.raises(ValueError, match="s_prime"):
            fr.stability_sweep(op_pipeline, cfg, 1, np.array([1e-3]), s_prime=0.5)


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
        fr.stability_sweep(op_pipeline, cfg, trials=5, noise_levels=10.0 ** np.linspace(-2, -8, 7),
                           s_prime=0.25, seed=3)
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
