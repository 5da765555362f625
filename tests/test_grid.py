"""Discretization substrate: box, index sets, operator and norm machinery."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import fracrec as fr
import fracrec.grid as grid
from fracrec.grid import tril_inverse

from conftest import (
    OMEGA, POINTS, RADIUS, S, W1_PIPELINE, W2_PIPELINE, random_omega_bump,
)
import reference as ref


class TestBuildBox:
    def test_spacing(self):
        box = fr.build_box(16.0, 512)
        assert box.spacing == pytest.approx(0.0625, abs=0)

    def test_first_node_cell_centered(self):
        box = fr.build_box(16.0, 64)
        assert box.size == 64
        assert box.nodes[0] == pytest.approx(-16.0 + 0.25, abs=1e-14)
        assert box.nodes[-1] == pytest.approx(16.0 - 0.25, abs=1e-14)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            fr.build_box(16.0, 100)

    def test_rejects_small_and_nonpositive(self):
        with pytest.raises(ValueError):
            fr.build_box(16.0, 32)
        with pytest.raises(ValueError):
            fr.build_box(-1.0, 128)
        with pytest.raises(ValueError):
            fr.build_box(16.0, 128, dimension=2)


class TestIndexSets:
    def test_classic_layout(self, box, sets_classic):
        x = box.nodes
        assert np.all(np.abs(x[sets_classic.omega]) < 1.0)
        assert len(np.intersect1d(sets_classic.omega, sets_classic.w1)) == 0
        assert len(np.intersect1d(sets_classic.omega, sets_classic.w2)) == 0
        assert np.isin(sets_classic.w1, sets_classic.exterior).all()
        assert np.isin(sets_classic.w2, sets_classic.exterior).all()
        assert sets_classic.separation_gap >= 1.0
        union = np.union1d(sets_classic.omega, sets_classic.exterior)
        assert np.array_equal(union, np.arange(box.size))

    def test_overlap_rejected(self, box):
        with pytest.raises(ValueError):
            fr.build_index_sets(box, [(-1, 1)], [(0.5, 2)], [(-3, -2)])

    def test_w1_equal_w2_far_shell_allowed(self, box):
        sets = fr.build_index_sets(box, [(-1, 1)], [(12, 13)], [(12, 13)])
        assert np.array_equal(sets.w1, sets.w2)

    def test_empty_region_rejected(self, box):
        h = box.spacing
        with pytest.raises(ValueError, match="no grid nodes"):
            fr.build_index_sets(box, [(-1, 1)], [(2, 2 + h / 10)], [(-3, -2)])

    def test_region_outside_box_rejected(self, box):
        with pytest.raises(ValueError, match="leaves the box"):
            fr.build_index_sets(box, [(-1, 1)], [(15, 17)], [(-3, -2)])


class TestGridFunction:
    def test_length_check(self, box):
        with pytest.raises(ValueError, match="length"):
            fr.GridFunction(np.zeros(7), box)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            fr.FractionalOrder(0.0)
        with pytest.raises(ValueError):
            fr.FractionalOrder(1.0)


class TestOperatorMatrix:
    def test_symmetry(self, mach):
        a = np.asarray(mach.frac_lap)
        assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()

    def test_positive_semidefinite(self, mach):
        w = sla.eigvalsh(mach.frac_lap)
        assert w[0] >= -1e-10 * w[-1]

    def test_gram_positive_definite(self, mach):
        sla.cholesky(mach.gram_hs)  # raises if not SPD

    def test_plane_wave_eigenvector(self, mach, box):
        # lattice-compatible wavenumber: xi = pi k / R
        xi = np.pi * 7 / RADIUS
        wave = fr.GridFunction(np.cos(xi * box.nodes), box)
        out = ref.fraclap_apply(mach, wave)
        assert np.allclose(out.values, xi ** (2 * S) * wave.values, atol=1e-10)

    def test_zero_maps_to_zero(self, mach, box):
        out = ref.fraclap_apply(mach, fr.GridFunction(np.zeros(box.size), box))
        assert np.all(out.values == 0.0)

    def test_box_mismatch_rejected(self, mach):
        other = fr.build_box(8.0, 128)
        with pytest.raises(ValueError, match="different box"):
            ref.fraclap_apply(mach, fr.GridFunction(np.zeros(128), other))

    def test_sball_closed_form(self, mach, box, sets_classic):
        # (1-x^2)_+^(1/2) has constant fractional Laplacian 1 inside (-1,1)
        x = box.nodes
        u = fr.GridFunction(
            np.where(np.abs(x) < 1, np.sqrt(np.clip(1 - x**2, 0, None)), 0.0), box
        )
        out = ref.fraclap_apply(mach, u)
        interior = sets_classic.omega[np.abs(x[sets_classic.omega]) <= 0.75]
        assert np.abs(out.values[interior] - 1.0).max() <= 2e-2

    def test_dilation_scaling(self, box):
        # sampling u(x/2) on this box equals sampling u on the half-size box,
        # and the operator scales by 2^(2s) between the two boxes
        half = fr.build_box(RADIUS / 2, POINTS)
        m_full = fr.build_sobolev(box, fr.FractionalOrder(S))
        m_half = fr.build_sobolev(half, fr.FractionalOrder(S))
        u = fr.smooth_bump(half, 0.0, 0.5)
        wide = fr.GridFunction(u.values.copy(), box)  # same samples = u(x/2)
        lhs = ref.fraclap_apply(m_full, wide).values
        rhs = 2.0 ** (-2 * S) * (ref.fraclap_apply(m_half, u).values)
        assert np.allclose(lhs, rhs, atol=1e-12 * np.abs(rhs).max())


def dense_circulant_reference(symbol):
    """The dense N x N construction the circulant columns replaced."""
    n = len(symbol)
    col = np.fft.ifft(symbol).real
    col = 0.5 * (col + np.roll(col[::-1], 1))
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return col[idx]


def dense_reference(box, s):
    xi = 2.0 * np.pi * np.fft.fftfreq(box.size, d=box.spacing)
    frac_lap = dense_circulant_reference(np.abs(xi) ** (2.0 * s))
    gram_hs = box.spacing * dense_circulant_reference((1.0 + xi**2) ** s)
    return frac_lap, gram_hs


class TestCirculant:
    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("s", [0.2, 0.5, 0.7])
    def test_blocks_bit_identical_to_dense(self, n, s):
        box = fr.build_box(16.0, n)
        m = fr.build_sobolev(box, fr.FractionalOrder(s))
        rng = np.random.default_rng(n)
        for circ, dense in zip((m.frac_lap, m.gram_hs), dense_reference(box, s)):
            assert np.array_equal(np.asarray(circ), dense)
            rows = np.sort(rng.choice(n, n // 4, replace=False))
            cols = np.sort(rng.choice(n, n // 3, replace=False))
            assert np.array_equal(circ[np.ix_(rows, cols)], dense[np.ix_(rows, cols)])

    def test_rows_match_dense_product(self, mach, box, sets_classic, rng):
        dense_lap, dense_gram = dense_reference(box, S)
        sparse = np.zeros(box.size)
        sparse[sets_classic.omega] = rng.standard_normal(len(sets_classic.omega))
        full = rng.standard_normal(box.size)
        rows = np.concatenate([sets_classic.w2, sets_classic.omega])
        for circ, dense in ((mach.frac_lap, dense_lap), (mach.gram_hs, dense_gram)):
            for x in (sparse, full):
                ref = (dense @ x)[rows]
                got = circ.rows(rows, x)
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
                assert np.abs(circ @ x - dense @ x).max() <= 1e-13 * np.abs(dense @ x).max()

    def test_holds_two_columns_only(self, mach, box):
        assert mach.frac_lap.nbytes + mach.gram_hs.nbytes == 16 * box.size

    def test_fft_product_matches_dense(self, mach, box, sets_classic, rng, monkeypatch):
        monkeypatch.setattr(grid, "GATHER_MAX_ENTRIES", 0)
        wave = np.cos(2.0 * np.pi * 7 * np.arange(box.size) / box.size)
        sparse = np.zeros(box.size)
        sparse[sets_classic.omega] = rng.standard_normal(len(sets_classic.omega))
        rows = np.concatenate([sets_classic.w2, sets_classic.omega])
        for circ in (mach.frac_lap, mach.gram_hs):
            dense = np.asarray(circ)
            for x in (wave, sparse, rng.standard_normal(box.size)):
                want = dense @ x
                assert np.linalg.norm(circ @ x - want) <= 1e-12 * np.linalg.norm(want)
                assert np.linalg.norm(circ.rows(rows, x) - want[rows]) \
                    <= 1e-12 * np.linalg.norm(want[rows])

    def test_full_support_norm_stays_small_at_16384(self):
        n = 16384
        assert n * n > grid.GATHER_MAX_ENTRIES  # the gather would take 4.3 GB
        box = fr.build_box(16.0, n)
        m = fr.build_sobolev(box, fr.FractionalOrder(S))
        wave = fr.GridFunction(np.cos(2.0 * np.pi * 5 * np.arange(n) / n), box)
        tracemalloc.start()
        try:
            norm = fr.hs_norm(m, wave)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        xi = 2.0 * np.pi * 5 / (2.0 * box.radius)
        want = np.sqrt((1.0 + xi**2) ** S * box.spacing * np.sum(wave.values**2))
        assert norm == pytest.approx(want, rel=1e-10)
        assert peak < 64 * 2**20


class TestQuadratureOracle:
    def test_zero(self, box):
        out = ref.fraclap_quadrature_oracle(
            fr.GridFunction(np.zeros(box.size), box), fr.FractionalOrder(S), np.array([10, 20])
        )
        assert np.all(out == 0.0)

    def test_sball_value_at_origin(self, box):
        x = box.nodes
        u = fr.GridFunction(
            np.where(np.abs(x) < 1, np.sqrt(np.clip(1 - x**2, 0, None)), 0.0), box
        )
        i0 = int(np.argmin(np.abs(x)))
        val = ref.fraclap_quadrature_oracle(u, fr.FractionalOrder(S), np.array([i0]))[0]
        assert val == pytest.approx(1.0, abs=1e-2)

    def test_matches_matrix_on_random_bumps(self, mach, box, sets_classic, rng):
        om = sets_classic.omega
        h = box.spacing
        for _ in range(5):
            u = random_omega_bump(box, rng)
            mat = ref.fraclap_apply(mach, u).values[om]
            orc = ref.fraclap_quadrature_oracle(u, fr.FractionalOrder(S), om)
            rel = np.sqrt(h * np.sum((mat - orc) ** 2)) / np.sqrt(h * np.sum(orc**2))
            assert rel <= 1e-2

    def test_boundary_support_rejected(self, box):
        vals = np.zeros(box.size)
        vals[:8] = 1.0
        with pytest.raises(ValueError, match="boundary"):
            ref.fraclap_quadrature_oracle(
                fr.GridFunction(vals, box), fr.FractionalOrder(S), np.array([50])
            )


class TestSobolevNorms:
    def test_inner_zero(self, mach, box):
        z = fr.GridFunction(np.zeros(box.size), box)
        u = fr.smooth_bump(box, 0.0, 0.5)
        assert fr.hs_inner(mach, z, u) == 0.0

    def test_small_order_limit_is_l2(self, box):
        m0 = fr.build_sobolev(box, fr.FractionalOrder(1e-7))
        u = fr.smooth_bump(box, 0.0, 0.5)
        l2sq = box.spacing * np.sum(u.values**2)
        assert fr.hs_inner(m0, u, u) == pytest.approx(l2sq, rel=1e-4)

    def test_plane_wave_symbol(self, mach, box):
        xi = np.pi * 5 / RADIUS
        w = fr.GridFunction(np.cos(xi * box.nodes), box)
        l2sq = box.spacing * np.sum(w.values**2)
        assert fr.hs_inner(mach, w, w) == pytest.approx((1 + xi**2) ** S * l2sq, rel=1e-12)

    def test_dual_norm_zero(self, mach, box, sets_classic):
        z = fr.GridFunction(np.zeros(box.size), box)
        assert fr.hminus_s_norm(mach, z, sets_classic.w2) == 0.0

    def test_dual_norm_empty_region(self, mach, box):
        z = fr.GridFunction(np.zeros(box.size), box)
        with pytest.raises(ValueError, match="empty"):
            fr.hminus_s_norm(mach, z, np.array([], dtype=int))

    def test_dual_norm_plane_wave_full_grid(self, mach, box):
        xi = np.pi * 5 / RADIUS
        w = fr.GridFunction(np.cos(xi * box.nodes), box)
        l2 = np.sqrt(box.spacing * np.sum(w.values**2))
        full = np.arange(box.size)
        assert fr.hminus_s_norm(mach, w, full) == pytest.approx(
            l2 / (1 + xi**2) ** (S / 2), rel=1e-10
        )

    def test_cauchy_schwarz_sweep(self, mach, box, sets_classic, rng):
        w2 = sets_classic.w2
        h = box.spacing
        for _ in range(100):
            hv = np.zeros(box.size)
            pv = np.zeros(box.size)
            hv[w2] = rng.standard_normal(len(w2))
            pv[w2] = rng.standard_normal(len(w2))
            hf = fr.GridFunction(hv, box)
            pf = fr.GridFunction(pv, box)
            pairing = abs(h * np.sum(hv[w2] * pv[w2]))
            bound = fr.hminus_s_norm(mach, hf, w2) * fr.hs_norm(mach, pf)
            assert pairing <= bound * (1 + 1e-10)

    def test_dual_norm_maximizer_attains_sup(self, mach, box, sets_classic, rng):
        # phi* = G_r^{-1} M_r h achieves the dual-norm supremum
        w2 = sets_classic.w2
        hv = np.zeros(box.size)
        hv[w2] = rng.standard_normal(len(w2))
        hf = fr.GridFunction(hv, box)
        g_block = mach.gram_hs[np.ix_(w2, w2)]
        phi_r = np.linalg.solve(g_block, box.spacing * hv[w2])
        pv = np.zeros(box.size)
        pv[w2] = phi_r
        pf = fr.GridFunction(pv, box)
        pairing = box.spacing * np.sum(hv[w2] * pv[w2])
        ratio = pairing / fr.hs_norm(mach, pf)
        assert ratio == pytest.approx(fr.hminus_s_norm(mach, hf, w2), rel=1e-10)


# the dual weight Q against a Cholesky solve: the worst relative error seen
# over these inputs is 2.8e-16 (N=512) and 9.1e-16 (N=4096)
DUAL_ORACLE_RTOL = 1e-14


def cho_solve_dual_norm(m, vals, region):
    """sqrt(h^T M G^-1 M h) by a Cholesky solve with the gram_hs block."""
    mh = m.box.spacing * vals
    fac = sla.cho_factor(m.gram_hs[np.ix_(region, region)])
    return float(np.sqrt(mh @ sla.cho_solve(fac, mh)))


class TestDualWeightOracle:
    @pytest.mark.parametrize("points", [512, 4096])
    def test_dual_norms_match_cholesky_solve(self, points, rng):
        box = fr.build_box(RADIUS, points)
        m = fr.build_sobolev(box, fr.FractionalOrder(S))
        sets = fr.build_index_sets(box, OMEGA, W1_PIPELINE, W2_PIPELINE)
        op = fr.assemble_ucp(m, sets)
        w2 = sets.w2
        # pipeline data (bump potential and datum), exact and at noise 1e-4
        q = fr.Potential(2.0 * fr.smooth_bump(box, 0.0, 0.5).values[sets.omega])
        f = np.zeros(box.size)
        f[sets.w1] = fr.smooth_bump(box, 4.5, 0.45).values[sets.w1]
        f = fr.GridFunction(f, box)
        data = [
            fr.measurement_to_h(m, sets, fr.synthetic_measurement(
                m, sets, q, f, noise_level=level, seed=1))
            for level in (0.0, 1e-4)
        ]
        data += [rng.standard_normal(len(w2)) * 10.0 ** rng.uniform(-3, 3) for _ in range(20)]
        for vals in data:
            ref = cho_solve_dual_norm(m, vals, w2)
            full = np.zeros(box.size)
            full[w2] = vals
            dual = fr.hminus_s_norm(m, fr.GridFunction(full, box), w2)
            assert abs(dual - ref) <= DUAL_ORACLE_RTOL * ref
            assert abs(op.dual_norm(vals) - ref) <= DUAL_ORACLE_RTOL * ref


class TestTrilInverse:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 448])
    def test_identity_residual(self, mach, n):
        idx = np.arange(n)
        chol = np.linalg.cholesky(mach.gram_hs[np.ix_(idx, idx)])
        inv = tril_inverse(chol)
        assert not np.any(np.triu(inv, 1))
        eye = np.eye(n)
        assert np.linalg.norm(chol @ inv - eye, 2) <= 1e-14
        assert np.linalg.norm(inv @ chol - eye, 2) <= 1e-14
