"""Forward problem: solvability check, interior solve, measurement map, energy form."""

import numpy as np
import pytest
import scipy.linalg as sla

import fracrec as fr
from fracrec.forward import UNIQUENESS_RTOL

from conftest import S, random_omega_bump
import reference as ref


def w1_bump(box, sets, center=2.5, width=0.45):
    vals = np.zeros(box.size)
    gf = fr.smooth_bump(box, center, width)
    vals[sets.w1] = gf.values[sets.w1]
    return fr.GridFunction(vals, box)


@pytest.fixture(scope="module")
def zero_q(sets_classic):
    return fr.Potential(np.zeros(len(sets_classic.omega)))


class TestUniquenessCheck:
    def test_zero_potential_ok(self, mach, sets_classic, zero_q):
        out = ref.check_dirichlet_uniqueness(mach, sets_classic, zero_q)
        assert out["ok"]
        assert out["margin"] > 0

    def test_eigenvalue_shift_fails(self, mach, sets_classic):
        a_oo = mach.frac_lap[np.ix_(sets_classic.omega, sets_classic.omega)]
        lam1 = sla.eigvalsh(a_oo)[0]
        q = fr.Potential(np.full(len(sets_classic.omega), -lam1))
        out = ref.check_dirichlet_uniqueness(mach, sets_classic, q)
        assert not out["ok"]

    def test_positive_shift_margin(self, mach, sets_classic):
        q = fr.Potential(np.full(len(sets_classic.omega), 5.0))
        out = ref.check_dirichlet_uniqueness(mach, sets_classic, q)
        assert out["ok"]
        assert out["margin"] >= 5.0


class TestSolveDirichlet:
    def test_zero_datum_gives_zero(self, mach, sets_classic, zero_q, box):
        f = fr.GridFunction(np.zeros(box.size), box)
        u = fr.solve_dirichlet(mach, sets_classic, zero_q, f)
        assert np.all(u.values == 0.0)

    def test_interior_residual(self, mach, sets_classic, zero_q, box):
        f = w1_bump(box, sets_classic)
        u = fr.solve_dirichlet(mach, sets_classic, zero_q, f)
        assert fr.solve_diagnostics(mach, sets_classic, zero_q, f, u)["interior_residual"] <= 1e-8

    def test_exterior_identity_bit_exact(self, mach, sets_classic, zero_q, box):
        f = w1_bump(box, sets_classic)
        u = fr.solve_dirichlet(mach, sets_classic, zero_q, f)
        ext = ref.exterior(box, sets_classic)
        assert np.array_equal(u.values[ext], f.values[ext])

    def test_linearity(self, mach, sets_classic, box, rng):
        q = fr.Potential(rng.uniform(0, 1, len(sets_classic.omega)))
        f1 = w1_bump(box, sets_classic, 2.4, 0.35)
        f2 = w1_bump(box, sets_classic, 2.6, 0.3)
        a, b = 1.7, -0.6
        lhs = fr.solve_dirichlet(
            mach, sets_classic, q,
            fr.GridFunction(a * f1.values + b * f2.values, box),
        ).values
        rhs = (
            a * fr.solve_dirichlet(mach, sets_classic, q, f1).values
            + b * fr.solve_dirichlet(mach, sets_classic, q, f2).values
        )
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_interior_supported_datum_rejected(self, mach, sets_classic, zero_q, box):
        bad = fr.smooth_bump(box, 0.0, 0.5)
        with pytest.raises(ValueError, match="omega"):
            fr.solve_dirichlet(mach, sets_classic, zero_q, bad)

    # the omega check reads a NaN as a value and -0.0 as zero
    def test_datum_omega_values_nan_refused_negative_zero_accepted(
        self, mach, sets_classic, zero_q, box
    ):
        f = w1_bump(box, sets_classic)
        nan_f, neg_f = f.copy(), f.copy()
        nan_f.values[sets_classic.omega[3]] = np.nan
        neg_f.values[sets_classic.omega] = -0.0
        with pytest.raises(ValueError, match="omega"):
            fr.solve_dirichlet(mach, sets_classic, zero_q, nan_f)
        u = fr.solve_dirichlet(mach, sets_classic, zero_q, neg_f)
        assert np.array_equal(u.values, fr.solve_dirichlet(mach, sets_classic, zero_q, f).values)

    @pytest.mark.parametrize("values, want", [
        ([0.0, np.inf], "non-finite"), ([0.0] * 3, "potential has 3 values"),
    ], ids=["non-finite", "wrong-length"])
    def test_malformed_potential_rejected(self, mach, sets_classic, box, values, want):
        with pytest.raises(ValueError, match=want):
            fr.solve_dirichlet(mach, sets_classic, fr.Potential(values), w1_bump(box, sets_classic))

    def test_singular_potential_raises(self, mach, sets_classic, box):
        a_oo = mach.frac_lap[np.ix_(sets_classic.omega, sets_classic.omega)]
        lam1 = sla.eigvalsh(a_oo)[0]
        q = fr.Potential(np.full(len(sets_classic.omega), -lam1))
        with pytest.raises(fr.EigenvalueConditionError):
            fr.solve_dirichlet(mach, sets_classic, q, w1_bump(box, sets_classic))

    def test_stability_surrogate_grid_independent(self):
        ratios = []
        for n in (128, 256, 512):
            box = fr.build_box(16.0, n)
            m = fr.build_sobolev(box, fr.FractionalOrder(S))
            sets = fr.build_index_sets(box, [(-1, 1)], [(2, 3)], [(-3, -2)])
            f = w1_bump(box, sets)
            q = fr.Potential(np.zeros(len(sets.omega)))
            u = fr.solve_dirichlet(m, sets, q, f)
            ratios.append(fr.solve_diagnostics(m, sets, q, f, u)["solver_conditioning"])
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() <= 1.1


class TestCholeskyCertificate:
    """solve_dirichlet certifies the block by Cholesky of a shifted copy and
    leaves the decision to the block's eigenvalues when that fails."""

    @staticmethod
    def constant_q_block(mach, sets, pick):
        a_oo = mach.frac_lap[np.ix_(sets.omega, sets.omega)]
        q = fr.Potential(np.full(len(sets.omega), pick(sla.eigvalsh(a_oo))))
        return q, a_oo + np.diag(q.values)

    def test_positive_definite_block_below_margin_raises(self, mach, sets_classic, box):
        # 0 < lambda_min(B) = rtol/2 * lambda_max(A_oo) < rtol * lambda_max(B):
        # the unshifted block factors, so only the shift can refuse it
        q, block = self.constant_q_block(
            mach, sets_classic, lambda lam: -lam[0] + 0.5 * UNIQUENESS_RTOL * lam[-1])
        lam = sla.eigvalsh(block)
        assert 0 < lam[0] < UNIQUENESS_RTOL * lam[-1]
        with pytest.raises(fr.EigenvalueConditionError):
            fr.solve_dirichlet(mach, sets_classic, q, w1_bump(box, sets_classic))

    def test_indefinite_block_solves_through_the_exact_check(
        self, mach, sets_classic, box, eigvalsh_calls
    ):
        q, block = self.constant_q_block(mach, sets_classic, lambda lam: -0.5 * (lam[0] + lam[1]))
        f = w1_bump(box, sets_classic)
        u = fr.solve_dirichlet(mach, sets_classic, q, f)
        assert len(eigvalsh_calls) == 1
        rhs = -mach.frac_lap.rows(sets_classic.omega, f.values)
        assert np.array_equal(u.values[sets_classic.omega], np.linalg.solve(block, rhs))


class TestMeasurementMap:
    def test_zero_datum(self, mach, sets_classic, zero_q, box):
        f = fr.GridFunction(np.zeros(box.size), box)
        out = ref.dtn_apply(mach, sets_classic, zero_q, f, sets_classic.w2)
        assert np.all(out == 0.0)

    def test_linearity(self, mach, sets_classic, zero_q, box):
        f1 = w1_bump(box, sets_classic, 2.4, 0.35)
        f2 = w1_bump(box, sets_classic, 2.6, 0.3)
        lhs = ref.dtn_apply(
            mach, sets_classic, zero_q,
            fr.GridFunction(2.0 * f1.values - 0.5 * f2.values, box), sets_classic.w2,
        )
        rhs = 2.0 * ref.dtn_apply(mach, sets_classic, zero_q, f1, sets_classic.w2) \
            - 0.5 * ref.dtn_apply(mach, sets_classic, zero_q, f2, sets_classic.w2)
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()

    def test_measurement_matches_interior_window_map(self, mach, sets_classic, box, rng):
        # g - (A f)|_W equals the window operator applied to u - f
        q = fr.Potential(0.5 * random_omega_bump(box, rng).values[sets_classic.omega])
        f = w1_bump(box, sets_classic)
        u = fr.solve_dirichlet(mach, sets_classic, q, f)
        g = ref.dtn_apply(mach, sets_classic, q, f, sets_classic.w2)
        h = g - ref.full_product(mach.frac_lap, f.values)[sets_classic.w2]
        v = u.values - f.values
        lv = ref.full_product(mach.frac_lap, v)[sets_classic.w2]
        assert np.abs(h - lv).max() <= 1e-10 * max(np.abs(lv).max(), 1e-300)

    def test_window_outside_exterior_rejected(self, mach, sets_classic, zero_q, box):
        with pytest.raises(ValueError, match="exterior"):
            ref.dtn_apply(mach, sets_classic, zero_q,
                         w1_bump(box, sets_classic), sets_classic.omega[:4])

    def test_formal_self_adjointness(self, mach, sets_classic, box):
        # pairing over the exterior is symmetric for disjoint window data
        q = fr.Potential(np.full(len(sets_classic.omega), 0.7))
        f1 = w1_bump(box, sets_classic)
        f2 = np.zeros(box.size)
        f2[sets_classic.w2] = fr.smooth_bump(box, -2.5, 0.4).values[sets_classic.w2]
        f2 = fr.GridFunction(f2, box)
        ext = ref.exterior(box, sets_classic)
        h = box.spacing
        lf1 = ref.dtn_apply(mach, sets_classic, q, f1, ext)
        lf2 = ref.dtn_apply(mach, sets_classic, q, f2, ext)
        p12 = h * np.sum(lf1 * f2.values[ext])
        p21 = h * np.sum(f1.values[ext] * lf2)
        assert abs(p12 - p21) <= 1e-8 * max(abs(p12), abs(p21))


class TestEnergyForm:
    def test_symmetry(self, mach, sets_classic, box, rng):
        q = fr.Potential(rng.uniform(-1, 1, len(sets_classic.omega)))
        u = fr.GridFunction(rng.standard_normal(box.size), box)
        w = fr.GridFunction(rng.standard_normal(box.size), box)
        buw = ref.bq_eval(mach, sets_classic, q, u, w)
        bwu = ref.bq_eval(mach, sets_classic, q, w, u)
        assert abs(buw - bwu) <= 1e-12 * max(abs(buw), 1.0)

    def test_weak_form_annihilation(self, mach, sets_classic, box, rng):
        # solutions annihilate the form against interior-supported tests
        q = fr.Potential(rng.uniform(0, 2, len(sets_classic.omega)))
        f = w1_bump(box, sets_classic)
        u = fr.solve_dirichlet(mach, sets_classic, q, f)
        scale = fr.hs_norm(mach, u) ** 2
        for _ in range(5):
            w = np.zeros(box.size)
            w[sets_classic.omega] = rng.standard_normal(len(sets_classic.omega))
            val = ref.bq_eval(mach, sets_classic, q, u, fr.GridFunction(w, box))
            assert abs(val) <= 1e-8 * scale

    def test_plane_wave_energy(self, mach, sets_classic, box):
        xi = np.pi * 6 / box.radius
        w = fr.GridFunction(np.cos(xi * box.nodes), box)
        q = fr.Potential(np.zeros(len(sets_classic.omega)))
        l2sq = box.spacing * np.sum(w.values**2)
        val = ref.bq_eval(mach, sets_classic, q, w, w)
        assert val == pytest.approx(xi ** (2 * S) * l2sq, rel=1e-12)
