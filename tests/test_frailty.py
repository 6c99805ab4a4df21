import numpy as np
import pytest

import hazrates as hz
from hazrates.frailty import (
    ColliderScenario,
    ConditionalHazardSpec,
    DegenerateFrailty,
    GammaFrailty,
    TreatmentPath,
    collider_table,
    invert_rate_to_h,
    marginal_hazard,
    markov_violation_gap,
)
from hazrates.grid import GridFunction


class TestFrailtySpecs:
    def test_gamma_closed_forms(self):
        fr = GammaFrailty(variance=0.5)
        s = np.array([0.0, 0.3, 1.7])
        np.testing.assert_allclose(fr.laplace(s), (1 + 0.5 * s) ** -2.0)
        np.testing.assert_allclose(fr.conditional_mean(s), 1 / (1 + 0.5 * s))
        p = np.array([1.0, 0.8, 0.05])
        np.testing.assert_allclose(fr.laplace(fr.laplace_inverse(p)), p, atol=1e-12)

    @pytest.mark.parametrize(
        "fr",
        [GammaFrailty(variance=2.0), DegenerateFrailty(value=1.3)],
        ids=["gamma", "degenerate"],
    )
    def test_conditional_mean_matches_generic_formula(self, fr):
        # -phi'/phi with phi' a central difference of the Laplace transform
        s, h = np.array([0.1, 1.0, 4.0]), 1e-6
        slope = (fr.laplace(s + h) - fr.laplace(s - h)) / (2 * h)
        np.testing.assert_allclose(fr.conditional_mean(s), -slope / fr.laplace(s), rtol=1e-7)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            GammaFrailty(variance=0.0)
        with pytest.raises(ValueError):
            GammaFrailty(variance=np.inf)

    def test_degenerate_mean_is_flat(self):
        fr = DegenerateFrailty(value=1.3)
        assert fr.conditional_mean(0.0) == 1.3
        np.testing.assert_array_equal(fr.conditional_mean(np.array([0.0, 5.0])), 1.3)
        assert fr.laplace_inverse(np.exp(-1.3)) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            DegenerateFrailty(value=0.0)

    def test_laplace_inverse_domain(self):
        fr = GammaFrailty(variance=1.0)
        with pytest.raises(ValueError):
            fr.laplace_inverse(0.0)
        with pytest.raises(ValueError):
            fr.laplace_inverse(1.5)

    def test_sampling_moments(self):
        rng = np.random.default_rng(7)
        for v in (0.5, 2.0):
            draws = GammaFrailty(variance=v).sample(rng, 200_000)
            assert draws.mean() == pytest.approx(1.0, abs=0.02)
            assert draws.var() == pytest.approx(v, rel=0.05)
        np.testing.assert_array_equal(
            DegenerateFrailty(2.0).sample(rng, 5), np.full(5, 2.0)
        )


class TestTreatmentPath:
    def test_levels(self):
        t = np.array([0.0, 0.5, 1.0, 2.0])
        np.testing.assert_array_equal(TreatmentPath.never().level(t), 0)
        np.testing.assert_array_equal(TreatmentPath.always().level(t), 1)
        np.testing.assert_array_equal(
            TreatmentPath.initiate_at(1.0).level(t), [0, 0, 1, 1]
        )
        assert TreatmentPath.initiate_at(1.0).level(0.5) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TreatmentPath(u_init=-1.0)


@pytest.fixture
def demo_spec():
    # h(t, a) = 0.3 + 0.2 a, flat in time
    return ConditionalHazardSpec(
        h0=GridFunction.constant(3.0, 0.005, 0.3), h1=GridFunction.constant(3.0, 0.005, 0.5)
    )


class TestConditionalHazardSpec:
    def test_grid_and_sign_validation(self):
        h = GridFunction.constant(1.0, 0.5, 0.3)
        with pytest.raises(ValueError):
            ConditionalHazardSpec(h, GridFunction.constant(1.0, 0.25, 0.5))
        with pytest.raises(ValueError):
            ConditionalHazardSpec(h, GridFunction.constant(1.0, 0.5, -0.5))

    def test_load_decomposes_exactly(self, demo_spec):
        path = TreatmentPath.initiate_at(0.7)
        t = np.array([0.0, 0.5, 0.7, 1.0, 3.0])
        want = 0.3 * np.minimum(t, 0.7) + 0.5 * np.maximum(t - 0.7, 0.0)
        np.testing.assert_allclose(demo_spec.load_along(path, t), want, atol=1e-12)

    def test_load_along_is_the_path_load(self, demo_spec):
        cum0, kernel = hz.cumulative(demo_spec.h0), hz.MarkovKernel(demo_spec.h1)
        t = np.linspace(0.0, 3.0, 37)
        for path in (TreatmentPath.never(), TreatmentPath.always(),
                     TreatmentPath.initiate_at(1.2345), TreatmentPath.initiate_at(10.0)):
            assert np.array_equal(path.load(cum0, kernel, t), demo_spec.load_along(path, t))
            assert path.load(cum0, kernel, 2.5) == demo_spec.load_along(path, 2.5)

    def test_initiation_beyond_horizon_is_never(self, demo_spec):
        t = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            demo_spec.load_along(TreatmentPath.initiate_at(10.0), t),
            demo_spec.load_along(TreatmentPath.never(), t),
        )

    def test_hazard_along_switches_at_initiation(self, demo_spec):
        path = TreatmentPath.initiate_at(1.0)
        t = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(demo_spec.hazard_along(path, t), [0.3, 0.5, 0.5])


class TestMarginalHazard:
    def test_gamma_closed_form_never_path(self, demo_spec):
        # constant conditional hazard c under gamma(v): c / (1 + v c t)
        fr = GammaFrailty(variance=1.0)
        lam = marginal_hazard(demo_spec, fr, TreatmentPath.never())
        t = lam.times
        np.testing.assert_allclose(lam.values, 0.3 / (1 + 0.3 * t), atol=1e-12)

    def test_degenerate_recovers_conditional(self, demo_spec):
        lam = marginal_hazard(demo_spec, DegenerateFrailty(1.0), TreatmentPath.always())
        np.testing.assert_allclose(lam.values, 0.5, atol=1e-15)


class TestMarkovViolationGap:
    def test_degenerate_gap_is_zero(self, demo_spec):
        fr = DegenerateFrailty(1.0)
        for t, u1, u2 in [(2.0, 0.0, 1.5), (1.0, 0.0, 1.0), (3.0, 0.5, 2.5)]:
            assert markov_violation_gap(demo_spec, fr, t, u1, u2) <= 1e-12

    def test_gamma_gap_closed_form(self, demo_spec):
        # loads H(2) are 1.0 (treated from 0) and 0.70 (treated from 1.5);
        # gap = 0.5 * |1/(1+1.0) - 1/(1+0.7)| = 3/68
        fr = GammaFrailty(variance=1.0)
        gap = markov_violation_gap(demo_spec, fr, t=2.0, u1=0.0, u2=1.5)
        assert gap == pytest.approx(3.0 / 68.0, abs=1e-12)

    def test_gap_zero_when_levels_agree(self):
        h = GridFunction.constant(3.0, 0.01, 0.4)
        same = ConditionalHazardSpec(h0=h, h1=h)
        fr = GammaFrailty(variance=1.0)
        assert markov_violation_gap(same, fr, 2.0, 0.0, 1.5) <= 1e-15

    @pytest.mark.parametrize(
        "frailty, h0, h1, markov",
        [
            (GammaFrailty(variance=0.5), 0.4, 0.4, True),
            (GammaFrailty(variance=1.0), 0.4, 0.4, True),
            (GammaFrailty(variance=2.0), 0.4, 0.4, True),
            (DegenerateFrailty(1.0), 0.3, 0.5, True),
            (GammaFrailty(variance=1.0), 0.3, 0.5, False),
        ],
        ids=["no-effect-v0.5", "no-effect-v1", "no-effect-v2", "degenerate", "gamma-with-effect"],
    )
    def test_gap_vanishes_only_without_effect_or_without_frailty(self, frailty, h0, h1, markov):
        # the Markov property holds when the frailty is degenerate or the
        # treatment has no effect; otherwise the two loads' hazards differ
        spec = ConditionalHazardSpec(
            h0=GridFunction.constant(3.0, 0.005, h0), h1=GridFunction.constant(3.0, 0.005, h1)
        )
        for t in np.linspace(0.25, 3.0, 12):
            for f1 in (0.0, 0.3, 0.7, 1.0):
                for f2 in (0.0, 0.5, 1.0):
                    gap = markov_violation_gap(spec, frailty, t, f1 * t, f2 * t)
                    if markov or f1 == f2:
                        assert gap == 0.0
                    else:
                        assert 0.004 < gap < 0.064

    def test_argument_validation(self, demo_spec):
        fr = GammaFrailty(variance=1.0)
        with pytest.raises(ValueError):
            markov_violation_gap(demo_spec, fr, 1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            markov_violation_gap(demo_spec, fr, 5.0, 0.0, 1.0)


class TestInvertRateToH:
    @pytest.mark.parametrize(
        "frailty",
        [GammaFrailty(0.5), GammaFrailty(1.0), GammaFrailty(2.0), DegenerateFrailty(1.0)],
        ids=["gamma_half", "gamma_one", "gamma_two", "degenerate"],
    )
    def test_round_trip_constant_rate(self, frailty):
        r = GridFunction.constant(3.0, 0.005, 0.5)
        path = TreatmentPath.never()
        h = invert_rate_to_h(r, frailty, path)
        spec = ConditionalHazardSpec(h0=h, h1=h)
        back = marginal_hazard(spec, frailty, path)
        assert float(np.max(np.abs(back.values - r.values))) < 1e-4

    def test_degenerate_inversion_is_identity(self):
        times = GridFunction.constant(2.0, 0.01, 0.0).times
        r = GridFunction(2.0, 0.01, 0.2 + 0.1 * times)
        h = invert_rate_to_h(r, DegenerateFrailty(1.0), TreatmentPath.never())
        np.testing.assert_allclose(h.values, r.values, atol=1e-12)

    def test_validation(self):
        fr = GammaFrailty(variance=1.0)
        bad = GridFunction.constant(1.0, 0.5, -0.3)
        with pytest.raises(ValueError):
            invert_rate_to_h(bad, fr, TreatmentPath.never())


class TestCollider:
    @pytest.fixture
    def scenario(self):
        return ColliderScenario(
            z_levels=(0.5, 1.5), z_probs=(0.5, 0.5), p1=0.2, effect=0.5
        )

    def test_exact_table(self, scenario):
        # by-hand enumeration over the two frailty levels
        table = collider_table(scenario)
        assert table[(0, 0)] == pytest.approx(3.0 / 16.0, abs=1e-15)
        assert table[(0, 1)] == pytest.approx(3.0 / 32.0, abs=1e-15)
        assert table[(1, 0)] == pytest.approx(7.0 / 36.0, abs=1e-15)
        assert table[(1, 1)] == pytest.approx(7.0 / 72.0, abs=1e-15)

    def test_protective_effect_tilts_survivors_upward(self, scenario):
        # gentler period-1 culling among the treated leaves frailer
        # survivors, so past treatment raises period-2 death probability
        # even though it has no direct effect there
        table = collider_table(scenario)
        assert table[(1, 0)] > table[(0, 0)]
        assert table[(1, 1)] > table[(0, 1)]

    def test_null_effect_removes_history_dependence(self):
        table = collider_table(
            ColliderScenario(z_levels=(0.5, 1.5), z_probs=(0.5, 0.5), p1=0.2, effect=1.0)
        )
        assert table[(1, 0)] == table[(0, 0)]
        assert table[(1, 1)] == table[(0, 1)]

    def test_degenerate_frailty_removes_history_dependence(self):
        table = collider_table(
            ColliderScenario(z_levels=(1.0,), z_probs=(1.0,), p1=0.2, effect=0.5)
        )
        assert table[(1, 0)] == pytest.approx(table[(0, 0)], abs=1e-15)
        assert table[(1, 1)] == pytest.approx(table[(0, 1)], abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            ColliderScenario(z_levels=(0.5, 6.0), z_probs=(0.5, 0.5), p1=0.2, effect=1.0)
        with pytest.raises(ValueError):
            ColliderScenario(z_levels=(0.5, 1.5), z_probs=(0.7, 0.5), p1=0.2, effect=0.5)
        with pytest.raises(ValueError):
            ColliderScenario(z_levels=(0.5, 1.5), z_probs=(0.5, 0.5), p1=0.0, effect=0.5)
        with pytest.raises(ValueError):
            ColliderScenario(z_levels=(0.5, 1.5), z_probs=(0.5, 0.5), p1=0.2, effect=-1.0)

    def test_levels_and_probs_must_pair_up(self):
        message = "^z_levels and z_probs must be nonempty and equal length$"
        with pytest.raises(ValueError, match=message):
            ColliderScenario((0.5, 1.5), (1.0,), 0.2, 0.5)

    def test_certain_first_period_death_leaves_no_survivors(self):
        # z * p1 = 1 kills everyone in period 1 under a1=0, so no
        # conditional on surviving it exists
        with pytest.raises(ValueError, match="^no survivors of period 1 under a1=0$"):
            collider_table(ColliderScenario((1.0,), (1.0,), 1.0, 1.0))

    @pytest.mark.parametrize(
        "z_levels, z_probs",
        [
            ((np.nan, 1.5), (0.5, 0.5)),
            ((np.inf, 1.5), (0.5, 0.5)),
            ((0.5, 1.5), (np.nan, 0.5)),
            ((0.5, 1.5), (np.nan, np.nan)),
        ],
    )
    def test_rejects_non_finite_levels_and_probs(self, z_levels, z_probs):
        with pytest.raises(ValueError, match="finite|probability vector"):
            ColliderScenario(z_levels=z_levels, z_probs=z_probs, p1=0.2, effect=1.0)
