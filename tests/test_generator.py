import math

import numpy as np
import pytest
from conftest import random_weights
from hypothesis import given
from hypothesis import strategies as st

from pauli_simplex.channels import MixtureWeights
from pauli_simplex.generator import physical_scale, three_mix_rates
from pauli_simplex.oracles import finite_difference_rates, two_mix_cross_rate


def f(w, p):
    """The rate term (1-w) / (1 - 2(1-w)p) of one weight, as a scalar formula."""
    return (1.0 - w) / (1.0 - 2.0 * (1.0 - w) * p)


def pair_sum_term(alpha, p):
    """f(alpha) read off three_mix_rates: half the pairwise sum gy + gz = 2 f(a)."""
    w = MixtureWeights(alpha, (1.0 - alpha) / 2, (1.0 - alpha) / 2)
    gx, gy, gz = three_mix_rates(w, p).as_tuple()
    return (gy + gz) / 2


class TestRateTerm:
    def test_vanishes_for_pure_fraction(self):
        for p in [0.0, 0.2, 0.49]:
            assert pair_sum_term(1.0, p) == 0.0

    def test_zero_fraction(self):
        assert pair_sum_term(0.0, 0.3) == pytest.approx(1.0 / 0.4, abs=1e-15)

    def test_midpoint_value(self):
        assert pair_sum_term(0.5, 0.25) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_nonnegative_and_increasing(self):
        ps = np.linspace(0.0, 0.499, 200)
        for alpha in [0.0, 0.1, 0.5, 0.9]:
            vals = [pair_sum_term(alpha, p) for p in ps]
            assert vals[0] == pytest.approx(1 - alpha)
            assert min(vals) >= 0.0
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_p_at_half(self):
        with pytest.raises(ValueError):
            pair_sum_term(0.3, 0.5)


class TestThreeMixRates:
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda e: sum(e) > 0),
        st.floats(0.0, 0.5, exclude_max=True),
        st.floats(1e-3, 1e3),
    )
    def test_rates_are_the_scalar_formula_bit_for_bit(self, e, p, r):
        w = MixtureWeights(*(x / math.fsum(e) for x in e))
        fa, fb, fc = f(w.a, p), f(w.b, p), f(w.c, p)
        reduced = (-fa + fb + fc, fa - fb + fc, fa + fb - fc)
        assert three_mix_rates(w, p).as_tuple() == reduced
        scale = 0.5 * (0.5 * r * (1.0 - 2.0 * p))
        # pdot/2 both ways: the two differ by exact powers of two only
        assert physical_scale(r, p) == scale == 0.25 * r * (1.0 - 2.0 * p)
        physical = three_mix_rates(w, p, "physical", r).as_tuple()
        assert physical == tuple(scale * g for g in reduced)

    def test_symmetric_blend(self):
        w = MixtureWeights(1 / 3, 1 / 3, 1 / 3)
        for p in [0.0, 0.2, 0.45]:
            rates = three_mix_rates(w, p)
            expected = f(1 / 3, p)
            np.testing.assert_allclose(rates.as_tuple(), [expected] * 3, rtol=1e-14)
            assert expected > 0

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.3])
    def test_eternal_non_markovian_rates(self, t):
        # the equal x/y blend of semigroups with r = 2 has the eternally
        # non-Markovian rates (1, 1, -tanh t) of Hall, Cresser, Li and
        # Andersson, which are twice the physical rates here
        p = -math.expm1(-2.0 * t) / 2  # the semigroup's p at time t for r = 2
        rates = three_mix_rates(MixtureWeights(0.5, 0.5, 0.0), p, "physical", 2.0)
        expected = (0.5, 0.5, -0.5 * math.tanh(t))
        assert rates.as_tuple() == pytest.approx(expected, rel=0, abs=1e-16)

    def test_initial_rates_are_twice_weights(self):
        for w in random_weights(25, seed=5):
            rates = three_mix_rates(MixtureWeights(*w), 0.0)
            np.testing.assert_allclose(rates.as_tuple(), 2 * w, atol=1e-12)

    def test_two_small_weights_stay_positive(self):
        # large middle weight: the small-weight terms cancel pairwise, so
        # every rate stays positive all the way to the p limit
        rates = three_mix_rates(MixtureWeights(0.1, 0.8, 0.1), 0.45)
        fa = f(0.1, 0.45)
        fb = f(0.8, 0.45)
        assert rates.gx == pytest.approx(fb, rel=1e-14)
        assert rates.gz == pytest.approx(fb, rel=1e-14)
        assert rates.gy == pytest.approx(2 * fa - fb, rel=1e-14)
        assert rates.gy == pytest.approx(9.229781771501925, rel=1e-12)
        assert min(rates.as_tuple()) > 0

    def test_small_cross_weight_goes_negative(self):
        rates = three_mix_rates(MixtureWeights(0.45, 0.1, 0.45), 0.45)
        assert rates.gy < 0
        assert rates.gx > 0 and rates.gz > 0

    def test_physical_requires_r(self):
        with pytest.raises(ValueError, match="decay constant"):
            three_mix_rates(MixtureWeights(0.2, 0.3, 0.5), 0.1, "physical")

    def test_physical_is_scaled_reduced(self):
        w = MixtureWeights(0.2, 0.3, 0.5)
        p, r = 0.3, 2.0
        reduced = np.array(three_mix_rates(w, p).as_tuple())
        physical = np.array(three_mix_rates(w, p, "physical", r).as_tuple())
        np.testing.assert_allclose(physical, reduced * r * (1 - 2 * p) / 4, rtol=1e-14)

    def test_sign_patterns_match_across_conventions(self):
        for w in random_weights(50, seed=9):
            for p in [0.05, 0.3, 0.49]:
                red = three_mix_rates(MixtureWeights(*w), p)
                phys = three_mix_rates(MixtureWeights(*w), p, "physical", 1.7)
                assert np.array_equal(
                    np.sign(red.as_tuple()), np.sign(phys.as_tuple())
                )

    def test_pairwise_sums_collapse_to_single_terms(self):
        # gx+gy = 2 f(c), gy+gz = 2 f(a), gz+gx = 2 f(b) on a simplex grid
        n = 20
        ps = np.linspace(0.0, 0.49, 10)
        for i in range(n + 1):
            for j in range(n - i + 1):
                w = MixtureWeights(i / n, j / n, (n - i - j) / n)
                for p in ps:
                    gx, gy, gz = three_mix_rates(w, p).as_tuple()
                    sxy, syz, szx = gx + gy, gy + gz, gz + gx
                    assert abs(sxy - 2 * f(w.c, p)) < 1e-12
                    assert abs(syz - 2 * f(w.a, p)) < 1e-12
                    assert abs(szx - 2 * f(w.b, p)) < 1e-12

    def test_at_most_one_negative(self):
        for w in random_weights(200, seed=2):
            for p in [0.1, 0.3, 0.45, 0.499]:
                rates = three_mix_rates(MixtureWeights(*w), p).as_tuple()
                assert sum(g < -1e-12 for g in rates) <= 1

    def test_rejects_unknown_convention(self):
        with pytest.raises(ValueError, match="convention"):
            three_mix_rates(MixtureWeights(0.2, 0.3, 0.5), 0.1, "raw")


class TestTwoMixCrossRate:
    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_zero_for_pure_channels(self, a):
        assert two_mix_cross_rate(a, 0.3, 1.0) == 0.0

    def test_zero_at_p_zero(self):
        assert two_mix_cross_rate(0.4, 0.0, 1.0) == 0.0

    def test_balanced_blend_value(self):
        assert two_mix_cross_rate(0.5, 0.25, 1.0) == pytest.approx(-1 / 3, abs=1e-15)

    def test_always_negative_inside_square(self):
        for a in np.linspace(0.01, 0.99, 99):
            for p in np.linspace(0.01, 0.49, 49):
                assert two_mix_cross_rate(a, p, 1.0) < 0

    def test_equals_the_generator_route(self):
        # the closed form is the physical x rate of the blend's generator
        for a in [0.2, 0.5, 0.8]:
            for p in [0.1, 0.25, 0.4]:
                closed = two_mix_cross_rate(a, p, 1.0)
                via_generator = three_mix_rates(
                    MixtureWeights(0.0, 1.0 - a, a), p, "physical", r=2.0 / (1 - 2 * p)
                ).gx  # r chosen so pdot = 1
                assert via_generator == pytest.approx(closed, rel=1e-12)

    def test_rejects_nonpositive_pdot(self):
        with pytest.raises(ValueError):
            two_mix_cross_rate(0.5, 0.2, 0.0)


class TestFiniteDifferenceOracle:
    def test_pure_channel_semigroup_rate_is_constant(self):
        # a single channel has one constant physical rate r/2, others zero
        fd = finite_difference_rates(MixtureWeights(1.0, 0.0, 0.0), 0.1, r=1.0)
        assert abs(fd.gx - 0.5) < 1e-8
        assert abs(fd.gy) < 1e-8
        assert abs(fd.gz) < 1e-8

    def test_matches_closed_form(self):
        w = MixtureWeights(0.2, 0.3, 0.5)
        fd = np.array(finite_difference_rates(w, 0.3).as_tuple())
        an = np.array(three_mix_rates(w, 0.3, "physical", 1.0).as_tuple())
        assert np.abs(fd - an).max() / np.abs(an).max() < 1e-6

    def test_symmetric_blend_at_zero(self):
        fd = finite_difference_rates(MixtureWeights(1 / 3, 1 / 3, 1 / 3), 0.0)
        assert fd.gx == pytest.approx(fd.gy, rel=1e-6)
        assert fd.gy == pytest.approx(fd.gz, rel=1e-6)
        assert min(fd.as_tuple()) > 0

    def test_random_points_relative_error(self):
        rng = np.random.default_rng(31)
        for w in random_weights(100, seed=31):
            p = rng.uniform(0.0, 0.499)
            fd = np.array(finite_difference_rates(MixtureWeights(*w), p).as_tuple())
            an = np.array(
                three_mix_rates(MixtureWeights(*w), p, "physical", 1.0).as_tuple()
            )
            assert np.abs(fd - an).max() / np.abs(an).max() < 1e-5

    def test_rejects_step_over_boundary(self):
        # the central stencil reaches p+h; the forward one, used when p < h,
        # reaches p+2h, which the error names instead of an unasked p
        cases = [
            (0.4999999, 1e-6, "p+h=0.5000009"), (0.0, 0.3, "p+2h=0.6"), (0.1, 0.2, "p+2h=0.5"),
        ]
        for p, h, step in cases:
            with pytest.raises(ValueError) as info:
                finite_difference_rates(MixtureWeights(0.2, 0.3, 0.5), p, h=h)
            assert str(info.value) == f"step {step} reaches the p=1/2 boundary"
