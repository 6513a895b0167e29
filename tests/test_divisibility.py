import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pauli_simplex.channels import MixtureWeights
from pauli_simplex.divisibility import (
    MARKOVIAN,
    NEG_TOL,
    NONMARKOVIAN,
    _divisibility,
    classify,
    classify_by_rate_scan,
    limit_rates,
    limit_rates_array,
    p_divisibility_check,
    rate_minima_over_grid,
    region_codes,
)
from pauli_simplex.geometry import band_edge, boundary_roots, grid_weights, sample_simplex


def random_weights(count, seed=0):
    rng = np.random.default_rng(seed)
    e = rng.exponential(size=(count, 3))
    return e / e.sum(axis=1, keepdims=True)


class TestLimitRates:
    def test_centroid(self):
        rates = limit_rates(MixtureWeights(1 / 3, 1 / 3, 1 / 3))
        np.testing.assert_allclose(rates, [2.0, 2.0, 2.0], atol=1e-12)

    def test_two_channel_edge_diverges(self):
        # the absent axis' rate runs to -inf, the other two to +inf
        gx, gy, gz = limit_rates(MixtureWeights(0.0, 0.6, 0.4))
        assert gx == -math.inf
        assert gy == math.inf and gz == math.inf

    def test_vertex_cancellation(self):
        # two zero weights share the identical divergent term, which cancels
        # exactly in the rates where they appear with opposite signs
        gx, gy, gz = limit_rates(MixtureWeights(1.0, 0.0, 0.0))
        assert gx == math.inf
        assert gy == 0.0 and gz == 0.0

    def test_known_negative_point(self):
        gx, gy, gz = limit_rates(MixtureWeights(0.45, 0.1, 0.45))
        assert gy == pytest.approx(-6.555555555555555, rel=1e-12)
        assert gx == pytest.approx(9.0, rel=1e-12)
        assert gz == pytest.approx(9.0, rel=1e-12)

    def test_matches_rates_near_half(self):
        # the limit is approached by the reduced rates as p -> 1/2
        from pauli_simplex.generator import three_mix_rates

        w = MixtureWeights(0.25, 0.35, 0.4)
        near = three_mix_rates(w, 0.5 - 1e-9).as_tuple()
        np.testing.assert_allclose(limit_rates(w), near, rtol=1e-7)

    def test_array_form_matches_scalar(self):
        pts = random_weights(100, seed=4)
        batch = limit_rates_array(pts)
        for k in range(100):
            np.testing.assert_allclose(
                batch[k], limit_rates(MixtureWeights(*pts[k])), rtol=1e-13
            )


class TestClassify:
    def test_centroid_markovian(self):
        label = classify(MixtureWeights(1 / 3, 1 / 3, 1 / 3))
        assert label.tag == MARKOVIAN
        assert label.region is None

    @pytest.mark.parametrize(
        "w", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    )
    def test_vertices_markovian(self, w):
        assert classify(MixtureWeights(*w)).markovian

    def test_open_edges_nonmarkovian(self):
        for t in np.linspace(0.05, 0.95, 19):
            label = classify(MixtureWeights(t, 1.0 - t, 0.0))
            assert label.tag == NONMARKOVIAN
            assert label.region == "Z"

    def test_small_cross_weight_region(self):
        assert classify(MixtureWeights(0.45, 0.1, 0.45)).region == "Y"

    def test_balanced_dominant_weight_is_markovian(self):
        # the two small weights produce cancelling divergences, leaving every
        # limit rate positive; confirmed by the rate-scan oracle
        w = MixtureWeights(0.1, 0.8, 0.1)
        assert classify(w).markovian
        assert classify_by_rate_scan(w).markovian

    def test_permutation_equivariance(self):
        w = MixtureWeights(0.45, 0.1, 0.45)
        assert classify(w).region == "Y"
        assert classify(w.permuted((1, 0, 2))).region == "X"
        assert classify(w.permuted((0, 2, 1))).region == "Z"

    def test_agrees_with_rate_scan_oracle(self):
        for w in random_weights(2000, seed=17):
            fast = classify(MixtureWeights(*w))
            slow = classify_by_rate_scan(MixtureWeights(*w))
            assert fast.tag == slow.tag
            assert fast.region == slow.region

    def test_regions_are_disjoint(self):
        for w in random_weights(5000, seed=23):
            rates = np.array(limit_rates(MixtureWeights(*w)))
            assert (rates < -1e-12).sum() <= 1

    def test_region_codes_match_classify(self):
        pts = random_weights(500, seed=29)
        codes = region_codes(pts)
        for k in range(500):
            label = classify(MixtureWeights(*pts[k]))
            expected = -1 if label.markovian else "XYZ".index(label.region)
            assert codes[k] == expected


def rate_rule(weights):
    """Reference verdict: the NEG_TOL rule on the extended-real limiting rates."""
    with np.errstate(over="ignore"):  # 1/w overflows to +inf on subnormal w
        rates = limit_rates_array(weights)
    return _divisibility(rates), rates


def within_rounding_of_band(w, rates, code):
    """The axis' limiting rate is within float rounding of NEG_TOL at w."""
    scale = max(1.0, 1.0 / w.min()) if w.min() > 0 else math.inf
    return abs(rates[code] - NEG_TOL) <= 1e-13 * scale


def exact_code(w):
    """The NEG_TOL test on the scaled limiting rates, in exact arithmetic."""
    w = [Fraction(float(x)) for x in w]
    code = -1
    for k, (i, j) in enumerate(((1, 2), (0, 2), (0, 1))):
        scaled = w[k] * (w[i] + w[j]) - w[i] * w[j] * (1 + w[k])
        if scaled < Fraction(NEG_TOL) * w[i] * w[j] * w[k]:
            code = k
    return code


def shift_ulps(a, steps):
    for _ in range(abs(steps)):
        a = float(np.nextafter(a, math.copysign(math.inf, steps)))
    return a


simplex_points = st.tuples(
    *[st.one_of(st.just(0.0), st.floats(0.0, 1.0)) for _ in range(3)]
).filter(lambda t: sum(t) > 0)


class TestRegionCodes:
    """The polynomial sign test against the NEG_TOL rule on limiting rates."""

    def test_matches_rate_rule_on_grids(self):
        for n in [*range(1, 61), 400, 1000]:
            points = grid_weights(n)
            np.testing.assert_array_equal(region_codes(points), rate_rule(points)[0])

    def test_matches_rate_rule_on_samples(self):
        points = sample_simplex(1_000_000, np.random.default_rng(2024))
        np.testing.assert_array_equal(region_codes(points), rate_rule(points)[0])

    @pytest.mark.parametrize(
        "w, code",
        [
            ((0.3, 0.0, 0.7), 1),  # open edge b = 0 is region Y
            ((0.0, 0.6, 0.4), 0),
            ((0.5, 0.5, 0.0), 2),
            ((1.0, 0.0, 0.0), -1),  # vertices are Markovian
            ((0.0, 1.0, 0.0), -1),
            ((0.0, 0.0, 1.0), -1),
            ((1 / 3, 1 / 3, 1 / 3), -1),
            ((0.45, 0.1, 0.45), 1),
            ((5e-324, 5e-310, 1.0), 0),  # subnormal weights, where 1/w overflows
        ],
    )
    def test_exact_edges_and_vertices(self, w, code):
        assert region_codes(np.array(w)).tolist() == [code]

    @pytest.mark.parametrize("e", [1e-6, 1e-9, 1e-12, 1e-15])
    def test_near_vertex_diagonal_is_markovian(self, e):
        # the limiting rates of (1 - 2e, e, e) are (~2/e, ~2e, ~2e), all
        # positive; a scaled rate evaluated as w_k (w_i + w_j) - w_i w_j
        # (1 + w_k) cancels here to rounding noise of either sign
        for order in [(0, 1, 2), (1, 0, 2), (2, 1, 0)]:
            w = np.array([1.0 - 2.0 * e, e, e])[list(order)]
            assert region_codes(w).tolist() == [-1]

    def test_no_division_or_infinity_on_edges(self):
        edges = np.array([[0.0, t, 1.0 - t] for t in np.linspace(0.0, 1.0, 11)])
        with np.errstate(all="raise"):
            codes = region_codes(np.concatenate([edges, edges[:, [1, 2, 0]]]))
        assert set(codes.tolist()) == {-1, 0, 2}

    @given(st.lists(simplex_points, min_size=1, max_size=20), st.permutations(range(3)))
    @settings(max_examples=200, deadline=None)
    def test_permuting_columns_permutes_codes(self, rows, order):
        w = np.array(rows)
        w = w / w.sum(axis=1, keepdims=True)
        codes = region_codes(w)
        permuted = region_codes(w[:, order])
        expected = [-1 if c < 0 else order.index(c) for c in codes.tolist()]
        assert permuted.tolist() == expected

    @given(
        st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        st.sampled_from([0, 1]),
        st.integers(-8, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_boundary_ulps_differ_only_within_rounding(self, frac, branch, steps):
        # boundary_roots(b, 0) is the zero set of the limiting y rate
        b = frac * band_edge(0.0)
        a = shift_ulps(boundary_roots(b, 0.0)[branch], steps)
        c = 1.0 - b - a
        assume(a >= 0.0 and c >= 0.0)
        w = np.array([a, b, c])
        fast = int(region_codes(w)[0])
        codes, rates = rate_rule(w)
        # where 1/w overflows the reference rates turn nan and give no verdict
        assume(not np.isnan(rates).any())
        slow = int(codes[0])
        if fast != slow:
            for code in {fast, slow} - {-1}:
                assert within_rounding_of_band(w, rates[0], code)

    def test_boundary_sweep_differs_only_within_rounding(self):
        rows = []
        for b in np.linspace(0.0, band_edge(0.0), 2000):
            for root in boundary_roots(float(b), 0.0):
                for steps in range(-8, 9):
                    a = shift_ulps(root, steps)
                    rows.append([a, b, 1.0 - b - a])
        w = np.array(rows)
        w = w[(w >= 0.0).all(axis=1)]
        fast = region_codes(w)
        slow, rates = rate_rule(w)
        differ = np.flatnonzero(fast != slow)
        assert len(differ) <= 10  # 5 of 67,984 points today
        for q in differ:
            for code in {int(fast[q]), int(slow[q])} - {-1}:
                assert within_rounding_of_band(w[q], rates[q], code)
            # the polynomial test is the one that matches exact arithmetic
            assert int(fast[q]) == exact_code(w[q])


class TestRateScan:
    def test_minima_match_direct_evaluation(self):
        from pauli_simplex.generator import three_mix_rates

        w = (0.3, 0.25, 0.45)
        grid = np.linspace(0.01, 0.49, 25)
        mins = rate_minima_over_grid(np.array([w]), grid)[0]
        direct = np.min(
            [three_mix_rates(MixtureWeights(*w), p).as_tuple() for p in grid], axis=0
        )
        np.testing.assert_allclose(mins, direct, rtol=1e-13)


class TestPDivisibility:
    def test_random_blends(self):
        grid = np.linspace(0.0, 0.4995, 1000)
        for w in random_weights(20, seed=8):
            assert p_divisibility_check(MixtureWeights(*w), grid)

    def test_pure_channel_vertex(self):
        # at a vertex one pairwise sum is exactly zero for all p
        from pauli_simplex.generator import three_mix_rates

        w = MixtureWeights(0.0, 0.0, 1.0)
        assert p_divisibility_check(w, np.linspace(0.0, 0.49, 100))
        assert three_mix_rates(w, 0.37).pairwise_sums()[0] == 0.0

    def test_edge_with_diverging_rate(self):
        w = MixtureWeights(0.5, 0.5, 0.0)
        assert p_divisibility_check(w, np.linspace(0.0, 0.4999, 500))
