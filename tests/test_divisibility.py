import itertools
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
    limit_rates_array,
    rate_minima_over_grid,
    region_codes,
)
from pauli_simplex.geometry import (
    band_edge,
    boundary_curve,
    boundary_roots,
    grid_weights,
    sample_simplex,
)


def limit_rates_of(w: MixtureWeights) -> np.ndarray:
    """Limiting rates (x, y, z) of one blend; entries may be +/-inf."""
    return limit_rates_array(w.as_array())[0]


def random_weights(count, seed=0):
    rng = np.random.default_rng(seed)
    e = rng.exponential(size=(count, 3))
    return e / e.sum(axis=1, keepdims=True)


class TestLimitRates:
    def test_centroid(self):
        rates = limit_rates_of(MixtureWeights(1 / 3, 1 / 3, 1 / 3))
        np.testing.assert_allclose(rates, [2.0, 2.0, 2.0], atol=1e-12)

    def test_two_channel_edge_diverges(self):
        # the absent axis' rate runs to -inf, the other two to +inf
        gx, gy, gz = limit_rates_of(MixtureWeights(0.0, 0.6, 0.4))
        assert gx == -math.inf
        assert gy == math.inf and gz == math.inf

    def test_vertex_cancellation(self):
        # two zero weights share the identical divergent term, which cancels
        # exactly in the rates where they appear with opposite signs
        gx, gy, gz = limit_rates_of(MixtureWeights(1.0, 0.0, 0.0))
        assert gx == math.inf
        assert gy == 0.0 and gz == 0.0

    def test_known_negative_point(self):
        gx, gy, gz = limit_rates_of(MixtureWeights(0.45, 0.1, 0.45))
        assert gy == pytest.approx(-6.555555555555555, rel=1e-12)
        assert gx == pytest.approx(9.0, rel=1e-12)
        assert gz == pytest.approx(9.0, rel=1e-12)

    def test_matches_rates_near_half(self):
        # the limit is approached by the reduced rates as p -> 1/2
        from pauli_simplex.generator import three_mix_rates

        w = MixtureWeights(0.25, 0.35, 0.4)
        near = three_mix_rates(w, 0.5 - 1e-9).as_tuple()
        np.testing.assert_allclose(limit_rates_of(w), near, rtol=1e-7)

    @pytest.mark.parametrize(
        "w, expected",
        [
            ((5e-324, 5e-310, 1.0), [-math.inf, math.inf, math.inf]),
            ((5e-310, 5e-310, 1.0), [0.0, 0.0, math.inf]),  # equal divergences cancel
            ((5e-310, 0.0, 1.0), [math.inf, -math.inf, math.inf]),
        ],
    )
    def test_subnormal_weights(self, w, expected):
        # (1 - w)/w overflows for these weights; the rates are still signed
        # infinities or the finite remainder, with no floating-point error
        with np.errstate(all="raise"):
            assert limit_rates_array(np.array(w)).tolist() == [expected]

    def test_scaling_changes_no_bits(self):
        # the rates are summed scaled by 2**-64, which must round exactly as
        # the plain sum of (1 - w)/w does wherever that sum is finite
        w = np.concatenate([random_weights(10_000, seed=31), grid_weights(60)[1:-1]])
        w = w[(w > 0).all(axis=1)]
        signs = np.array([[-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=float)
        np.testing.assert_array_equal(limit_rates_array(w), ((1.0 - w) / w) @ signs.T)

    def test_array_form_matches_scalar(self):
        pts = random_weights(100, seed=4)
        batch = limit_rates_array(pts)
        for k in range(100):
            np.testing.assert_allclose(
                batch[k], limit_rates_of(MixtureWeights(*pts[k])), rtol=1e-13
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
        assert classify(MixtureWeights(*w.as_array()[[1, 0, 2]])).region == "X"
        assert classify(MixtureWeights(*w.as_array()[[0, 2, 1]])).region == "Z"

    def test_agrees_with_rate_scan_oracle(self):
        for w in random_weights(2000, seed=17):
            fast = classify(MixtureWeights(*w))
            slow = classify_by_rate_scan(MixtureWeights(*w))
            assert fast.tag == slow.tag
            assert fast.region == slow.region

    def test_regions_are_disjoint(self):
        for w in random_weights(5000, seed=23):
            rates = np.array(limit_rates_of(MixtureWeights(*w)))
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
    rates = limit_rates_array(weights)
    return _divisibility(rates), rates


def within_rounding_of_band(w, rates, code):
    """The axis' limiting rate is within float rounding of NEG_TOL at w."""
    scale = max(1.0, 1.0 / w.min()) if w.min() > 0 else math.inf
    return abs(rates[code] - NEG_TOL) <= 1e-13 * scale


#: the other two axes (i, j) of each axis k
PAIRS = ((1, 2), (0, 2), (0, 1))


def exact_scaled_rates(w):
    """Limiting rates (x, y, z) times w_x w_y w_z, in exact arithmetic."""
    return tuple(
        w[k] * (w[i] + w[j]) - w[i] * w[j] * (1 + w[k]) for k, (i, j) in enumerate(PAIRS)
    )


def exact_code(w):
    """The NEG_TOL test on the scaled limiting rates, in exact arithmetic."""
    w = [Fraction(float(x)) for x in w]
    band = Fraction(NEG_TOL) * w[0] * w[1] * w[2]
    code = -1
    for k, scaled in enumerate(exact_scaled_rates(w)):
        if scaled < band:
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
        reordered = region_codes(w[:, order])
        expected = [-1 if c < 0 else order.index(c) for c in codes.tolist()]
        assert reordered.tolist() == expected

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


def three_axis_scaled(weights):
    """Float scaled rate and NEG_TOL band of every axis, (n, 3) arrays each.

    The arithmetic of the three-axis classifier that `region_codes` replaced:
    each axis k with big, small = max, min(w_i, w_j).
    """
    w = np.atleast_2d(weights)
    scaled, band = np.empty_like(w), np.empty_like(w)
    for k, (i, j) in enumerate(PAIRS):
        wk = w[:, k]
        big, small = np.maximum(w[:, i], w[:, j]), np.minimum(w[:, i], w[:, j])
        scaled[:, k] = big * (wk - small) + (small * wk) * (1.0 - big)
        band[:, k] = NEG_TOL * (big * small * wk)
    return scaled, band


def three_axis_codes(weights):
    """Reference codes: all three axes tested, the larger index winning."""
    scaled, band = three_axis_scaled(weights)
    codes = np.full(len(scaled), -1)
    for k in range(3):
        np.maximum(codes, (scaled[:, k] < band[:, k]) * (k + 1) - 1, out=codes)
    return codes


def assert_matches_three_axis(weights):
    np.testing.assert_array_equal(region_codes(weights), three_axis_codes(weights))


#: zero, subnormals, tiny normals, values near the float spacing of 1, and 1/2, 1
EXTREMES = [0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1e-17, 1e-16, 2.2e-16, 1e-8, 0.5, 1.0]


class TestThreeAxisReference:
    """`region_codes` equals the three-axis loop element for element.

    The kernel tests only the axis of each row's strict minimum, with that
    axis' operands in the old order, so no output bit may change.
    """

    def test_grids(self):
        for n in [*range(1, 200), 400, 1000, 1001, 2048]:
            assert_matches_three_axis(grid_weights(n))

    def test_sampler_slices(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            assert_matches_three_axis(sample_simplex(2**15, rng))

    def test_extreme_values_in_every_order(self):
        rows = np.array([(a, b, 1.0 - a - b) for a in EXTREMES for b in EXTREMES])
        rows = rows[rows[:, 2] >= 0.0]
        orders = [list(order) for order in itertools.permutations(range(3))]
        assert_matches_three_axis(np.concatenate([rows[:, order] for order in orders]))

    @pytest.mark.parametrize("region", ["X", "Y", "Z"])
    def test_shifted_boundary_samples(self, region):
        samples = boundary_curve(region, 20_000).samples
        steps = np.array([sign * d for d in (1e-16, 1e-13, 1e-12) for sign in (1, -1)])
        shifted = samples + steps[:, None, None] * np.array([1.0, -1.0, 0.0])
        rows = np.concatenate([samples, *shifted])
        assert_matches_three_axis(rows[(rows >= 0.0).all(axis=1)])

    @given(simplex_points)
    @settings(max_examples=500, deadline=None)
    def test_only_the_strict_minimum_can_be_negative(self, row):
        # the fact the kernel rests on: w_k - small rounds to >= 0 unless w_k
        # is the strict minimum, and every other factor is >= 0
        w = np.array(row) / sum(row)
        scaled, _ = three_axis_scaled(w)
        for k, (i, j) in enumerate(PAIRS):
            if not w[k] < min(w[i], w[j]):
                assert scaled[0, k] >= 0.0


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


def pairwise_sums_nonnegative(w, p_grid):
    """Every pairwise rate sum is at least NEG_TOL at every p of the grid."""
    from pauli_simplex.generator import three_mix_rates

    return all(
        min(three_mix_rates(w, float(p)).pairwise_sums()) >= NEG_TOL for p in p_grid
    )


class TestPDivisibility:
    def test_random_blends(self):
        grid = np.linspace(0.0, 0.4995, 1000)
        for w in random_weights(20, seed=8):
            assert pairwise_sums_nonnegative(MixtureWeights(*w), grid)

    def test_pure_channel_vertex(self):
        # at a vertex one pairwise sum is exactly zero for all p
        from pauli_simplex.generator import three_mix_rates

        w = MixtureWeights(0.0, 0.0, 1.0)
        assert pairwise_sums_nonnegative(w, np.linspace(0.0, 0.49, 100))
        assert three_mix_rates(w, 0.37).pairwise_sums()[0] == 0.0

    def test_edge_with_diverging_rate(self):
        w = MixtureWeights(0.5, 0.5, 0.0)
        assert pairwise_sums_nonnegative(w, np.linspace(0.0, 0.4999, 500))


def midpoint(u, v):
    return tuple((s + t) / 2 for s, t in zip(u, v))


class TestNonConvexity:
    """Exact certificates that neither the Markovian set nor its complement is convex.

    Each certificate is two blends of one set whose midpoint lies in the
    other, checked in Fractions and then through the float classifiers.
    """

    def check_float_paths(self, points, codes):
        weights = np.array(points, dtype=float)
        assert region_codes(weights).tolist() == codes
        for w, code in zip(weights, codes):
            assert classify(MixtureWeights(*w)).region == (None if code < 0 else "XYZ"[code])

    def test_markovian_set_is_not_convex(self):
        F = Fraction
        u, v = (F(1), F(0), F(0)), (F(0), F(1), F(0))
        mid = midpoint(u, v)
        assert mid == (F(1, 2), F(1, 2), F(0))
        # vertices: every scaled rate is exactly zero, on the Markovian boundary
        assert exact_scaled_rates(u) == exact_scaled_rates(v) == (0, 0, 0)
        # the midpoint lies in region Z
        assert exact_scaled_rates(mid) == (F(1, 4), F(1, 4), F(-1, 4))
        self.check_float_paths([u, v, mid], [-1, -1, 2])

    def test_nonmarkovian_set_is_not_convex(self):
        F = Fraction
        u, v = (F(0), F(1, 2), F(1, 2)), (F(1, 2), F(0), F(1, 2))
        mid = midpoint(u, v)
        assert mid == (F(1, 4), F(1, 4), F(1, 2))
        assert exact_scaled_rates(u) == (F(-1, 4), F(1, 4), F(1, 4))  # region X
        assert exact_scaled_rates(v) == (F(1, 4), F(-1, 4), F(1, 4))  # region Y
        # the midpoint has three positive scaled rates: Markovian
        assert exact_scaled_rates(mid) == (F(1, 32), F(1, 32), F(5, 32))
        self.check_float_paths([u, v, mid], [0, 1, -1])
