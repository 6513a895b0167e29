import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_simplex import geometry
from pauli_simplex.channels import MixtureWeights
from pauli_simplex.divisibility import classify, limit_rates_array, region_codes
from pauli_simplex.generator import three_mix_rates
from pauli_simplex.geometry import (
    band_edge,
    boundary_curve,
    boundary_roots,
    grid_weights,
    monte_carlo_measures,
    sample_simplex,
    scan_blocks,
    to_pauli_neutral_array,
    total_measures,
)

# band-width integral over the cross weight, evaluated to 20 digits with
# arbitrary-precision quadrature; the region measure is twice this
REGION_MEASURE_REF = 0.28980212068360561876


def scan_columns(n):
    """The (weights, uv, rates, codes) columns of `scan_blocks(n)`, concatenated."""
    return tuple(np.concatenate(column) for column in zip(*scan_blocks(n)))


class TestBandEdge:
    def test_long_time_value(self):
        assert abs(band_edge(0.0) - (math.sqrt(5.0) - 2.0)) < 1e-15

    def test_decreasing(self):
        xs = np.linspace(0.0, 0.49, 100)
        vals = [band_edge(x) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            band_edge(0.5)


class TestBoundaryRoots:
    def test_edge_of_simplex(self):
        assert boundary_roots(0.0, 0.0) == (0.0, 1.0)

    def test_band_closes_at_edge_value(self):
        b = band_edge(0.0)
        lo, hi = boundary_roots(b, 0.0)
        assert lo == pytest.approx(hi, abs=1e-7)
        assert lo == pytest.approx(0.5 * (1.0 - b), abs=1e-7)
        assert lo == pytest.approx(0.38196601125, abs=1e-6)

    def test_outside_band(self):
        assert boundary_roots(0.5, 0.0) is None
        assert boundary_roots(band_edge(0.3) + 1e-6, 0.3) is None

    def test_roots_zero_the_limit_rate(self):
        for b in np.linspace(0.0, band_edge(0.0) * 0.999, 50):
            lo, hi = boundary_roots(float(b), 0.0)
            for a in (lo, hi):
                rates = limit_rates_array(np.array([[a, b, 1.0 - a - b]]))[0]
                assert abs(rates[1]) < 1e-9

    @pytest.mark.parametrize("x", [0.05, 0.15, 0.3, 0.45])
    def test_roots_zero_the_rate_at_earlier_times(self, x):
        p = 0.5 - x
        for b in np.linspace(0.001, band_edge(x) * 0.99, 20):
            lo, hi = boundary_roots(float(b), x)
            for a in (lo, hi):
                w = MixtureWeights(a, float(b), 1.0 - a - float(b))
                assert abs(three_mix_rates(w, p).gy) < 1e-9

    def test_width_tapers_to_zero(self):
        edge = band_edge(0.0)
        widths = []
        for delta in [1e-2, 1e-4, 1e-6, 1e-8]:
            lo, hi = boundary_roots(edge - delta, 0.0)
            widths.append(hi - lo)
        assert all(b < a for a, b in zip(widths, widths[1:]))
        assert widths[-1] < 1e-3

    def test_label_flips_across_curve(self):
        for b in np.linspace(0.01, band_edge(0.0) * 0.9, 50):
            lo, hi = boundary_roots(float(b), 0.0)
            inside_lo = classify(MixtureWeights(lo + 1e-4, b, 1.0 - b - lo - 1e-4))
            inside_hi = classify(MixtureWeights(hi - 1e-4, b, 1.0 - b - hi + 1e-4))
            outside_lo = classify(MixtureWeights(lo - 1e-4, b, 1.0 - b - lo + 1e-4))
            outside_hi = classify(MixtureWeights(hi + 1e-4, b, 1.0 - b - hi - 1e-4))
            assert inside_lo.region == "Y" and inside_hi.region == "Y"
            assert outside_lo.region != "Y" and outside_hi.region != "Y"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            boundary_roots(-0.1, 0.0)
        with pytest.raises(ValueError):
            boundary_roots(0.1, 0.5)


class TestBoundaryCurve:
    def test_samples_inside_simplex_and_on_curve(self):
        curve = boundary_curve("Y", 200)
        assert curve.samples.shape == (400, 3)
        assert (curve.samples > -1e-12).all()
        np.testing.assert_allclose(curve.samples.sum(axis=1), 1.0, atol=1e-12)
        rates = limit_rates_array(curve.samples)
        assert np.abs(rates[:, 1]).max() < 1e-9

    def test_branches_join_at_band_edge(self):
        curve = boundary_curve("Z", 64)
        np.testing.assert_allclose(curve.samples[63], curve.samples[64], atol=1e-7)

    @pytest.mark.parametrize("region,column", [("X", 0), ("Y", 1), ("Z", 2)])
    def test_region_permutation(self, region, column):
        curve = boundary_curve(region, 50)
        rates = limit_rates_array(curve.samples)
        assert np.abs(rates[:, column]).max() < 1e-9
        # the own-axis weight is the small one, spanning the band
        assert curve.samples[:, column].max() == pytest.approx(band_edge(0.0), abs=1e-12)

    def test_rejects_bad_region(self):
        with pytest.raises(ValueError):
            boundary_curve("W", 10)


class TestQuadrature:
    def test_region_measure_reference(self):
        value = total_measures(tol=1e-8).region_y
        assert abs(value - REGION_MEASURE_REF) < 1e-8

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
    def test_region_measure_at_double_precision(self, tol):
        # the Gauss-Legendre rule converges geometrically: every tolerance
        # lands within a few ulps of the 20-digit reference
        assert abs(total_measures(tol).region_y - REGION_MEASURE_REF) <= 1e-15

    def test_region_measure_against_rounded_value(self):
        assert abs(total_measures(1e-6).region_y - 0.2898) < 1e-3

    def test_total_report(self):
        report = total_measures(1e-8)
        assert report.total == 3.0 * report.region_y
        assert report.markovian == 1.0 - report.total
        assert abs(report.total - 0.867) < 3e-3
        assert abs(report.markovian - 0.133) < 3e-3
        assert report.method == "quadrature"

    @pytest.mark.parametrize("tol", [1e-16, 1e-300])
    def test_unreachable_tolerance_is_rejected(self, tol):
        with pytest.raises(ValueError, match=f"tol={tol}"):
            total_measures(tol)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            total_measures(0.0)


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        a = monte_carlo_measures(50_000, seed=7)
        b = monte_carlo_measures(50_000, seed=7)
        assert a == b

    def test_worker_count_is_capped(self, monkeypatch):
        # a huge thread request gets no more workers than chunks or cores;
        # the fake pool records the request and maps serially, so no real
        # pool is ever started with a large worker count
        requested = []

        class FakePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(geometry, "ThreadPoolExecutor", FakePool)
        n = 3 * (1 << 18)
        serial = monte_carlo_measures(n, seed=9, threads=1)
        for cores, workers in ((64, 3), (2, 2)):
            monkeypatch.setattr(geometry.os, "cpu_count", lambda: cores)
            assert monte_carlo_measures(n, seed=9, threads=10**6) == serial
            assert requested[-1] == workers
        monkeypatch.setattr(geometry.os, "cpu_count", lambda: None)
        assert monte_carlo_measures(n, seed=9, threads=10**6) == serial
        assert requested == [3, 2]  # one usable core runs serially

    def test_thread_count_does_not_change_result(self):
        a = monte_carlo_measures(600_000, seed=3, threads=1)
        b = monte_carlo_measures(600_000, seed=3, threads=4)
        assert a.regions() == b.regions()

    def test_matches_quadrature_within_three_sigma(self):
        report = monte_carlo_measures(200_000, seed=42)
        assert abs(report.total - 3 * REGION_MEASURE_REF) <= 3 * report.error

    def test_report_is_consistent(self):
        report = monte_carlo_measures(10_000, seed=1)
        assert report.total == pytest.approx(sum(report.regions()), abs=1e-15)
        assert report.markovian == pytest.approx(1.0 - report.total, abs=1e-15)
        assert report.samples == 10_000 and report.seed == 1

    def test_degenerate_sample_reports_wide_error(self):
        report = monte_carlo_measures(1, seed=1)
        assert report.total in (0.0, 1.0)
        assert report.error == 0.5

    def test_sampler_matches_row_sum_normalization(self):
        for seed in (0, 1, 2):
            e = np.random.default_rng(seed).exponential(size=(100_000, 3))
            points = sample_simplex(100_000, np.random.default_rng(seed))
            np.testing.assert_array_equal(points, e / e.sum(axis=1, keepdims=True))

    def test_sampler_is_column_major(self):
        # the row-sum normalization of rng.exponential's draw, bit for bit,
        # in a layout whose weight columns are each contiguous
        n = 2**15 + 7
        e = np.random.default_rng(12).exponential(size=(n, 3))
        expected = e / ((e[:, :1] + e[:, 1:2]) + e[:, 2:])
        points = sample_simplex(n, np.random.default_rng(12))
        np.testing.assert_array_equal(points.view(np.uint64), expected.view(np.uint64))
        assert all(points[:, k].flags.c_contiguous for k in range(3))

    @pytest.mark.parametrize("i", [0, 1, 38, 1000])
    def test_chunk_seed_is_the_spawned_child(self, i):
        # chunk i seeds from SeedSequence(seed, spawn_key=(i,)) without
        # spawning the sequences of all chunks
        spawned = np.random.SeedSequence(42).spawn(1001)[i]
        direct = np.random.SeedSequence(42, spawn_key=(i,))
        assert direct.generate_state(8).tolist() == spawned.generate_state(8).tolist()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_seeding_memory_does_not_grow_with_samples(self, monkeypatch, threads):
        # 50,000 one-slice chunks with drawing and classifying stubbed out:
        # what is left is seeding and scheduling, whose memory must not grow
        # with the chunk count
        chunks = 50_000
        monkeypatch.setattr(geometry, "MC_SLICE_ROWS", 1 << 18)
        monkeypatch.setattr(geometry, "sample_simplex", lambda m, rng: None)
        monkeypatch.setattr(geometry, "region_codes", lambda points: np.zeros(1, dtype=np.intp))
        tracemalloc.start()
        try:
            report = monte_carlo_measures(chunks << 18, seed=5, threads=threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.region_x == chunks / (chunks << 18)
        assert peak < 5_000_000

    @pytest.mark.parametrize("threads", [1, 2])
    def test_seed_42_pins(self, threads):
        report = monte_carlo_measures(10**7, seed=42, threads=threads)
        assert report.regions() == (0.2900017, 0.2899589, 0.2896194)
        assert report.total == 0.86958

    @given(
        st.integers((1 << 18) + 1, 3 * (1 << 18) - 1).filter(lambda n: n % (1 << 18)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=4, deadline=None)
    def test_threads_agree_off_chunk_multiple(self, n, seed):
        # the last chunk is a partial one
        assert monte_carlo_measures(n, seed, 1) == monte_carlo_measures(n, seed, 2)

    @pytest.mark.parametrize("rows", [1000, geometry.MC_SLICE_ROWS])
    def test_slice_draws_concatenate_to_chunk_draw(self, rows):
        chunk = 1 << 18
        whole = np.random.default_rng(3).exponential(size=(chunk, 3))
        points = sample_simplex(chunk, np.random.default_rng(3))
        draw, sample = np.random.default_rng(3), np.random.default_rng(3)
        sizes = [min(rows, chunk - start) for start in range(0, chunk, rows)]
        slices = np.concatenate([draw.exponential(size=(m, 3)) for m in sizes])
        sampled = np.concatenate([sample_simplex(m, sample) for m in sizes])
        np.testing.assert_array_equal(slices.view(np.uint64), whole.view(np.uint64))
        np.testing.assert_array_equal(sampled.view(np.uint64), points.view(np.uint64))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rows", [1000, 1 << 18, geometry.MC_SLICE_ROWS])
    def test_slice_length_does_not_change_result(self, monkeypatch, rows, threads):
        # a partial second chunk; 1000 divides neither chunk length
        n = (1 << 18) + 12_345
        monkeypatch.setattr(geometry, "MC_SLICE_ROWS", rows)
        report = monte_carlo_measures(n, seed=11, threads=threads)
        assert report.regions() == (79_352 / n, 79_728 / n, 79_363 / n)
        assert report.total == 0.8686796192197137

    def test_sampler_is_uniform_on_simplex(self):
        pts = sample_simplex(200_000, np.random.default_rng(0))
        assert pts.shape == (200_000, 3)
        np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
        # each coordinate of a uniform simplex point has mean 1/3, var 1/18
        np.testing.assert_allclose(pts.mean(axis=0), 1 / 3, atol=2e-3)
        np.testing.assert_allclose(pts.var(axis=0), 1 / 18, atol=2e-3)


def embed(a, b, c):
    """Equilateral embedding of one blend, as a (u, v) tuple of floats."""
    u, v = to_pauli_neutral_array(MixtureWeights(a, b, c).as_array())
    return (float(u), float(v))


class TestEmbedding:
    def test_vertices(self):
        assert embed(1, 0, 0) == (0.0, 0.0)
        assert embed(0, 1, 0) == (1.0, 0.0)
        u, v = embed(0, 0, 1)
        assert (u, v) == (0.5, pytest.approx(math.sqrt(3) / 2, abs=1e-15))

    def test_centroid(self):
        u, v = embed(1 / 3, 1 / 3, 1 / 3)
        assert u == pytest.approx(0.5, abs=1e-15)
        assert v == pytest.approx(math.sqrt(3) / 6, abs=1e-15)

    def test_edge_midpoint(self):
        u, v = embed(0.0, 0.5, 0.5)
        assert u == pytest.approx(0.75, abs=1e-15)
        assert v == pytest.approx(math.sqrt(3) / 4, abs=1e-15)

    def test_affine_on_array(self):
        # row by row, the affine map that puts the vertices at (0,0), (1,0)
        # and (1/2, sqrt(3)/2)
        pts = sample_simplex(50, np.random.default_rng(5))
        batch = to_pauli_neutral_array(pts)
        for k in range(50):
            a, b, c = pts[k]
            np.testing.assert_allclose(batch[k], [b + c / 2, c * math.sqrt(3) / 2], atol=1e-15)


class TestScanGrid:
    def test_resolution_one_is_vertices(self):
        weights, uv, rates, codes = scan_columns(1)
        assert len(codes) == 3
        assert (codes == -1).all()

    def test_resolution_two(self):
        weights, uv, rates, codes = scan_columns(2)
        assert len(codes) == 6
        markovian = codes == -1
        assert markovian.sum() == 3  # the vertices
        for row in weights[~markovian]:
            assert 0.5 in row

    def test_columns_have_one_row_per_point(self):
        weights, uv, rates, codes = scan_columns(9)
        assert weights.shape == rates.shape == (55, 3)
        assert uv.shape == (55, 2)
        assert codes.shape == (55,)

    def test_row_order_lexicographic(self):
        pts = grid_weights(3)
        expected = [
            (i / 3, j / 3) for i in range(4) for j in range(4 - i)
        ]
        np.testing.assert_allclose(pts[:, :2], expected, atol=1e-15)

    def test_grid_matches_loop_reference(self):
        n = 37
        rows = [(i / n, j / n, (n - i - j) / n) for i in range(n + 1) for j in range(n - i + 1)]
        np.testing.assert_array_equal(grid_weights(n), np.array(rows))

    def test_matches_scalar_classify(self):
        weights, uv, rates, codes = scan_columns(12)
        for w, code in zip(weights, codes):
            label = classify(MixtureWeights(*w))
            assert label.tag == ("MARKOVIAN" if code < 0 else "NONMARKOVIAN")
            assert label.region == (None if code < 0 else "XYZ"[code])

    def test_region_counts_symmetric(self):
        codes = scan_columns(30)[3]
        counts = np.bincount(codes[codes >= 0], minlength=3)
        assert counts[0] == counts[1] == counts[2]

    def test_markovian_fraction_converges(self):
        codes = scan_columns(150)[3]
        fraction = (codes == -1).sum() / len(codes)
        assert abs(fraction - 0.1306) < 0.01

    def test_renormalized_rows_keep_raw_embedding_and_rates(self):
        # rows whose float sum is not exactly 1 carry the MixtureWeights
        # renormalization in a,b,c but the raw grid point in u,v and the rates
        n = 400
        raw = grid_weights(n)
        weights, uv, rates, codes = scan_columns(n)
        off = np.flatnonzero((raw[:, 0] + raw[:, 1]) + raw[:, 2] != 1.0)
        assert len(off) == 4432
        for k in off:
            w = MixtureWeights(*raw[k])
            assert tuple(weights[k]) == (w.a, w.b, w.c) != tuple(raw[k])
        exact = np.setdiff1d(np.arange(len(raw)), off)
        np.testing.assert_array_equal(weights[exact], raw[exact])
        np.testing.assert_array_equal(uv, to_pauli_neutral_array(raw))
        np.testing.assert_array_equal(rates, limit_rates_array(raw))

    @pytest.mark.parametrize(
        "n, rows", [(1, 1), (9, 1), (9, 7), (60, 7), (60, None), (400, 1000), (400, None)]
    )
    def test_blocks_concatenate_to_grid(self, monkeypatch, n, rows):
        if rows is not None:
            monkeypatch.setattr(geometry, "SCAN_BLOCK_ROWS", rows)
        blocks = list(scan_blocks(n))
        columns = scan_columns(n)
        for k, column in enumerate(columns):
            np.testing.assert_array_equal(np.concatenate([b[k] for b in blocks]), column)
        # the same rows, embedding, rates and codes as one pass over the whole grid
        raw = np.array(
            [(i / n, j / n, (n - i - j) / n) for i in range(n + 1) for j in range(n - i + 1)]
        )
        np.testing.assert_array_equal(grid_weights(n), raw)
        weights, uv, rates, codes = columns
        np.testing.assert_array_equal(uv, to_pauli_neutral_array(raw))
        np.testing.assert_array_equal(rates, limit_rates_array(raw))
        np.testing.assert_array_equal(codes, region_codes(raw))

    def test_blocks_hold_whole_lines(self):
        # every line (fixed i) of the n = 400 grid fits a block, so each block
        # starts at j = 0 and ends at i + j = n
        blocks = list(scan_blocks(400))
        assert len(blocks) > 1
        for weights, uv, rates, codes in blocks:
            assert len(codes) <= geometry.SCAN_BLOCK_ROWS
            assert weights[0, 1] == 0.0 and weights[-1, 2] == 0.0

    def test_long_lines_are_split(self, monkeypatch):
        monkeypatch.setattr(geometry, "SCAN_BLOCK_ROWS", 7)
        sizes = [len(codes) for *_, codes in scan_blocks(20)]
        assert max(sizes) <= 7
        assert sum(sizes) == 21 * 22 // 2

    def test_blocks_validate_before_iteration(self):
        with pytest.raises(ValueError, match="grid resolution must be >= 1, got 0"):
            scan_blocks(0)
