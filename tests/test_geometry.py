import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal, getcontext, localcontext

import numpy as np
import pytest
from conftest import GOLDEN, child_env, lattice
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_simplex import geometry
from pauli_simplex.channels import MixtureWeights
from pauli_simplex.cli import SCAN_BLOCK_ROWS
from pauli_simplex.divisibility import classify, limit_rates_array, region_codes
from pauli_simplex.geometry import (
    BAND_EDGE,
    boundary_blocks,
    boundary_roots,
    grid_weights,
    monte_carlo_measures,
    sample_simplex,
    scan_blocks,
    to_pauli_neutral_array,
    total_measures,
)

# measure of one region (twice the band-width integral over the cross
# weight), pinned to 20 digits; `region_measure_oracle` recomputes it
REGION_MEASURE_DIGITS = "0.28980212068360561876"
REGION_MEASURE_REF = float(REGION_MEASURE_DIGITS)

#: working precision of the decimal quadrature oracle, in significant digits
ORACLE_DIGITS = 60


def legendre_rule(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], in Decimal.

    Each node is the float estimate cos(pi (i - 1/4) / (n + 1/2)) polished by
    Newton's method on P_n, with P_n and P_{n-1} from the recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1} and
    P_n' = n (x P_n - P_{n-1}) / (x^2 - 1); the weight is 2 / ((1 - x^2) P_n'^2).
    Runs at the precision of the current decimal context.
    """

    def legendre(x):
        prev, cur = Decimal(1), x
        for k in range(1, n):
            prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
        return cur, n * (x * cur - prev) / (x * x - 1)

    tiny = Decimal(10) ** (5 - getcontext().prec)
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = Decimal(math.cos(math.pi * (i - 0.25) / (n + 0.5)))
        for _ in range(20):
            value, slope = legendre(x)
            step = value / slope
            x -= step
            if abs(step) < tiny:
                break
        else:
            raise AssertionError(f"Newton's method did not converge for node {i} of {n}")
        slope = legendre(x)[1]
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * slope * slope))
    return nodes, weights


@functools.cache
def region_measure_oracle(n):
    """The integral of `geometry._region_integrand` over [0, sqrt(E)] by the n-point rule.

    The same smooth s-form integrand 4 s^2 sqrt((1 - b)(2 sqrt(5) - s^2) / (1 + b)),
    b = E - s^2, E = sqrt(5) - 2, evaluated in Decimal at ORACLE_DIGITS digits.
    """
    with localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS
        root5 = Decimal(5).sqrt()
        edge = root5 - 2
        half = edge.sqrt() / 2  # s runs over [0, 2 * half]

        def integrand(s):
            b = edge - s * s
            return 4 * s * s * ((1 - b) * (2 * root5 - s * s) / (1 + b)).sqrt()

        nodes, weights = legendre_rule(n)
        return half * sum(w * integrand(half * (x + 1)) for x, w in zip(nodes, weights))


def lattice_rows(n):
    """The rows (i/n, j/n, k/n) of the resolution-n grid, from `lattice`."""
    return np.column_stack(lattice(n)) / n


def ranges(rows, step):
    """Consecutive ranges (k0, k1) of `step` rows over [0, rows), the last shorter."""
    return [(k0, min(k0 + step, rows)) for k0 in range(0, rows, step)]


def in_ranges(rows, make_rows, step=1 << 16):
    """make_rows over consecutive ranges of `step` rows, columns concatenated."""
    parts = [make_rows(k0, k1) for k0, k1 in ranges(rows, step)]
    return tuple(np.concatenate(column) for column in zip(*parts))


def stale_sampler_workspace(rows):
    """A `sample_simplex` workspace for up to `rows` rows, holding NaN."""
    return np.full((7, rows), np.nan)


def scan_columns(n):
    """The (weights, uv, rates, codes) columns of all rows of `scan_blocks(n)`."""
    return in_ranges(*scan_blocks(n))


def boundary_columns(region, points):
    """The (samples, uv, branch) columns of all rows of `boundary_blocks`."""
    return in_ranges(*boundary_blocks(region, points))


def bits(x):
    """The bit patterns of a float array, so -0.0 and 0.0 compare unequal."""
    return np.asarray(x, dtype=float).view(np.int64)


#: a power of two that makes every double in [0, 1], and every ulp of one, an integer
DYADIC = 1 << 1100


def dyadic(x):
    """The integer x * DYADIC, for a double x in [0, 1] or its ulp."""
    num, den = float(x).as_integer_ratio()
    return num * (DYADIC // den)


def y_quadratic_sign(a, b):
    """The sign of Q(a) = (1 + b) a^2 - (1 - b)(1 + b) a + b (1 - b), exactly,
    for a and b given as integers over DYADIC; the limiting y rate at
    p -> 1/2 has the sign of Q."""
    one = DYADIC
    value = (one + b) * a * a - (one - b) * (one + b) * a + b * (one - b) * one
    return (value > 0) - (value < 0)


class TestBandEdge:
    def test_long_time_value(self):
        # the double nearest sqrt(5) - 2: with E = M 2^-55, |E - (sqrt(5) - 2)|
        # < 2^-56 exactly when (2^57 + 2M - 1)^2 < 5 2^112 < (2^57 + 2M + 1)^2
        m, scale = BAND_EDGE.as_integer_ratio()
        m *= 2**55 // scale
        assert 2**52 <= m < 2**53
        assert (2**57 + 2 * m - 1) ** 2 < 5 * 2**112 < (2**57 + 2 * m + 1) ** 2

    def test_band_closes_between_the_edge_and_the_next_double(self):
        (lo,), (hi,) = boundary_roots(np.array([BAND_EDGE]))
        assert math.isfinite(lo) and bits(lo) == bits(hi)
        after = boundary_roots(np.array([math.nextafter(BAND_EDGE, 1.0)]))
        assert np.isnan(after).all()


class TestBoundaryRoots:
    def test_edge_of_simplex(self):
        lo, hi = boundary_roots(np.array([0.0]))
        assert (lo.tolist(), hi.tolist()) == ([0.0], [1.0])

    def test_band_closes_at_edge_value(self):
        b = BAND_EDGE
        (lo,), (hi,) = boundary_roots(np.array([b]))
        assert lo == pytest.approx(hi, abs=1e-7)
        assert lo == pytest.approx(0.5 * (1.0 - b), abs=1e-7)
        assert lo == pytest.approx(0.38196601125, abs=1e-6)

    def test_outside_band(self):
        lo, hi = boundary_roots(np.array([0.5, BAND_EDGE + 1e-6, 0.2]))
        assert np.isnan(lo[:2]).all() and np.isnan(hi[:2]).all()
        assert np.isfinite(lo[2]) and np.isfinite(hi[2])

    def test_roots_zero_the_limit_rate(self):
        b = np.linspace(0.0, BAND_EDGE * 0.999, 50)
        for a in boundary_roots(b):
            rates = limit_rates_array(np.column_stack([a, b, 1.0 - a - b]))
            assert np.abs(rates[:, 1]).max() < 1e-9

    def test_width_tapers_to_zero(self):
        lo, hi = boundary_roots(BAND_EDGE - np.array([1e-2, 1e-4, 1e-6, 1e-8]))
        widths = (hi - lo).tolist()
        assert all(b < a for a, b in zip(widths, widths[1:]))
        assert widths[-1] < 1e-3

    def test_label_flips_across_curve(self):
        bs = np.linspace(0.01, BAND_EDGE * 0.9, 50)
        for b, lo, hi in zip(*[bs, *boundary_roots(bs)]):
            inside_lo = classify(MixtureWeights(lo + 1e-4, b, 1.0 - b - lo - 1e-4))
            inside_hi = classify(MixtureWeights(hi - 1e-4, b, 1.0 - b - hi + 1e-4))
            outside_lo = classify(MixtureWeights(lo - 1e-4, b, 1.0 - b - lo + 1e-4))
            outside_hi = classify(MixtureWeights(hi + 1e-4, b, 1.0 - b - hi - 1e-4))
            assert inside_lo.region == "Y" and inside_hi.region == "Y"
            assert outside_lo.region != "Y" and outside_hi.region != "Y"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match=r"coordinate b=-0.1 outside \[0, 1\]"):
            boundary_roots(np.array([0.2, -0.1]))
        with pytest.raises(ValueError, match="coordinate b=nan"):
            boundary_roots(np.array([float("nan")]))


class TestBoundaryCurve:
    def test_samples_inside_simplex_and_on_curve(self):
        samples, uv, branch = boundary_columns("Y", 200)
        assert samples.shape == (400, 3)
        assert (samples > -1e-12).all()
        np.testing.assert_allclose(samples.sum(axis=1), 1.0, atol=1e-12)
        rates = limit_rates_array(samples)
        assert np.abs(rates[:, 1]).max() < 1e-9
        np.testing.assert_array_equal(uv, to_pauli_neutral_array(samples))
        assert branch.tolist() == [-1] * 200 + [1] * 200

    @pytest.mark.parametrize("region,points", [("X", 500), ("Y", 500), ("Z", 500), ("Y", 4097)])
    def test_golden_rows_within_three_ulps_of_the_roots(self, region, points):
        # the rows of every golden curve, in exact integer arithmetic: Q
        # changes sign between a - 3 ulp and a + 3 ulp, falling across the
        # minus root and rising across the plus root
        samples, _, branch = boundary_columns(region, points)
        # each region's order is its own inverse
        canonical = samples[:, list(geometry._REGION_ORDER[region])]
        for r, (a, b, _) in enumerate(canonical.tolist()):
            if r in (points - 1, points):
                continue
            x, y, step = dyadic(a), dyadic(b), 3 * dyadic(math.ulp(a))
            signs = y_quadratic_sign(x - step, y), y_quadratic_sign(x + step, y)
            assert signs == ((1, -1) if branch[r] < 0 else (-1, 1)), (r, a, b)
        # the branches meet at b = BAND_EDGE, one row twice, and the band is
        # still open there: Q < 0 at its vertex (1 - b)/2
        np.testing.assert_array_equal(bits(samples[points - 1]), bits(samples[points]))
        b = canonical[points, 1]
        assert b == BAND_EDGE
        assert y_quadratic_sign((DYADIC - dyadic(b)) // 2, dyadic(b)) == -1

    def test_last_rows_at_the_most_points(self):
        # 2 points rows is the largest row count in int64; the next is refused
        points = (1 << 62) - 1
        rows, make_rows = boundary_blocks("Y", points)
        samples, _, branch = make_rows(rows - 3, rows)
        step = BAND_EDGE / (points - 1)
        assert samples[:, 1].tolist() == [2 * step, step, 0.0]
        assert samples[-1].tolist() == [1.0, 0.0, 0.0] and branch.tolist() == [1, 1, 1]
        message = f"need at most 2^62 - 1 points per branch, got {1 << 62}"
        with pytest.raises(ValueError, match=re.escape(message)):
            boundary_blocks("Y", 1 << 62)

    def test_branches_join_at_band_edge(self):
        samples = boundary_columns("Z", 64)[0]
        np.testing.assert_allclose(samples[63], samples[64], atol=1e-7)

    @pytest.mark.parametrize("region,column", [("X", 0), ("Y", 1), ("Z", 2)])
    def test_region_permutation(self, region, column):
        samples = boundary_columns(region, 50)[0]
        rates = limit_rates_array(samples)
        assert np.abs(rates[:, column]).max() < 1e-9
        # the own-axis weight is the small one, spanning the band
        assert samples[:, column].max() == pytest.approx(BAND_EDGE, abs=1e-12)

    def test_rejects_bad_region(self):
        # raised by the call, before any block is drawn
        with pytest.raises(ValueError, match="region must be one of"):
            boundary_blocks("W", 10)
        with pytest.raises(ValueError, match="need at least 2 points per branch, got 1"):
            boundary_blocks("Y", 1)

    @pytest.mark.parametrize("points", [2, 3, 7, 200, 500, 10**6])
    def test_b_column_is_linspace(self, points):
        b = boundary_columns("Y", points)[0][:, 1]
        expected = np.linspace(0.0, BAND_EDGE, points)
        np.testing.assert_array_equal(bits(b[:points]), bits(expected))
        np.testing.assert_array_equal(bits(b[points:]), bits(expected[::-1]))

    def test_blocks_are_consecutive_rows_of_at_most_scan_block_rows(self):
        rows, make_rows = boundary_blocks("X", 10)
        assert rows == 20
        whole = make_rows(0, rows)
        # any range, in any order, including ones across the branch join
        for k0, k1 in [(17, 20), (9, 11), (0, 3), (3, 17), (10, 11), (0, 20)]:
            part = make_rows(k0, k1)
            assert len(part[2]) == k1 - k0
            for column, made in zip(whole, part, strict=True):
                np.testing.assert_array_equal(bits(column[k0:k1]), bits(made))
        for step in (3, SCAN_BLOCK_ROWS):
            for column, made in zip(whole, in_ranges(rows, make_rows, step)):
                np.testing.assert_array_equal(bits(column), bits(made))


def dynamic_arch_openblas():
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its configuration
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


class TestQuadrature:
    #: both pinned quadrature commands, then the library's record at four tolerances
    QUAD_BYTES = """
from pauli_simplex.cli import cli
from pauli_simplex.geometry import total_measures
cli(["measure", "--method", "quad"])
cli(["measure", "--method", "quad", "--json"])
for tol in (1e-4, 1e-8, 1e-12, 1e-14):
    print(repr(total_measures(tol)))
"""

    @pytest.mark.skipif(not dynamic_arch_openblas(), reason="needs a DYNAMIC_ARCH OpenBLAS")
    def test_same_bytes_under_every_blas_kernel(self):
        # each OpenBLAS kernel adds a dot product's terms in its own order;
        # OPENBLAS_VERBOSE=2 names the kernel picked on stderr, as "Core: <name>"
        outputs, cores = set(), set()
        for kernel in ("Haswell", "SkylakeX", "Nehalem", "Prescott"):
            child = subprocess.run(
                [sys.executable, "-c", self.QUAD_BYTES],
                env={**child_env(), "OPENBLAS_CORETYPE": kernel, "OPENBLAS_VERBOSE": "2"},
                capture_output=True, text=True, timeout=60,
            )
            assert child.returncode == 0, child.stderr
            cores.update(line for line in child.stderr.splitlines() if line.startswith("Core:"))
            outputs.add(child.stdout)
        assert len(cores) >= 2, cores
        assert len(outputs) == 1, outputs
        pinned = [GOLDEN[key]["stdout"] for key in ("measure --method quad",
                                                    "measure --method quad --json")]
        assert outputs.pop().startswith("".join(pinned))

    def test_region_measure_reference(self):
        value = total_measures(tol=1e-8).region_y
        assert abs(value - REGION_MEASURE_REF) < 1e-8

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
    def test_region_measure_at_double_precision(self, tol):
        # the Gauss-Legendre rule converges geometrically: every tolerance
        # lands within a few ulps of the 20-digit reference
        assert abs(total_measures(tol).region_y - REGION_MEASURE_REF) <= 1e-15

    def test_oracle_reproduces_the_pinned_digits(self):
        assert region_measure_oracle(60).quantize(Decimal("1e-20")) == Decimal(
            REGION_MEASURE_DIGITS
        )

    def test_oracle_has_converged(self):
        # the integrand is analytic around [0, sqrt(E)]: 40 and 60 nodes agree
        # to more than 40 digits
        assert abs(region_measure_oracle(40) - region_measure_oracle(60)) < Decimal("1e-40")

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
    def test_report_matches_the_oracle(self, tol):
        region = region_measure_oracle(60)
        report = total_measures(tol)
        bound = Decimal("1e-15")
        for value in report.regions():
            assert abs(Decimal(value) - region) <= bound
        assert abs(Decimal(report.total) - 3 * region) <= bound
        assert abs(Decimal(report.markovian) - (1 - 3 * region)) <= bound

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
    def test_every_field_is_a_python_float(self, tol):
        # the error too, so the record's repr does not depend on numpy's version
        assert [type(value) for value in total_measures(tol)] == [float] * 6

    def test_region_measure_against_rounded_value(self):
        assert abs(total_measures(1e-6).region_y - 0.2898) < 1e-3

    def test_total_report(self):
        report = total_measures(1e-8)
        assert report.total == 3.0 * report.region_y
        assert report.markovian == 1.0 - report.total
        assert abs(report.total - 0.867) < 3e-3
        assert abs(report.markovian - 0.133) < 3e-3

    @pytest.mark.parametrize("tol", [1e-16, 1e-300])
    def test_unreachable_tolerance_is_rejected(self, tol):
        with pytest.raises(ValueError, match=f"tol={tol}"):
            total_measures(tol)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            total_measures(0.0)


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "n, message",
        [(0, "need at least 1 sample, got 0"),
         # before 2^63 / 2^18 chunks start: 10^20 samples once never ended
         (1 << 63, f"need at most 2^63 - 1 samples, got {1 << 63}")],
    )
    def test_rejects_bad_sample_counts(self, forks, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            monte_carlo_measures(n, seed=7)
        assert forks == []

    def test_worker_count_is_capped(self, forks, usable_cpus):
        # a huge thread request, or none, starts no more workers than chunks
        # or usable CPUs, this process among them
        n = 3 * (1 << 18)
        serial = monte_carlo_measures(n, seed=9, threads=1)
        assert forks == []
        for cpus, forked in ((64, [(1, 2), (2, 3)]), (2, [(1, 3)]), (1, [])):
            usable_cpus(cpus)
            for cap in ({"threads": 10**6}, {}):
                forks.clear()
                assert monte_carlo_measures(n, seed=9, **cap) == serial
                assert forks == forked

    def test_matches_quadrature_within_three_sigma(self):
        report = monte_carlo_measures(200_000, seed=42)
        assert abs(report.total - 3 * REGION_MEASURE_REF) <= 3 * report.error

    def test_report_is_consistent(self):
        report = monte_carlo_measures(10_000, seed=1)
        assert report.total == pytest.approx(sum(report.regions()), abs=1e-15)
        assert report.markovian == pytest.approx(1.0 - report.total, abs=1e-15)

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
        # one-slice chunks with drawing and classifying stubbed out: what is
        # left is seeding, scheduling and each worker's workspace, fixed at
        # about 17 MB for 2^18-row slices.  One chunk runs on one worker, so
        # past the workspaces of the other workers the peak at 5,000 chunks
        # may exceed the peak at one chunk by little: 100 bytes a chunk
        monkeypatch.setattr(geometry, "MC_SLICE_ROWS", 1 << 18)
        monkeypatch.setattr(geometry, "sample_simplex", lambda m, rng, out: None)
        monkeypatch.setattr(geometry, "region_codes", lambda points, work: np.zeros(1, np.int8))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        workspace = (7 * 8 + 3) << 18
        peaks = []
        for chunks in (1, 5_000):
            tracemalloc.start()
            try:
                report = monte_carlo_measures(chunks << 18, seed=5, threads=threads)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.region_x == chunks / (chunks << 18)
        assert peaks[1] - peaks[0] < (threads - 1) * workspace + 500_000, peaks

    def test_peak_memory_is_one_workspace(self):
        # no slice allocates its arrays anew: the traced peak is the worker's
        # workspace of seven float and three byte columns, whatever n is.
        # Allocating a slice's arrays anew, as the loop once did, peaked at
        # 1.58 MB for 2^14-row slices, above this bound of 1.23 MB
        monte_carlo_measures(1, seed=3)  # numpy loads numpy.random on first use
        peaks = []
        for n in (1 << 19, 1 << 21):
            tracemalloc.start()
            try:
                monte_carlo_measures(n, seed=3, threads=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        workspace = (7 * 8 + 3) * geometry.MC_SLICE_ROWS
        assert abs(peaks[1] - peaks[0]) <= 64 * 1024, peaks
        assert peaks[1] < workspace + (256 << 10), peaks

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
        # the same slices drawn into one workspace, the last one partial
        again, out = np.random.default_rng(3), stale_sampler_workspace(rows)
        in_place = np.concatenate([sample_simplex(m, again, out).copy() for m in sizes])
        np.testing.assert_array_equal(in_place.view(np.uint64), points.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 1000, geometry.MC_SLICE_ROWS])
    def test_sampler_workspace_is_bit_identical(self, n):
        out = stale_sampler_workspace(geometry.MC_SLICE_ROWS)
        for seed in (0, 1, 2):
            points = sample_simplex(n, np.random.default_rng(seed), out)
            expected = sample_simplex(n, np.random.default_rng(seed))
            np.testing.assert_array_equal(points.view(np.uint64), expected.view(np.uint64))
            assert np.shares_memory(points, out)
            assert all(points[:, k].flags.c_contiguous for k in range(3))

    def test_sampler_workspace_reused_after_a_larger_slice(self):
        out = stale_sampler_workspace(5000)
        sample_simplex(5000, np.random.default_rng(1), out)
        points = sample_simplex(123, np.random.default_rng(2), out)
        expected = sample_simplex(123, np.random.default_rng(2))
        np.testing.assert_array_equal(points.view(np.uint64), expected.view(np.uint64))

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

    def test_matches_the_matrix_product_bit_for_bit(self):
        # the n = 400 lattice, and uniform samples of which a third lie on an
        # edge (one weight zeroed, the rest renormalized) and three are vertices
        rng = np.random.default_rng(11)
        samples = sample_simplex(100_000, rng).copy()
        edge = samples[:30_000]
        edge[np.arange(len(edge)), rng.integers(0, 3, len(edge))] = 0.0
        edge /= edge.sum(axis=1, keepdims=True)
        samples[-3:] = np.eye(3)
        for w in (grid_weights(400), samples):
            expected = w @ geometry._TRIANGLE
            np.testing.assert_array_equal(
                to_pauli_neutral_array(w).view(np.int64), expected.view(np.int64)
            )


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
        # the loop that ties the `lattice` reference, and the grid, to (i, j)
        n = 37
        rows = [(i, j, n - i - j) for i in range(n + 1) for j in range(n - i + 1)]
        np.testing.assert_array_equal(np.column_stack(lattice(n)), rows)
        np.testing.assert_array_equal(grid_weights(n), np.array(rows) / n)

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
    def test_blocks_concatenate_to_grid(self, n, rows):
        # ranges of `rows` rows (None: the CSV writer's block size)
        columns = in_ranges(*scan_blocks(n), rows or SCAN_BLOCK_ROWS)
        for column, whole in zip(columns, scan_columns(n), strict=True):
            np.testing.assert_array_equal(column, whole)
        # the same rows, embedding, rates and codes as one pass over the whole grid
        raw = lattice_rows(n)
        np.testing.assert_array_equal(grid_weights(n), raw)
        weights, uv, rates, codes = columns
        np.testing.assert_array_equal(uv, to_pauli_neutral_array(raw))
        np.testing.assert_array_equal(rates, limit_rates_array(raw))
        np.testing.assert_array_equal(codes, region_codes(raw))

    @pytest.mark.parametrize(
        "n, rows", [(1, None), (126, None), (127, None), (400, None), (5, 7), (20, 7)]
    )
    def test_blocks_are_consecutive_ranges(self, n, rows):
        # each range of `rows` rows (None: the CSV writer's block size) makes
        # exactly its rows, whatever the lines' lengths; the 21 and 231 rows
        # at n = 5 and 20 fill whole ranges of 7
        step = rows or SCAN_BLOCK_ROWS
        total, make_rows = scan_blocks(n)
        assert total == (n + 1) * (n + 2) // 2
        for k0, k1 in ranges(total, step):
            weights = make_rows(k0, k1)[0]
            assert len(weights) == k1 - k0 <= step

    def test_blocks_are_index_addressable(self):
        # any range of rows, in any order, is the same slice of the whole
        for rows, make_rows in (scan_blocks(20), boundary_blocks("Z", 30)):
            whole = make_rows(0, rows)
            cuts = sorted({0, rows, *np.random.default_rng(5).integers(0, rows, 12).tolist()})
            for k0, k1 in reversed(list(zip(cuts, cuts[1:]))):
                for made, expected in zip(make_rows(k0, k1), whole, strict=True):
                    np.testing.assert_array_equal(bits(made), bits(expected[k0:k1]))

    def test_long_lines_are_split(self):
        # line 0 of n = 20 holds rows 0-20, line 1 rows 21-40
        rows = lattice_rows(20)
        for k0, k1 in [(0, 7), (7, 14), (14, 21), (18, 25), (20, 22), (0, 41)]:
            block = geometry._grid_rows(20, k0, k1)
            assert block.shape == (k1 - k0, 3)
            np.testing.assert_array_equal(bits(block), bits(rows[k0:k1]))

    @pytest.mark.parametrize(
        "rows, resolutions",
        [
            # one-row ranges over every n would take 16 s; every row's line is
            # checked for all of these n by the test below
            (1, range(1, 61)),
            (7, [*range(1, 61), 400]),
            (SCAN_BLOCK_ROWS, [*range(1, 201), 400, 1000]),
        ],
        ids=["rows1", "rows7", "default"],
    )
    def test_blocks_match_the_lattice(self, rows, resolutions):
        for n in resolutions:
            expected = lattice_rows(n)
            for k0, k1 in ranges(len(expected), rows):
                block = geometry._grid_rows(n, k0, k1)
                assert block.dtype == expected.dtype
                np.testing.assert_array_equal(bits(block), bits(expected[k0:k1]))

    def test_line_of_every_row_matches_the_lattice(self):
        for n in [*range(1, 201), 400, 1000]:
            i = lattice(n)[0]
            assert [geometry._grid_line(n, k) for k in range(len(i))] == i.tolist(), n

    @pytest.mark.parametrize("n", [10**7, 3 * 10**7, 10**15])
    def test_line_is_exact_for_large_n(self, n):
        def start(i):
            return i * (2 * n + 3 - i) // 2

        # the first and the last row of each line; line n's is the last row
        assert start(n + 1) == (n + 1) * (n + 2) // 2
        for i in [0, 1, 2, n // 3, n // 2, n - 2, n - 1, n]:
            for k in (start(i), start(i + 1) - 1):
                assert geometry._grid_line(n, k) == i, (n, k)

    def test_last_block_is_exact_at_the_largest_resolution(self):
        # the largest n with n (n + 3) < 2^63; at the next one the line starts
        # of `_grid_rows` wrapped around in int64, and it is refused
        n = 3037000498
        rows = scan_blocks(n)[0]
        expected, i = [], n
        while len(expected) < SCAN_BLOCK_ROWS:
            expected[:0] = [(i / n, j / n, (n - i - j) / n) for j in range(n + 1 - i)]
            i -= 1
        block = geometry._grid_rows(n, rows - SCAN_BLOCK_ROWS, rows)
        np.testing.assert_array_equal(bits(block), bits(expected[-SCAN_BLOCK_ROWS:]))
        message = "grid resolution must be <= 3037000498 (n (n + 3) < 2^63), got 3037000499"
        with pytest.raises(ValueError, match=re.escape(message)):
            scan_blocks(n + 1)

    def test_first_block_memory_does_not_grow_with_n(self):
        tracemalloc.start()
        try:
            block = geometry._grid_rows(10**7, 0, SCAN_BLOCK_ROWS)
            rows, make_rows = scan_blocks(10**7)
            middle = make_rows(rows // 2, rows // 2 + SCAN_BLOCK_ROWS)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.shape == middle.shape == (SCAN_BLOCK_ROWS, 3)
        # the starts of all 10^7 + 1 lines took about 160 MB
        assert peak < 2_000_000, peak

    def test_blocks_validate_before_iteration(self):
        with pytest.raises(ValueError, match="grid resolution must be >= 1, got 0"):
            scan_blocks(0)
