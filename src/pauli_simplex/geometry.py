"""Region geometry and measure on the simplex of dephasing-channel blends.

The non-Markovian set splits into three congruent lens-shaped regions, one
per axis, each hugging the simplex edge where that axis' own weight vanishes.
This module provides the closed-form region boundaries, the region measure by
Gauss-Legendre quadrature and by seeded Monte Carlo, the equilateral-triangle
embedding used for figures, and a classified triangular scan grid.

Measures are taken uniform in the (a, b) parametrization of the simplex,
normalized so the whole simplex has measure 1.
"""

# keeps annotations strings: evaluated, np.random.Generator on `sample_simplex`
# would load numpy.random at every CLI start-up (about 6 ms and 5 MB more)
from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from ._procs import forked, split, stop_if_orphaned
from .channels import AXES, _require_finite
from .divisibility import limit_rates_array, region_codes

#: vertices of the equilateral embedding, one per channel axis
_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])

#: traversal order turning a boundary parametrization into rows of one region
_REGION_ORDER = {"X": (1, 0, 2), "Y": (0, 1, 2), "Z": (0, 2, 1)}


#: largest cross weight at which a limiting rate still reaches zero: the band of negative
#: y rates at p -> 1/2 closes at b = sqrt(5) - 2 = 1 / (sqrt(5) + 2), the nearest double
BAND_EDGE = 1.0 / (math.sqrt(5.0) + 2.0)


def _band_width(gap: np.ndarray, b: np.ndarray, far: np.ndarray) -> np.ndarray:
    """The band width sqrt((1 - b)(1 - 4b - b^2) / (1 + b)) at cross weight b, from the
    factors gap = E - b and far = b + 2 + sqrt(5) of 1 - 4b - b^2 (E = BAND_EDGE), which
    the caller forms without cancellation; NaN where gap < 0, beyond the band edge."""
    return np.sqrt(np.where(gap < 0.0, np.nan, gap) * (1.0 - b) * far / (1.0 + b))


def boundary_roots(b: np.ndarray) -> tuple:
    """Roots (a_minus, a_plus) of the limiting y rate at p -> 1/2, elementwise.

    Setting the y decay rate to zero at fixed cross weight b yields the quadratic
    (1 + b) a^2 - (1 - b)(1 + b) a + b (1 - b) in a, whose roots are (1 - b)/2 -+ w/2
    for the band width w of `_band_width`; blends with a strictly between them have a
    negative limiting y rate.  The minus root is Vieta's b (1 - b) / ((1 + b) a_plus),
    which does not cancel near b = 0, or a_plus where w = 0, so the branches meet bit
    for bit.  Both are NaN beyond BAND_EDGE.  Returns two float arrays shaped like b.
    """
    b = np.asarray(b, dtype=float)
    bad = ~((0.0 <= b) & (b <= 1.0))  # NaN too
    if bad.any():
        raise ValueError(f"coordinate b={b[bad].flat[0]} outside [0, 1]")
    width = _band_width(BAND_EDGE - b, b, b + 2.0 + math.sqrt(5.0))
    plus = 0.5 * (1.0 - b) + 0.5 * width
    return np.where(width == 0.0, plus, b * (1.0 - b) / ((1.0 + b) * plus)), plus


def boundary_blocks(region: str, points: int) -> tuple:
    """Sample the closed boundary of one non-Markovian region, rows on demand.

    Validates at once, then returns (rows, make_rows): the 2 points rows of
    the curve and make_rows(k0, k1), which builds rows k0 to k1 - 1 as a
    tuple (samples, uv, branch): (m, 3) simplex points, their (m, 2)
    embedding and the branch, -1 or +1.  With
    b = np.linspace(0, BAND_EDGE, points), row r < points is the minus root
    at b[r], from the simplex edge to where the band closes, and row
    r >= points the plus root at b[2 points - 1 - r], back again.  Rows
    permute the canonical y-region layout onto the requested region.
    """
    if region not in AXES:
        raise ValueError(f"region must be one of {AXES}, got {region!r}")
    if points < 2:
        raise ValueError(f"need at least 2 points per branch, got {points}")
    if points >= 1 << 62:  # the row count 2 points, and so every row index, in int64
        raise ValueError(f"need at most 2^62 - 1 points per branch, got {points}")
    return 2 * points, lambda r0, r1: _boundary_rows(region, points, r0, r1)


def _boundary_rows(region: str, points: int, r0: int, r1: int) -> tuple:
    r = np.arange(r0, r1)
    minus = r < points
    k = np.minimum(r, 2 * points - 1 - r)
    # np.linspace(0.0, BAND_EDGE, points)[k], bit for bit
    own = np.where(k == points - 1, BAND_EDGE, k * (BAND_EDGE / (points - 1)) + 0.0)
    a_coord = np.where(minus, *boundary_roots(own))  # the minus root, else the plus root
    canonical = np.column_stack([a_coord, own, 1.0 - own - a_coord])  # y-region layout
    samples = canonical[:, list(_REGION_ORDER[region])]
    return samples, to_pauli_neutral_array(samples), np.where(minus, -1, 1)


#: Gauss-Legendre node counts: the first rule, and the last before giving up
_GAUSS_FIRST, _GAUSS_LAST = 8, 128


def _region_integrand(s: np.ndarray) -> np.ndarray:
    """Twice the band width at cross weight b = E - s^2, times |db/ds| = 2s.

    With b = E - s^2, E = BAND_EDGE, the factors of `_band_width` are gap = s^2 and
    far = 2 sqrt(5) - s^2, so the integrand is smooth on [0, sqrt(E)].
    """
    gap = s * s
    return 4.0 * s * _band_width(gap, BAND_EDGE - gap, 2.0 * math.sqrt(5.0) - gap)


def _region_measure(tol: float) -> tuple:
    """Measure of one region and its error estimate, by Gauss-Legendre rules.

    Doubles the node count from _GAUSS_FIRST and stops at the first rule of
    2n nodes whose distance from the n-node rule, plus the rounding scale
    sqrt(2n) eps |Q| of its products w_i f(x_i), is within tol.  Raises
    ValueError naming tol when the _GAUSS_LAST rule is reached first.

    A rule is math.fsum of its products: their exact sum, rounded once, so
    its bits do not depend on a BLAS kernel, thread count or order of
    addition, as a dot product's do.
    """
    tol = _require_finite("tol", tol)
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    # imported here: numpy.polynomial would add about 2 ms to every CLI start
    from numpy.polynomial.legendre import leggauss

    half = math.sqrt(BAND_EDGE) / 2.0  # s runs over [0, 2 * half]

    def rule(n: int) -> float:
        x, w = leggauss(n)
        return half * math.fsum((w * _region_integrand(half * (x + 1.0))).tolist())

    n, coarse = _GAUSS_FIRST, rule(_GAUSS_FIRST)
    while n < _GAUSS_LAST:
        n *= 2
        fine = rule(n)
        err = abs(fine - coarse) + math.sqrt(n) * sys.float_info.epsilon * fine
        if err <= tol:
            return fine, err
        coarse = fine
    raise ValueError(
        f"tol={tol} not reached: {n} Gauss-Legendre nodes leave an error estimate of {err:.3g}"
    )


class MeasureReport(NamedTuple):
    """Per-region and aggregate measures with the estimator's error scale."""

    region_x: float
    region_y: float
    region_z: float
    total: float
    markovian: float
    error: float

    def regions(self) -> tuple:
        return self[:3]


def total_measures(tol: float = 1e-8) -> MeasureReport:
    """Quadrature measures of all regions, their union, and the complement.

    The three regions are congruent, so one band-width integral gives all of
    them; tol bounds its error estimate, and a tol that double precision
    cannot certify raises ValueError.  The error field carries the achieved
    estimate for the total (three times the per-region estimate).
    """
    region, err = _region_measure(tol)
    total = 3.0 * region
    return MeasureReport(
        region_x=region,
        region_y=region,
        region_z=region,
        total=total,
        markovian=1.0 - total,
        error=3.0 * err,
    )


def sample_simplex(n: int, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """n points uniform on the weight simplex, by normalized exponential gaps.

    Returns an (n, 3) view of a (3, n) array, so each weight column
    points[:, k] is contiguous for the column-wise `region_codes`.  The values
    are those of rng.exponential(size=(n, 3)) divided row by row by
    (e0 + e1) + e2; only the memory layout differs from that array.

    The work happens in `out`, a C-contiguous float64 (7, m) array with
    m >= n, allocated as (7, n) when not given: rows 3 to 5 hold the draw as
    one flat run of 3n values, row 6 the row sums and rows 0 to 2 the points.
    The result is a view of out[:3, :n], which the next call with the same
    `out` overwrites.
    """
    if n < 1:
        raise ValueError(f"need at least 1 sample, got {n}")
    if out is None:
        out = np.empty((7, n))
    draw = out[3:6].reshape(-1)[: 3 * n].reshape(n, 3)
    total, points = out[6, :n], out[:3, :n]
    rng.standard_exponential(out=draw)
    e = draw.T
    # the same sum as e.sum(axis=0), bit for bit, without the strided
    # reduction that costs more than the draw itself
    np.add(e[0], e[1], out=total)
    np.add(total, e[2], out=total)
    np.divide(e, total, out=points)
    return points.T


#: rows per Monte Carlo slice, the unit of drawing and classifying.  Each
#: worker holds one workspace of this many rows for its whole run: the
#: sampler's seven float64 columns (points, draw, row sums; the classifier's
#: scratch reuses the draw and row sums) and three byte columns, about
#: 0.97 MB in all.  With such a workspace, 2^15 rows gave 0.4-2.5 MB more peak
#: memory; on two worker processes 1e7 samples took about 8 % more wall time
#: at 2^13 rows (per-call overhead), 2 % more at 2^15 and 23 % more at 2^16
MC_SLICE_ROWS = 1 << 14


def _binomial_se(phat: float, n: int) -> float:
    # a degenerate 0-or-1 estimate carries no spread information; report the
    # conservative worst-case binomial scale instead of a misleading zero
    var = phat * (1.0 - phat)
    if var == 0.0:
        var = 0.25
    return math.sqrt(var / n)


def monte_carlo_measures(n: int, seed: int, threads: int | None = None) -> MeasureReport:
    """Estimate the region measures by classifying n uniform simplex samples.

    Fully determined by (n, seed).  The chunk fixes the seeds: samples come
    in chunks of 2^18 rows, and chunk i draws from the generator of
    SeedSequence(seed, spawn_key=(i,)), which is SeedSequence(seed).spawn(m)[i]
    for any m > i.  The slice bounds memory: a chunk is drawn and classified
    in consecutive slices of at most MC_SLICE_ROWS rows from its generator,
    and those draws concatenate bit for bit to one draw of the whole chunk.

    The processes of `_procs.split` for the chunks, at most threads unless
    it is None, each count one range of chunks in one workspace (see
    MC_SLICE_ROWS).  The counts are integer sums, so neither the split nor
    the slice length changes the result.  The error field is the binomial
    standard error of the total non-Markovian fraction.
    """
    if n < 1:
        raise ValueError(f"need at least 1 sample, got {n}")
    if n >= 1 << 63:  # every sample index, and the counts' divisor, in int64
        raise ValueError(f"need at most 2^63 - 1 samples, got {n}")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    chunk, slice_rows = 1 << 18, MC_SLICE_ROWS
    n_chunks = (n + chunk - 1) // chunk
    random = np.random  # loaded here, before the fork, so that no worker loads it again

    def count_chunks(c0: int, c1: int) -> list:
        # rows 0-2 points, 3-5 draw, 6 row sums; the classifier's floats
        # are rows 3-6, spent once the points are formed
        floats = np.empty((7, slice_rows))
        work = (floats[3:], np.empty((2, slice_rows), dtype=bool), np.empty(slice_rows, np.int8))
        counts = np.zeros(3, dtype=np.intp)
        for i in range(c0, c1):
            stop_if_orphaned()
            size = min(chunk, n - i * chunk)
            rng = random.default_rng(random.SeedSequence(seed, spawn_key=(i,)))
            for start in range(0, size, slice_rows):
                points = sample_simplex(min(slice_rows, size - start), rng, floats)
                codes = region_codes(points, work)
                for k in range(3):
                    counts[k] += np.count_nonzero(codes == k)
        return counts.tolist()

    counts = np.sum(forked(count_chunks, split(n_chunks, threads), "MC worker"), axis=0)

    fractions = counts / n
    total = float(fractions.sum())
    return MeasureReport(
        region_x=float(fractions[0]),
        region_y=float(fractions[1]),
        region_z=float(fractions[2]),
        total=total,
        markovian=1.0 - total,
        error=_binomial_se(total, n),
    )


def to_pauli_neutral_array(weights: np.ndarray) -> np.ndarray:
    """Vectorized equilateral embedding of an (n, 3) weight array.

    The same values as np.matmul(weights, _TRIANGLE), bit for bit, for
    finite non-negative weights with a zero or normal c: each coordinate has
    one inexact term, so its sum rounds once in any order, and no BLAS call
    is made.  (For a subnormal c, 0.5 * c can round, and u may differ from
    the product's in the last place.)
    """
    w = np.asarray(weights, dtype=float)
    return np.stack([w[..., 1] + 0.5 * w[..., 2], w[..., 2] * _TRIANGLE[2, 1]], axis=-1)


def _check_resolution(n: int) -> None:
    if n < 1:
        raise ValueError(f"grid resolution must be >= 1, got {n}")
    if n * (n + 3) >= 1 << 63:  # the largest line start product of `_grid_rows`, in int64
        raise ValueError(f"grid resolution must be <= 3037000498 (n (n + 3) < 2^63), got {n}")


def _grid_line(n: int, k: int) -> int:
    """The line i of flat row k: the last line whose start is at or before k.

    Line i starts at row i (2n + 3 - i) / 2, which is at or before k exactly
    when 2n + 3 - 2i >= sqrt((2n + 3)^2 - 8k), of a positive number for every
    row; the integer square root keeps it exact for any n.
    """
    m = 2 * n + 3
    return (m - math.isqrt(m * m - 8 * k - 1) - 1) // 2


def _grid_rows(n: int, k0: int, k1: int) -> np.ndarray:
    """Rows k0 to k1 - 1 of the grid (i/n, j/n, (n-i-j)/n), in lexicographic
    (i, j) order.

    Flat row k lies on the last line starting at or before it.  Only the
    starts of the lines these rows touch are formed, so memory does not grow
    with n.
    """
    lines = np.arange(_grid_line(n, k0), _grid_line(n, k1 - 1) + 1)
    starts = lines * (2 * n + 3 - lines) // 2  # as in _grid_line
    k = np.arange(k0, k1)
    at = np.searchsorted(starts, k, "right") - 1
    i = lines[at]
    j = k - starts[at]
    return np.column_stack([i / n, j / n, (n - i - j) / n])


def grid_weights(n: int) -> np.ndarray:
    """Triangular lattice (i/n, j/n, (n-i-j)/n), rows lexicographic in (i, j)."""
    _check_resolution(n)
    return _grid_rows(n, 0, (n + 1) * (n + 2) // 2)


def scan_blocks(n: int) -> tuple:
    """Classify and embed the resolution-n triangular grid, rows on demand.

    Validates n at once, then returns (rows, make_rows): the grid's row
    count and make_rows(k0, k1), which builds grid rows k0 to k1 - 1 in
    lexicographic (i, j) order as a tuple (weights, uv, rates, codes) of
    (m, 3), (m, 2), (m, 3) and (m,) arrays: the codes of `region_codes`
    (-1 Markovian, else the region's axis index) and the limiting rates.
    Memory is bounded by the range asked for, whatever n is: it forms only
    its own grid rows.  Where a row's float sum (w0 + w1) + w2 is not
    exactly 1 (4,432 rows at n = 400), `weights` holds the MixtureWeights
    renormalization w / ((w0 + w1) + w2) while uv, rates and codes come from
    the raw row.
    """
    _check_resolution(n)
    return (n + 1) * (n + 2) // 2, lambda k0, k1: _classify_rows(_grid_rows(n, k0, k1))


def _classify_rows(points: np.ndarray) -> tuple:
    uv = to_pauli_neutral_array(points)
    rates = limit_rates_array(points)
    total = (points[:, :1] + points[:, 1:2]) + points[:, 2:]
    weights = points / total  # x / 1.0 == x, so exact rows keep their bits
    return weights, uv, rates, region_codes(points)
