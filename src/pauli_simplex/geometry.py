"""Region geometry and measure on the simplex of dephasing-channel blends.

The non-Markovian set splits into three congruent lens-shaped regions, one
per axis, each hugging the simplex edge where that axis' own weight vanishes.
This module provides the closed-form region boundaries, the region measure by
Gauss-Legendre quadrature and by seeded Monte Carlo, the equilateral-triangle
embedding used for figures, and a classified triangular scan grid.

Measures are taken uniform in the (a, b) parametrization of the simplex,
normalized so the whole simplex has measure 1.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import AXES, _require_finite
from .divisibility import limit_rates_array, region_codes

#: radicand values in (-RADICAND_TOL, 0) are rounded up to 0 (band edge rounding)
RADICAND_TOL = 1e-12

#: vertices of the equilateral embedding, one per channel axis
_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])

#: traversal order turning a boundary parametrization into rows of one region
_REGION_ORDER = {"X": (1, 0, 2), "Y": (0, 1, 2), "Z": (0, 2, 1)}


def band_edge(x: float) -> float:
    """Largest cross weight at which a rate still reaches zero at p = 1/2 - x.

    Closed form (2 - sqrt(4x^2 - 4x + 5)) / (2x - 1); equals sqrt(5) - 2 at
    x = 0 and decreases as x grows, so the negative-rate band is widest in
    the long-time limit.
    """
    x = _require_finite("x", x)
    if not 0.0 <= x < 0.5:
        raise ValueError(f"offset x={x} outside [0, 1/2)")
    return (2.0 - math.sqrt(4.0 * x * x - 4.0 * x + 5.0)) / (2.0 * x - 1.0)


def boundary_roots(b: float, x: float) -> tuple | None:
    """Roots (a_minus, a_plus) of the y rate at p = 1/2 - x, or None.

    Setting the y decay rate to zero at fixed cross weight b yields a
    quadratic in a; for b beyond band_edge(x) the discriminant is negative
    and the rate never reaches zero, so None is returned.  Inside the band,
    blends with a strictly between the roots have a negative y rate.
    """
    b = _require_finite("b", b)
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"coordinate b={b} outside [0, 1]")
    edge = band_edge(x)  # also validates x
    x = float(x)
    p = 0.5 - x
    lead = 2.0 * p * (1.0 - p * (1.0 - b))
    mid = -(1.0 - b) * lead
    const = b * (1.0 - 2.0 * p + 2.0 * p * p * (1.0 - b))
    disc = mid * mid - 4.0 * lead * const
    if disc < 0.0:
        if disc < -RADICAND_TOL and b <= edge:
            raise ValueError(
                f"negative radicand {disc:.3e} inside the band at b={b}, x={x}"
            )
        if b > edge:
            return None
        disc = 0.0
    root = math.sqrt(disc)
    return ((-mid - root) / (2.0 * lead), (-mid + root) / (2.0 * lead))


@dataclass(frozen=True)
class BoundaryCurve:
    """Closed zero-rate curve of one region, traversed minus branch then plus.

    `samples` is an (m, 3) array of simplex points; `branch` marks each row
    with -1 or +1.  The two branches join where the band closes.
    """

    region: str
    samples: np.ndarray
    branch: np.ndarray


def boundary_curve(region: str, points: int) -> BoundaryCurve:
    """Sample the closed boundary of one non-Markovian region.

    `points` samples per branch; the minus branch runs from the simplex edge
    to the closing point of the band, the plus branch back.  Rows permute the
    canonical y-region parametrization onto the requested region.
    """
    if region not in AXES:
        raise ValueError(f"region must be one of {AXES}, got {region!r}")
    if points < 2:
        raise ValueError(f"need at least 2 points per branch, got {points}")
    edge = band_edge(0.0)
    bs = np.linspace(0.0, edge, points)
    lo, hi = np.array([boundary_roots(float(b), 0.0) for b in bs]).T
    own = np.concatenate([bs, bs[::-1]])
    a_coord = np.concatenate([lo, hi[::-1]])
    other = 1.0 - own - a_coord
    canonical = np.column_stack([a_coord, own, other])  # y-region layout
    samples = canonical[:, list(_REGION_ORDER[region])]
    branch = np.concatenate([np.full(points, -1), np.full(points, 1)])
    return BoundaryCurve(region, samples, branch)


#: Gauss-Legendre node counts: the first rule, and the last before giving up
_GAUSS_FIRST, _GAUSS_LAST = 8, 128


def _region_integrand(s: np.ndarray) -> np.ndarray:
    """Twice the band width at cross weight b = E - s^2, times |db/ds| = 2s.

    The width sqrt((1 - b^2)(1 - 4b - b^2)) / (1 + b) has a square-root zero
    at the band edge E = band_edge(0) = sqrt(5) - 2.  With b = E - s^2,
    1 - 4b - b^2 = s^2 (2 sqrt(5) - s^2), so in s the integrand
    4 s^2 sqrt((1 - b)(2 sqrt(5) - s^2) / (1 + b)) is smooth on [0, sqrt(E)].
    """
    b = band_edge(0.0) - s * s
    return 4.0 * s * s * np.sqrt((1.0 - b) * (2.0 * math.sqrt(5.0) - s * s) / (1.0 + b))


def _region_measure(tol: float) -> tuple:
    """Measure of one region and its error estimate, by Gauss-Legendre rules.

    Doubles the node count from _GAUSS_FIRST and stops at the first rule of
    2n nodes whose distance from the n-node rule, plus the rounding scale
    sqrt(2n) eps |Q| of its sum, is within tol.  Raises ValueError naming
    tol when the _GAUSS_LAST rule is reached first.
    """
    tol = _require_finite("tol", tol)
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    # imported here: numpy.polynomial would add about 2 ms to every CLI start
    from numpy.polynomial.legendre import leggauss

    half = math.sqrt(band_edge(0.0)) / 2.0  # s runs over [0, 2 * half]

    def rule(n: int) -> float:
        x, w = leggauss(n)
        return half * float(w @ _region_integrand(half * (x + 1.0)))

    n, coarse = _GAUSS_FIRST, rule(_GAUSS_FIRST)
    while n < _GAUSS_LAST:
        n *= 2
        fine = rule(n)
        err = abs(fine - coarse) + math.sqrt(n) * np.finfo(float).eps * fine
        if err <= tol:
            return fine, err
        coarse = fine
    raise ValueError(
        f"tol={tol} not reached: {n} Gauss-Legendre nodes leave an error estimate of {err:.3g}"
    )


@dataclass(frozen=True)
class MeasureReport:
    """Per-region and aggregate measures with the estimator's error scale."""

    region_x: float
    region_y: float
    region_z: float
    total: float
    markovian: float
    method: str
    error: float
    samples: int | None = None
    seed: int | None = None

    def regions(self) -> tuple:
        return (self.region_x, self.region_y, self.region_z)


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
        method="quadrature",
        error=3.0 * err,
    )


def sample_simplex(n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform on the weight simplex, by normalized exponential gaps.

    Returns an (n, 3) view of a (3, n) C-order array, so each weight column
    points[:, k] is contiguous for the column-wise `region_codes`.  The values
    are those of rng.exponential(size=(n, 3)) divided row by row by
    (e0 + e1) + e2; only the memory layout differs from that array.
    """
    if n < 1:
        raise ValueError(f"need at least 1 sample, got {n}")
    e = rng.standard_exponential((n, 3)).T
    points = np.empty((3, n))
    # the same sum as e.sum(axis=0), bit for bit, without the strided
    # reduction that costs more than the draw itself
    np.divide(e, (e[0] + e[1]) + e[2], out=points)
    return points.T


#: rows per Monte Carlo slice, the unit of drawing and classifying: a slice's
#: 0.75 MB draw, 0.75 MB of points and 0.25 MB classifier columns stay near
#: cache size, where a whole 2^18-row chunk's came to about 25 MB per thread
MC_SLICE_ROWS = 1 << 15


def _binomial_se(phat: float, n: int) -> float:
    # a degenerate 0-or-1 estimate carries no spread information; report the
    # conservative worst-case binomial scale instead of a misleading zero
    var = phat * (1.0 - phat)
    if var == 0.0:
        var = 0.25
    return math.sqrt(var / n)


def monte_carlo_measures(n: int, seed: int, threads: int = 1) -> MeasureReport:
    """Estimate the region measures by classifying n uniform simplex samples.

    Fully determined by (n, seed).  The chunk fixes the seeds: samples come
    in chunks of 2^18 rows, and chunk i draws from the generator of
    SeedSequence(seed, spawn_key=(i,)), which is SeedSequence(seed).spawn(m)[i]
    for any m > i.  The slice bounds memory: a chunk is drawn and classified
    in consecutive slices of at most MC_SLICE_ROWS rows from its generator,
    and those draws concatenate bit for bit to one draw of the whole chunk.
    Worker w counts chunks w, w + workers, ..., so neither the seeds nor the
    work queue grow with n.  The counts are integer sums, so neither the
    thread count nor the slice length changes the result.  The error field
    is the binomial standard error of the total non-Markovian fraction.
    """
    if n < 1:
        raise ValueError(f"need at least 1 sample, got {n}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    chunk, slice_rows = 1 << 18, MC_SLICE_ROWS
    n_chunks = (n + chunk - 1) // chunk
    workers = min(threads, n_chunks, os.cpu_count() or 1)

    def count_chunks(first: int) -> np.ndarray:
        counts = np.zeros(3, dtype=np.intp)
        for i in range(first, n_chunks, workers):
            size = min(chunk, n - i * chunk)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            for start in range(0, size, slice_rows):
                points = sample_simplex(min(slice_rows, size - start), rng)
                counts += np.bincount(region_codes(points) + 1, minlength=4)[1:]
        return counts

    if workers == 1:
        counts = count_chunks(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = sum(pool.map(count_chunks, range(workers)))

    fractions = counts / n
    total = float(fractions.sum())
    return MeasureReport(
        region_x=float(fractions[0]),
        region_y=float(fractions[1]),
        region_z=float(fractions[2]),
        total=total,
        markovian=1.0 - total,
        method="montecarlo",
        error=_binomial_se(total, n),
        samples=n,
        seed=seed,
    )


def to_pauli_neutral_array(weights: np.ndarray) -> np.ndarray:
    """Vectorized equilateral embedding of an (n, 3) weight array."""
    return np.asarray(weights, dtype=float) @ _TRIANGLE


#: rows per scan block: whole grid lines while they fit, a longer line in pieces
SCAN_BLOCK_ROWS = 1 << 13


def _check_resolution(n: int) -> None:
    if n < 1:
        raise ValueError(f"grid resolution must be >= 1, got {n}")


def _grid_blocks(n: int):
    """Rows (i/n, j/n, (n-i-j)/n) of the grid in lexicographic (i, j) order.

    Yields consecutive blocks of at most SCAN_BLOCK_ROWS rows, each built
    from its own lines of fixed i, with no index over the whole grid.
    """
    lines, pieces, rows = [], [], 0
    for i in range(n + 1):
        for j0 in range(0, n + 1 - i, SCAN_BLOCK_ROWS):
            j = np.arange(j0, min(j0 + SCAN_BLOCK_ROWS, n + 1 - i))
            if rows + j.size > SCAN_BLOCK_ROWS:
                yield _grid_rows(n, lines, pieces)
                lines, pieces, rows = [], [], 0
            lines.append(np.full(j.size, i))
            pieces.append(j)
            rows += j.size
    yield _grid_rows(n, lines, pieces)


def _grid_rows(n: int, lines: list, pieces: list) -> np.ndarray:
    i, j = np.concatenate(lines), np.concatenate(pieces)
    return np.column_stack([i / n, j / n, (n - i - j) / n])


def grid_weights(n: int) -> np.ndarray:
    """Triangular lattice (i/n, j/n, (n-i-j)/n), rows lexicographic in (i, j)."""
    _check_resolution(n)
    return np.concatenate(list(_grid_blocks(n)))


def scan_blocks(n: int):
    """Classify and embed the resolution-n triangular grid, block by block.

    Validates n at once, then returns an iterator over blocks of at most
    SCAN_BLOCK_ROWS consecutive grid rows in lexicographic (i, j) order.  Each
    block is a tuple (weights, uv, rates, codes) of (m, 3), (m, 2), (m, 3)
    and (m,) arrays: the codes of `region_codes` (-1 Markovian, else the
    region's axis index) and the limiting rates.  Memory per block is bounded
    whatever n is.  Where a row's float sum (w0 + w1) + w2 is not exactly 1
    (4,432 rows at n = 400), `weights` holds the MixtureWeights
    renormalization w / ((w0 + w1) + w2) while uv, rates and codes come from
    the raw row.
    """
    _check_resolution(n)
    return (_classify_rows(points) for points in _grid_blocks(n))


def _classify_rows(points: np.ndarray) -> tuple:
    uv = to_pauli_neutral_array(points)
    rates = limit_rates_array(points)
    total = (points[:, :1] + points[:, 1:2]) + points[:, 2:]
    weights = np.where(total == 1.0, points, points / total)
    return weights, uv, rates, region_codes(points)
