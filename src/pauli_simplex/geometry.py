"""Region geometry and measure on the simplex of dephasing-channel blends.

The non-Markovian set splits into three congruent lens-shaped regions, one
per axis, each hugging the simplex edge where that axis' own weight vanishes.
This module provides the closed-form region boundaries, the region measure by
adaptive quadrature and by seeded Monte Carlo, the equilateral-triangle
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

from .channels import AXES, MixtureWeights, _require_finite
from .divisibility import limit_rates_array, region_codes

#: radicand values in (-RADICAND_TOL, 0) are rounded up to 0 (band edge rounding)
RADICAND_TOL = 1e-12

#: vertices of the equilateral embedding, one per channel axis
_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])

#: traversal order turning a boundary parametrization into rows of one region
_REGION_ORDER = {"X": (1, 0, 2), "Y": (0, 1, 2), "Z": (0, 2, 1)}


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


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


def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 60):
    """Recursive Simpson bisection; returns (value, error_estimate).

    Raises QuadratureError when an interval hits max_depth while its local
    error is still above budget.
    """
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (left + right - whole) / 15.0
        if abs(err) <= tol:
            return left + right + err, abs(err)
        if depth >= max_depth:
            raise QuadratureError(
                f"quadrature stalled at depth {depth} with local error {abs(err):.3e}",
                achieved=abs(err),
            )
        lv, le = recurse(a, m, fa, flm, fm, left, tol / 2.0, depth + 1)
        rv, re = recurse(m, b, fm, frm, fb, right, tol / 2.0, depth + 1)
        return lv + rv, le + re

    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def _band_width_integrand(b: float) -> float:
    poly = b**4 + 4.0 * b**3 - 2.0 * b**2 - 4.0 * b + 1.0
    return math.sqrt(max(poly, 0.0)) / (b + 1.0)


def _region_measure(tol: float) -> tuple:
    tol = _require_finite("tol", tol)
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    value, err = _adaptive_simpson(_band_width_integrand, 0.0, band_edge(0.0), tol / 2.0)
    return 2.0 * value, 2.0 * err


def region_measure_quadrature(region: str = "Y", tol: float = 1e-8) -> float:
    """Measure of one non-Markovian region by adaptive Simpson quadrature.

    Integrates the band width over the cross weight up to band_edge(0) and
    doubles for the simplex normalization.  The three regions are congruent,
    so the region argument only labels the result.
    """
    if region not in AXES:
        raise ValueError(f"region must be one of {AXES}, got {region!r}")
    return _region_measure(tol)[0]


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

    The error field carries the achieved quadrature error estimate for the
    total (three times the per-region estimate).
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
    """n points uniform on the weight simplex, by normalized exponential gaps."""
    if n < 1:
        raise ValueError(f"need at least 1 sample, got {n}")
    e = rng.exponential(size=(n, 3))
    # the same sum as e.sum(axis=1, keepdims=True), bit for bit, without the
    # strided reduction that costs more than the draw itself
    return e / ((e[:, :1] + e[:, 1:2]) + e[:, 2:])


def _binomial_se(phat: float, n: int) -> float:
    # a degenerate 0-or-1 estimate carries no spread information; report the
    # conservative worst-case binomial scale instead of a misleading zero
    var = phat * (1.0 - phat)
    if var == 0.0:
        var = 0.25
    return math.sqrt(var / n)


def monte_carlo_measures(n: int, seed: int, threads: int = 1) -> MeasureReport:
    """Estimate the region measures by classifying n uniform simplex samples.

    Fully determined by (n, seed): samples are drawn in fixed-size chunks
    from generators spawned off one seed sequence, so the result does not
    depend on the thread count.  The error field is the binomial standard
    error of the total non-Markovian fraction.
    """
    if n < 1:
        raise ValueError(f"need at least 1 sample, got {n}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    chunk = 1 << 18
    n_chunks = (n + chunk - 1) // chunk
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)

    def count_chunk(i: int) -> np.ndarray:
        size = min(chunk, n - i * chunk)
        points = sample_simplex(size, np.random.default_rng(seeds[i]))
        return np.bincount(region_codes(points) + 1, minlength=4)[1:]

    workers = min(threads, n_chunks, os.cpu_count() or 1)
    if workers == 1:
        counts = sum(count_chunk(i) for i in range(n_chunks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = sum(pool.map(count_chunk, range(n_chunks)))

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


def to_pauli_neutral(w: MixtureWeights) -> tuple:
    """Embed weights into the plane with the simplex as an equilateral triangle.

    The three pure channels sit at (0,0), (1,0) and (1/2, sqrt(3)/2); the
    map is affine and invertible on the simplex.
    """
    u, v = w.as_array() @ _TRIANGLE
    return (float(u), float(v))


def to_pauli_neutral_array(weights: np.ndarray) -> np.ndarray:
    """Vectorized equilateral embedding of an (n, 3) weight array."""
    return np.asarray(weights, dtype=float) @ _TRIANGLE


def grid_weights(n: int) -> np.ndarray:
    """Triangular lattice (i/n, j/n, (n-i-j)/n), rows lexicographic in (i, j)."""
    if n < 1:
        raise ValueError(f"grid resolution must be >= 1, got {n}")
    i, k = np.triu_indices(n + 1)  # k = i + j runs from i to n
    return np.column_stack([i / n, (k - i) / n, (n - k) / n])


def scan_grid(n: int) -> tuple:
    """Classify and embed every point of the resolution-n triangular grid.

    Returns columns (weights, uv, rates, codes): (m, 3), (m, 2), (m, 3) and
    (m,) arrays over the m = (n+1)(n+2)/2 grid rows in lexicographic (i, j)
    order; codes are -1 for Markovian, else the region's axis index.  The
    Markovian fraction of the grid converges to the Markovian measure.

    Codes come from the polynomial test of `region_codes`; the rates are the
    reported limiting rates.  Where a row's float sum (w0 + w1) + w2 is not
    exactly 1 (4,432 rows at n = 400), `weights` holds the MixtureWeights
    renormalization w / ((w0 + w1) + w2) while uv, rates and codes come from
    the raw row, as the scan CSV always has.
    """
    points = grid_weights(n)
    uv = to_pauli_neutral_array(points)
    rates = limit_rates_array(points)
    total = (points[:, :1] + points[:, 1:2]) + points[:, 2:]
    weights = np.where(total == 1.0, points, points / total)
    return weights, uv, rates, region_codes(points)
