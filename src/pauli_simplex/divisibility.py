"""Markovianity classification of dephasing-channel blends.

Each reduced decay rate is monotone once it turns negative, so a blend is CP
divisible exactly when all three rates are still nonnegative in the p -> 1/2
limit.  The limiting rate of axis k is 1/w_i + 1/w_j - 1/w_k - 1; times
w_i w_j w_k it is the polynomial w_k (w_i + w_j) - w_i w_j (1 + w_k).
Classification is the sign pattern of these three polynomials: no division,
no +/-inf, and exact on simplex edges and vertices.  The limiting rates
themselves, in extended-real arithmetic, are only computed for reporting.
The tests certify the monotonicity lemma and this limiting-rate shortcut
against `oracles.exact_negative_axes`, which decides the sign of each rate
at every finite p in integers and uses neither.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channels import AXES, MixtureWeights
from .generator import signed_sums

#: decides nothing; kept only for perfbench/verify_scalar.py's import until ROADMAP item 13
NEG_TOL = -1e-12

MARKOVIAN = "MARKOVIAN"
NONMARKOVIAN = "NONMARKOVIAN"

#: label and region of each region code, indexed by code + 1
LABELS = np.array([MARKOVIAN, NONMARKOVIAN, NONMARKOVIAN, NONMARKOVIAN], dtype=object)
REGIONS = np.array(["", *AXES], dtype=object)


class RegionLabel(NamedTuple):
    """Verdict for one blend: divisible, or which rate turns negative."""

    tag: str
    region: str | None
    limit_rates: tuple


#: exact power-of-two scale that keeps (1 - w)/w finite for subnormal w
_SCALE = 2.0**64

#: largest scaled rate whose unscaled value is still finite
_SCALED_MAX = np.finfo(float).max / _SCALE


def limit_rates_array(weights: np.ndarray) -> np.ndarray:
    """Limiting reduced rates at p -> 1/2 for an (n, 3) array of weights.

    Each rate term tends to (1 - w)/w, which diverges as a weight goes to 0.
    Zero-weight terms are all the same divergent function of p, so their
    signed multiplicity decides the limit: positive multiplicity gives +inf,
    negative gives -inf, and an exact cancellation (two zero weights) leaves
    the finite remainder.  The terms are summed scaled by 2**-64, which is
    exact, so a nonzero weight too small for (1 - w)/w to be finite still
    gives a correctly signed +/-inf, or the finite sum where equal diverging
    terms cancel.  Returns an (n, 3) array that may contain +/-inf.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    zero = w == 0.0
    g = np.zeros_like(w)
    np.divide(1.0 - w, w * _SCALE, out=g, where=~zero)
    scaled = signed_sums(g)
    finite = np.copysign(np.inf, scaled)
    np.multiply(scaled, _SCALE, out=finite, where=np.abs(scaled) <= _SCALED_MAX)
    coeff = signed_sums(zero.astype(float))
    return np.where(coeff > 0, np.inf, np.where(coeff < 0, -np.inf, finite))


def _label(code: int, rates: np.ndarray) -> RegionLabel:
    """Verdict of one blend from its region code and its reported rates."""
    return RegionLabel(LABELS[code + 1], REGIONS[code + 1] or None, tuple(float(g) for g in rates))


def region_codes(weights: np.ndarray, work: tuple | None = None) -> np.ndarray:
    """Classify rows of an (n, 3) weight array; -1 Markovian, else axis index.

    Axis k is negative when its limiting rate, scaled by w_i w_j w_k, is
    below 0 in floats.  With w_i >= w_j the scaled rate is evaluated as
    w_i (w_k - w_j) + w_j w_k (1 - w_i), a form without cancellation near
    the vertices where the plain w_k (w_i + w_j) - w_i w_j (1 + w_k) rounds
    to either sign.  A scaled rate that is exactly zero is not negative, so
    boundary points and vertices are Markovian and the weight-zero edge
    w_k = 0 (with w_i, w_j > 0) is region k.  Within rounding of the
    zero-rate curve the float sign may differ from the exact one.

    Only the axis of a row's strict minimum can be negative, even in floats.
    On any other axis k, w_k is at least the smaller of w_i, w_j, so w_k -
    w_j rounds to >= 0; every other factor is >= 0 on the simplex, so the
    float scaled rate is >= 0.  So each row is sorted into lo <= mid <= hi
    and only the lo axis is tested, with the same operands in the same
    order: hi (lo - mid) + (mid lo) (1 - hi) < 0.  A tie at the minimum
    gives lo - mid = 0 and never flags.  The column reads are contiguous
    when the array is column-major, as `geometry.sample_simplex` returns it.

    Every step writes into scratch: four float columns, two bool masks and
    an int8 code column, which is returned.  Without `work` they are
    allocated for the call.  With `work`, a tuple (floats, masks, codes) of
    float64 (4, m), bool (2, m) and int8 (m,) arrays with m >= n, nothing is
    allocated and the codes come back as codes[:n], a view that the next call
    with the same `work` overwrites.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    n = len(w)
    if work is None:
        floats, masks = np.empty((4, n)), np.empty((2, n), dtype=bool)
        codes = np.empty(n, dtype=np.int8)
    else:
        floats, masks, codes = work
    a, b, c = w[:, 0], w[:, 1], w[:, 2]
    lo, hi, mid, scaled = floats[:, :n]
    below, flag, axis = masks[0, :n], masks[1, :n], codes[:n]
    np.minimum(a, b, out=lo)  # the smaller of a, b until lo is formed
    np.maximum(a, b, out=hi)  # the larger of a, b until hi is formed
    # the axis of lo: 2 where c is below both others, else 1 where b < a
    np.less(b, a, out=flag)
    np.less(c, lo, out=below)
    np.add(below, below, out=axis, dtype=np.int8)
    np.maximum(axis, flag, out=axis)
    np.minimum(hi, c, out=mid)
    np.maximum(lo, mid, out=mid)
    np.minimum(lo, c, out=lo)
    np.maximum(hi, c, out=hi)
    # scaled = hi (lo - mid) + (mid lo) (1 - hi) against 0
    np.subtract(lo, mid, out=scaled)
    np.multiply(hi, scaled, out=scaled)
    np.multiply(mid, lo, out=mid)
    np.subtract(1.0, hi, out=lo)
    np.multiply(mid, lo, out=mid)
    np.add(scaled, mid, out=scaled)
    np.less(scaled, 0.0, out=flag)
    # negative (axis + 1) - 1
    np.add(axis, 1, out=axis)
    np.multiply(flag, axis, out=axis)
    np.subtract(axis, 1, out=axis)
    return axis


def classify(w: MixtureWeights) -> RegionLabel:
    """Label a blend Markovian or non-Markovian with its region identity.

    The region comes from the polynomial test of `region_codes`; the limiting
    rates are reported alongside.  The Markovian set is closed: a limiting
    rate that merely reaches zero never goes negative at finite p, so
    boundary points count as Markovian.
    """
    weights = w.as_array()
    return _label(int(region_codes(weights)[0]), limit_rates_array(weights)[0])


def __getattr__(name):
    # forwards perfbench/verify_scalar.py's imports to `oracles`; ROADMAP item 13 deletes it
    if name == "rate_minima_over_grid":
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
