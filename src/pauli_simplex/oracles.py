"""Independent checks of the core's closed forms, used only for verification.

Only `rates` and `choi --oracle` load it: the Pauli channels' 2x2 action, the
two-channel cross rate, finite-difference rates, the exact finite-p verdict,
and the Choi matrices, on which LAPACK checks the closed-form witness spectrum.

The exact verdict decides the sign of every reduced rate at every p in
integers, with neither the limiting-rate shortcut nor the monotonicity
lemma of `divisibility`, so the tests that compare it with `region_codes`
certify the lemma and the shortcut too.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channels import AXES, MixtureWeights, three_mix_eigenvalues
from .channels import _check_aqp, _check_fraction, _check_p, _require_finite
from .generator import DecayRates, physical_scale, signed_sums

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def bloch_state(r) -> np.ndarray:
    """The 2x2 qubit state (I + r_x X + r_y Y + r_z Z)/2 of Bloch vector r."""
    rx, ry, rz = r
    return 0.5 * (IDENTITY + rx * SIGMA_X + ry * SIGMA_Y + rz * SIGMA_Z)


def apply_pauli_channel(rho: np.ndarray, axis: str, p: float) -> np.ndarray:
    """Apply (1-p) rho + p sigma_k rho sigma_k to a 2x2 array, k the given axis.

    p may reach 1/2 here (the infinite-time limit of the semigroup), unlike
    the generator-side operations which need p strictly below 1/2.
    """
    if axis not in PAULI:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    p = _require_finite("p", p)
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"dephasing parameter p={p} outside [0, 1/2]")
    sigma = PAULI[axis]
    return (1.0 - p) * rho + p * (sigma @ rho @ sigma)


def two_mix_cross_rate(a: float, p: float, pdot: float) -> float:
    """Physical rate picked up by the unmixed x axis when blending a Ez + (1-a) Ey.

    Closed form

        -2 [(1-a) a (1-p) p] / [(1-2p)(1 - 2(1-a)p)(1 - 2ap)] * pdot

    which is strictly negative for a in (0, 1) and p in (0, 1/2), and zero on
    the boundary of that square: any genuine two-channel blend is CP
    indivisible.  Equal to the x rate of three_mix_rates for the same blend
    in the physical convention, with r chosen so that dp/dt = pdot.
    """
    a = _check_fraction("a", a)
    p = _check_p(p)
    pdot = _require_finite("pdot", pdot)
    if pdot <= 0:
        raise ValueError(f"pdot must be > 0, got {pdot}")
    num = (1.0 - a) * a * (1.0 - p) * p
    den = (1.0 - 2.0 * p) * (1.0 - 2.0 * (1.0 - a) * p) * (1.0 - 2.0 * a * p)
    return -2.0 * (num / den) * pdot


def finite_difference_rates(
    w: MixtureWeights, p: float, h: float = 1e-6, r: float = 1.0
) -> DecayRates:
    """Physical decay rates extracted numerically from the channel eigenvalues.

    For a Pauli-diagonal evolution the pairwise rate sums are fixed by the
    logarithmic derivatives of the eigenvalues,

        g_i + g_j = -(1/2) d ln(lambda_k) / dt   (k the remaining axis),

    so the rates follow from central differences of ln(lambda) over p and the
    chain rule through pdot.  A forward difference is used when p - h would
    leave the domain.  Independent of the closed forms; used to validate them.
    """
    p = _check_p(p)
    h = _require_finite("h", h)
    if h <= 0:
        raise ValueError(f"step h must be > 0, got {h}")
    central = p - h >= 0.0  # else the forward stencil, which reaches p+2h
    step, reach = ("p+h", p + h) if central else ("p+2h", p + 2.0 * h)
    if reach >= 0.5:
        raise ValueError(f"step {step}={reach} reaches the p=1/2 boundary")

    def log_eigs(q: float) -> np.ndarray:
        return np.log(three_mix_eigenvalues(w, q))

    if central:
        dlog_dp = (log_eigs(p + h) - log_eigs(p - h)) / (2.0 * h)
    else:
        # one-sided second-order stencil keeps accuracy at the p=0 boundary
        dlog_dp = (
            -3.0 * log_eigs(p) + 4.0 * log_eigs(p + h) - log_eigs(p + 2.0 * h)
        ) / (2.0 * h)

    u = -dlog_dp * physical_scale(r, p)  # u[k] = g_i + g_j for the other two axes
    return DecayRates(*(0.5 * signed_sums(u)).tolist())


# the p-grid stays only for perfbench/verify_scalar.py, which reads
# `rate_minima_over_grid` through the `divisibility` hook; ROADMAP item 13
# deletes both
def default_scan_grid() -> np.ndarray:
    """Dense p grid for brute-force verdicts: uniform plus a tail toward 1/2.

    A rate that first turns negative only beyond the last uniform point would
    be missed by a uniform grid (about 0.06% of the simplex lies in that
    sliver), so geometrically spaced points approaching 1/2 are appended; the
    rates stay finite on all of them.
    """
    uniform = np.linspace(0.0005, 0.4995, 1000)
    tail = 0.5 - 5e-4 * 0.5 ** np.arange(1, 41)
    return np.concatenate([uniform, tail])


def rate_minima_over_grid(weights: np.ndarray) -> np.ndarray:
    """Per-axis minima of the reduced rates over `default_scan_grid`, rows of (n, 3) weights."""
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    p = default_scan_grid()
    mins = np.empty((w.shape[0], 3))
    # chunked so the (chunk, len(p), 3) intermediate stays small
    step = 4_000_000 // (3 * p.size)
    for lo in range(0, w.shape[0], step):
        u = 1.0 - w[lo : lo + step]  # (m, 3)
        terms = u[:, None, :] / (1.0 - 2.0 * u[:, None, :] * p[None, :, None])
        rates = signed_sums(terms)  # (m, len(p), 3)
        mins[lo : lo + step] = rates.min(axis=1)
    return mins


def exact_rate_quadratics(w) -> tuple:
    """The reduced rates of one blend as exact integer quadratics in t = 2p.

    With u = 1 - w, the rate of axis k is u_i/(1 - u_i t) + u_j/(1 - u_j t)
    - u_k/(1 - u_k t); times Π_l (1 - u_l t), positive for t in [0, 1), it
    is N_k(t) = (u_i + u_j - u_k) - 2 u_i u_j t + u_i u_j u_k t^2.  The
    weights are the floats' exact binary values, not renormalized: with d
    their largest denominator, a power of two, each d u_l is an integer.
    Returns the integers (A0, A1, A2) of d^3 N_k for k = x, y, z, and
    d^3 w_x w_y w_z, the product at t = 1 on the same scale.
    """
    ratios = [float(x).as_integer_ratio() for x in w]
    d = max(den for _, den in ratios)
    u = [d - num * (d // den) for num, den in ratios]
    pairs = (u[1] * u[2], u[0] * u[2], u[0] * u[1])
    quadratics = [((sum(u) - 2 * uk) * d * d, -2 * ij * d, ij * uk) for uk, ij in zip(u, pairs)]
    return quadratics, (d - u[0]) * (d - u[1]) * (d - u[2])


def exact_negative_axes(weights: np.ndarray) -> np.ndarray:
    """Whether each axis' reduced rate is negative at some p in [0, 1/2).

    An (n, 3) bool array for (n, 3) weights: N_k of `exact_rate_quadratics`
    is negative on [0, 1) exactly when it is at t = 0, at t = 1 or at a
    minimum -A1 / (2 A2) inside, where its value is A0 - A1^2 / (4 A2).  So
    N_k(1) = 0 with no negative value inside is Markovian, the closed-set
    convention.  A row's region code is its negative axis, else -1.
    """
    rows = np.atleast_2d(np.asarray(weights, dtype=float)).tolist()
    negative = [
        [a0 < 0 or a0 + a1 + a2 < 0 or (0 < -a1 < 2 * a2 and a1 * a1 > 4 * a0 * a2)
         for a0, a1, a2 in exact_rate_quadratics(row)[0]]
        for row in rows
    ]
    return np.array(negative, dtype=bool).reshape(-1, 3)


class ChoiMatrix(NamedTuple("ChoiMatrix", [("matrix", np.ndarray)])):
    """4x4 dynamical matrix of a qubit map, held as a read-only complex array.

    The array is a copy, so the caller's own array stays writable.
    """

    __slots__ = ()

    def __new__(cls, matrix: np.ndarray):
        m = np.array(matrix, dtype=complex)
        m.flags.writeable = False
        return super().__new__(cls, m)

    def eigenvalues(self) -> np.ndarray:
        """Ascending numerical spectrum, by LAPACK."""
        return np.linalg.eigvalsh(self.matrix)


def choi_matrix(x1: float, x2: float, x3: float) -> ChoiMatrix:
    """Dynamical matrix of the Pauli-diagonal map with eigenvalues (x1, x2, x3).

    Nonzero entries sit on the diagonal and anti-diagonal only; the spectrum
    is {(1 + x3 +/- (x1 + x2))/2, (1 - x3 +/- (x1 - x2))/2}.
    """
    for name, v in (("x1", x1), ("x2", x2), ("x3", x3)):
        _require_finite(name, v)
    m = 0.5 * np.array(
        [
            [1 + x3, 0, 0, x1 + x2],
            [0, 1 - x3, x1 - x2, 0],
            [0, x1 - x2, 1 - x3, 0],
            [x1 + x2, 0, 0, 1 + x3],
        ],
        dtype=complex,
    )
    return ChoiMatrix(m)


def a_matrix(a: float, p: float) -> np.ndarray:
    """Transfer matrix of the blend on row-stacked density matrices.

    Built from the Pauli form of the channel, (1-p) rho + a p Z rho Z +
    (1-a) p Y rho Y: with row stacking, rho -> s rho s is kron(s, s.T), so it
    is independent of any eigenvalue bookkeeping.
    """
    a = _check_fraction("a", a)
    p = _check_p(p)
    return (
        (1.0 - p) * np.eye(4, dtype=complex)
        + a * p * np.kron(SIGMA_Z, SIGMA_Z.T)
        + (1.0 - a) * p * np.kron(SIGMA_Y, SIGMA_Y.T)
    )


def _reshuffle(transfer: np.ndarray) -> np.ndarray:
    """Reorder transfer-matrix entries into the dynamical matrix.

    With row stacking, entry ((i, j), (k, l)) of the transfer matrix is entry
    ((i, k), (j, l)) of the dynamical matrix: swap the two middle indices.
    """
    return transfer.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def a_matrix_choi(a: float, q: float, p: float) -> ChoiMatrix:
    """Dynamical matrix of the intermediate map via explicit transfer matrices.

    Composes the blend at q with the numerical inverse of the blend at p and
    reshuffles.  Must agree entrywise with choi_matrix(intermediate_ratios(...)).
    """
    a, q, p = _check_aqp(a, q, p)
    forward = a_matrix(a, q)
    base = a_matrix(a, p)
    if 1.0 - 2.0 * p < 1e-14:  # the smallest eigenvalue of base
        raise ValueError(f"transfer matrix at p={p} is singular")
    return ChoiMatrix(_reshuffle(forward @ np.linalg.inv(base)))
