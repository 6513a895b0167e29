"""Time-local decay rates of dephasing-channel mixtures.

The three-way blend stays Pauli-diagonal, so its generator is a combination
of the three dephasing dissipators with time-dependent rates.  Rates come in
two normalizations:

* ``"reduced"``  - the common positive prefactor pdot/2 is dropped; signs and
  zero crossings are unchanged and every classification works on these.
* ``"physical"`` - units of 1/time; requires the decay constant r of the
  underlying semigroups.  These are the rates g_k of the generator
  sum_k g_k (sigma_k rho sigma_k - rho).  The blend (1/2, 1/2, 0) with r = 2
  has physical rates (1/2, 1/2, -tanh(t)/2): the eternally non-Markovian
  rates (1, 1, -tanh t) of Hall, Cresser, Li and Andersson (PRA 89, 042120,
  2014), written there as (1/2) sum_k gamma_k (sigma_k rho sigma_k - rho),
  obtained by mixing Pauli semigroups as in Megier, Chruscinski, Piilo and
  Strunz (Sci. Rep. 7, 6379, 2017).

A central-finite-difference extraction of the rates from the channel
eigenvalues is provided as an independent oracle for the closed forms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channels import (
    MixtureWeights, _check_p, _require_finite, three_mix_eigenvalues,
)

CONVENTIONS = ("reduced", "physical")


class DecayRates(NamedTuple):
    """Generator decay rates for the x, y, z dissipators."""

    gx: float
    gy: float
    gz: float

    def as_tuple(self) -> tuple:
        return tuple(self)


def physical_scale(r: float, p: float) -> float:
    """pdot/2, the factor that turns reduced rates into physical ones."""
    r = _require_finite("r", r)
    if r <= 0:
        raise ValueError(f"decay constant r must be > 0, got {r}")
    return 0.5 * (0.5 * r * (1.0 - 2.0 * p))


def signed_sums(f: np.ndarray) -> np.ndarray:
    """(-fx + fy) + fz, (fx - fy) + fz and (fx + fy) - fz over the last axis of f.

    The sign pattern that turns the three rate terms into the reduced rates
    (gx, gy, gz), and the pairwise rate sums back into the rates, in one
    fixed summation order.
    """
    fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
    return np.stack([(-fx + fy) + fz, (fx - fy) + fz, (fx + fy) - fz], axis=-1)


def three_mix_rates(
    w: MixtureWeights, p: float, convention: str = "reduced", r: float | None = None
) -> DecayRates:
    """Decay rates of the blend a Ex + b Ey + c Ez at dephasing parameter p.

    Weight w has the rate term f(w) = (1-w) / (1 - 2(1-w)p), its complement
    over its axis' channel eigenvalue: nonnegative, 1-w at p=0 and strictly
    increasing in p if w < 1.  The reduced rate of axis k is the other two
    axes' terms minus its own, e.g. gx = -f(a) + f(b) + f(c), so (2a, 2b, 2c)
    at p=0.  The physical normalization multiplies by pdot/2 and requires r.
    """
    gx, gy, gz = signed_sums((1.0 - w.as_array()) / three_mix_eigenvalues(w, p)).tolist()
    if convention == "reduced":
        return DecayRates(gx, gy, gz)
    if convention == "physical":
        if r is None:
            raise ValueError("physical rates need the decay constant r")
        scale = physical_scale(r, p)
        return DecayRates(scale * gx, scale * gy, scale * gz)
    raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


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
