"""Time-local decay rates of dephasing-channel mixtures.

The three-way blend stays Pauli-diagonal, so its generator is a combination
of the three dephasing dissipators with time-dependent rates.  Rates come in
two normalizations:

* ``"reduced"``  - the common positive prefactor pdot/2 is dropped; signs and
  zero crossings are unchanged and every classification works on these.
* ``"physical"`` - units of 1/time; requires the decay constant r of the
  underlying semigroups.

A central-finite-difference extraction of the rates from the channel
eigenvalues is provided as an independent oracle for the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    MixtureWeights, _check_fraction, _check_p, _require_finite, three_mix_eigenvalues,
)

CONVENTIONS = ("reduced", "physical")


@dataclass(frozen=True)
class DecayRates:
    """Generator decay rates for the x, y, z dissipators."""

    gx: float
    gy: float
    gz: float
    convention: str = "reduced"

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")

    def as_tuple(self) -> tuple:
        return (self.gx, self.gy, self.gz)

    def pairwise_sums(self) -> tuple:
        """(gx+gy, gy+gz, gz+gx); each is nonnegative for every blend."""
        return (self.gx + self.gy, self.gy + self.gz, self.gz + self.gx)


def rate_term(alpha: float, p: float) -> float:
    """Contribution (1-alpha) / (1 - 2(1-alpha)p) of one mixing fraction.

    Nonnegative for p in [0, 1/2) and alpha in [0, 1], equal to 1-alpha at
    p=0, and strictly increasing in p whenever alpha < 1.  Each reduced decay
    rate is a signed sum of three of these terms.
    """
    alpha = _check_fraction("alpha", alpha)
    p = _check_p(p, upper_open=True)
    return (1.0 - alpha) / (1.0 - 2.0 * (1.0 - alpha) * p)


def _pdot(r: float, p: float) -> float:
    r = _require_finite("r", r)
    if r <= 0:
        raise ValueError(f"decay constant r must be > 0, got {r}")
    return 0.5 * r * (1.0 - 2.0 * p)


def three_mix_rates(
    w: MixtureWeights, p: float, convention: str = "reduced", r: float | None = None
) -> DecayRates:
    """Decay rates of the blend a Ex + b Ey + c Ez at dephasing parameter p.

    In the reduced normalization the rate of axis k is the sum of the other
    two axes' rate terms minus its own, e.g. gx = -f(a) + f(b) + f(c); at
    p=0 this gives (2a, 2b, 2c).  The physical normalization multiplies by
    pdot/2 and requires r.
    """
    p = _check_p(p, upper_open=True)
    fa = rate_term(w.a, p)
    fb = rate_term(w.b, p)
    fc = rate_term(w.c, p)
    gx = -fa + fb + fc
    gy = fa - fb + fc
    gz = fa + fb - fc
    if convention == "reduced":
        return DecayRates(gx, gy, gz, "reduced")
    if convention == "physical":
        if r is None:
            raise ValueError("physical rates need the decay constant r")
        scale = 0.5 * _pdot(r, p)
        return DecayRates(scale * gx, scale * gy, scale * gz, "physical")
    raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def two_mix_cross_rate(a: float, p: float, pdot: float) -> float:
    """Rate picked up by the unmixed x axis when blending a Ez + (1-a) Ey.

    Closed form

        -[(1-a) a (1-p) p] / [(1-2p)(1 - 2(1-a)p)(1 - 2ap)] * pdot

    which is strictly negative for a in (0, 1) and p in (0, 1/2), and zero on
    the boundary of that square: any genuine two-channel blend is CP
    indivisible.  The generator extraction for the same blend yields exactly
    twice this value; the two agree in sign everywhere, which is all the
    classification uses.
    """
    a = _check_fraction("a", a)
    p = _check_p(p, upper_open=True)
    pdot = _require_finite("pdot", pdot)
    if pdot <= 0:
        raise ValueError(f"pdot must be > 0, got {pdot}")
    num = (1.0 - a) * a * (1.0 - p) * p
    den = (1.0 - 2.0 * p) * (1.0 - 2.0 * (1.0 - a) * p) * (1.0 - 2.0 * a * p)
    return -(num / den) * pdot


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
    p = _check_p(p, upper_open=True)
    h = _require_finite("h", h)
    if h <= 0:
        raise ValueError(f"step h must be > 0, got {h}")
    if p + h >= 0.5:
        raise ValueError(f"step p+h={p + h} reaches the p=1/2 boundary")

    def log_eigs(q: float) -> np.ndarray:
        return np.log(three_mix_eigenvalues(w, q).as_array())

    if p - h >= 0.0:
        dlog_dp = (log_eigs(p + h) - log_eigs(p - h)) / (2.0 * h)
    else:
        # one-sided second-order stencil keeps accuracy at the p=0 boundary
        dlog_dp = (
            -3.0 * log_eigs(p) + 4.0 * log_eigs(p + h) - log_eigs(p + 2.0 * h)
        ) / (2.0 * h)

    u = -0.5 * dlog_dp * _pdot(r, p)  # u[k] = g_i + g_j for the other two axes
    gx = 0.5 * (-u[0] + u[1] + u[2])
    gy = 0.5 * (u[0] - u[1] + u[2])
    gz = 0.5 * (u[0] + u[1] - u[2])
    return DecayRates(gx, gy, gz, "physical")
