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

The finite-difference rates that check these closed forms live in `oracles`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channels import MixtureWeights, _require_finite, three_mix_eigenvalues

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


def __getattr__(name):
    # forwards perfbench/verify_scalar.py's imports to `oracles`; ROADMAP item 13 deletes it
    if name == "finite_difference_rates":
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
