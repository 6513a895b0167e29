"""Independent checks of the core's closed forms, used only for verification.

No command imports this module.  It holds the action of the three Pauli
channels on 2x2 state arrays, the two-channel cross rate and the brute-force
p-scan classifier.  The closed-form Choi spectrum is the witness itself, in
`choi`; its check is LAPACK's diagonalization, `ChoiMatrix.eigenvalues`.
"""

from __future__ import annotations

import numpy as np

from .channels import AXES, SIGMA_Y, SIGMA_Z, MixtureWeights
from .channels import _check_fraction, _check_p, _require_finite
from .divisibility import NEG_TOL, RegionLabel, _label, rate_minima_over_grid

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)

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


def _divisibility(rates: np.ndarray) -> np.ndarray:
    """Region codes of an (n, 3) rate array: -1 Markovian, else axis index.

    The rule on rate values, used by the brute-force oracle: any two rates
    sum to 2 f(w_k) >= 0, so at most one falls below NEG_TOL, and the most
    negative rate names the region.
    """
    rates = np.atleast_2d(rates)
    return np.where((rates < NEG_TOL).any(axis=1), np.argmin(rates, axis=1), -1)


def classify_by_rate_scan(w: MixtureWeights) -> RegionLabel:
    """Brute-force verdict: minimize the analytic rates over a dense p grid.

    Independent of the limiting-rate shortcut; `classify` must agree with
    this on every input.  The reported rates are the grid minima per axis.
    """
    rates = rate_minima_over_grid(w.as_array())
    return _label(int(_divisibility(rates)[0]), rates[0])
