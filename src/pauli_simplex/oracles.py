"""Independent checks of the core's closed forms, used only for verification.

No command imports this module.  It holds the 2x2 state action of the three
Pauli channels, the closed-form Choi spectrum, the two-channel cross rate and
the brute-force p-scan classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import AXES, SIGMA_Y, SIGMA_Z, MixtureWeights
from .channels import _check_fraction, _check_p, _require_finite
from .divisibility import NEG_TOL, RegionLabel, _label, rate_minima_over_grid

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)

PAULI = {"X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

#: absolute tolerance used by all state validity checks
STATE_TOL = 1e-12


@dataclass(frozen=True)
class BlochVector:
    """Point of the Bloch ball, components dimensionless."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        for name in ("a1", "a2", "a3"):
            _require_finite(name, getattr(self, name))
        if self.norm() > 1.0 + STATE_TOL:
            raise ValueError(f"Bloch vector has length {self.norm():.6g} > 1")

    def norm(self) -> float:
        return math.sqrt(self.a1**2 + self.a2**2 + self.a3**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.a3])


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 qubit state: Hermitian, unit trace, positive up to STATE_TOL."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {m.shape}")
        if not np.allclose(m, m.conj().T, atol=STATE_TOL):
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > STATE_TOL or abs(np.trace(m).imag) > STATE_TOL:
            raise ValueError(f"density matrix trace is {np.trace(m):.6g}, expected 1")
        if np.linalg.eigvalsh(m).min() < -STATE_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_bloch(cls, bloch: BlochVector) -> "DensityMatrix":
        m = 0.5 * (
            IDENTITY + bloch.a1 * SIGMA_X + bloch.a2 * SIGMA_Y + bloch.a3 * SIGMA_Z
        )
        return cls(m)

    def bloch(self) -> BlochVector:
        return BlochVector(
            np.trace(self.matrix @ SIGMA_X).real,
            np.trace(self.matrix @ SIGMA_Y).real,
            np.trace(self.matrix @ SIGMA_Z).real,
        )


MAXIMALLY_MIXED = DensityMatrix(0.5 * IDENTITY)


def apply_pauli_channel(rho: DensityMatrix, axis: str, p: float) -> DensityMatrix:
    """Apply (1-p) rho + p sigma_k rho sigma_k for the given axis k.

    p may reach 1/2 here (the infinite-time limit of the semigroup), unlike
    the generator-side operations which need p strictly below 1/2.
    """
    if axis not in PAULI:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    p = _require_finite("p", p)
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"dephasing parameter p={p} outside [0, 1/2]")
    sigma = PAULI[axis]
    return DensityMatrix((1.0 - p) * rho.matrix + p * (sigma @ rho.matrix @ sigma))


def apply_eigenvalue_map(rho: DensityMatrix, eigs: np.ndarray) -> DensityMatrix:
    """Apply a Pauli-diagonal channel by rescaling the Bloch components."""
    return DensityMatrix.from_bloch(BlochVector(*(eigs * rho.bloch().as_array()).tolist()))


def choi_eigenvalues(x1: float, x2: float, x3: float) -> np.ndarray:
    """Closed-form spectrum of choi_matrix(x1, x2, x3), ascending.

    The exact oracle for the numerical spectrum that rhp_witness tests: it is
    nonnegative exactly when |x1 +/- x2| <= 1 +/- x3.  Exact for exact
    inputs: given fractions.Fraction ratios it returns an object array of
    Fractions.
    """
    eigs = np.array(
        [1 + x3 + (x1 + x2), 1 + x3 - (x1 + x2), 1 - x3 + (x1 - x2), 1 - x3 - (x1 - x2)]
    ) / 2
    return np.sort(eigs)


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
