"""Qubit states, single-axis Pauli dephasing channels, and their convex mixtures.

Every channel handled here is unital and diagonal in the Pauli operator basis,
so a channel is fully described by the triple of factors it applies to the
three Bloch components.  All closed-form work downstream happens on those
triples; the explicit 2x2 matrix action is kept as an independent cross-check
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

AXES = ("X", "Y", "Z")

#: absolute tolerance used by all state validity checks
STATE_TOL = 1e-12

#: tolerance on the weight sum accepted by MixtureWeights
WEIGHT_SUM_TOL = 1e-12


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_fraction(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"mixing fraction {name}={value} outside [0, 1]")
    return value


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


@dataclass(frozen=True)
class MixtureWeights:
    """Convex mixing fractions (a, b, c) of the three dephasing channels.

    The fractions must be nonnegative and sum to 1 within WEIGHT_SUM_TOL; a
    slightly off sum is renormalized (random sampling produces sums off by
    float error).
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        vals = [
            _require_finite(n, getattr(self, n)) for n in ("a", "b", "c")
        ]
        if min(vals) < -WEIGHT_SUM_TOL:
            raise ValueError(f"weights must be nonnegative, got {tuple(vals)}")
        vals = [max(v, 0.0) for v in vals]
        total = sum(vals)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        for name, v in zip(("a", "b", "c"), vals):
            object.__setattr__(self, name, v / total)

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])


def _check_p(p: float, *, upper_open: bool) -> float:
    p = _require_finite("p", p)
    if p < 0 or (p >= 0.5 if upper_open else p > 0.5):
        bound = "[0, 1/2)" if upper_open else "[0, 1/2]"
        raise ValueError(f"dephasing parameter p={p} outside {bound}")
    return p


def apply_pauli_channel(rho: DensityMatrix, axis: str, p: float) -> DensityMatrix:
    """Apply (1-p) rho + p sigma_k rho sigma_k for the given axis k.

    p may reach 1/2 here (the infinite-time limit of the semigroup), unlike
    the generator-side operations which need p strictly below 1/2.
    """
    if axis not in PAULI:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    p = _check_p(p, upper_open=False)
    sigma = PAULI[axis]
    return DensityMatrix((1.0 - p) * rho.matrix + p * (sigma @ rho.matrix @ sigma))


def apply_eigenvalue_map(rho: DensityMatrix, eigs: np.ndarray) -> DensityMatrix:
    """Apply a Pauli-diagonal channel by rescaling the Bloch components."""
    return DensityMatrix.from_bloch(BlochVector(*(eigs * rho.bloch().as_array()).tolist()))


def three_mix_eigenvalues(w: MixtureWeights, p: float) -> np.ndarray:
    """Channel eigenvalues (lx, ly, lz) of the three-way blend a Ex + b Ey + c Ez.

    Each single-axis channel fixes its own Bloch axis and shrinks the other
    two by (1-2p), so by linearity the blend scales axis k by
    1 - 2 (1 - w_k) p.  For p in [0, 1/2) each lies in (0, 1], because
    2 (1 - w_k) p rounds to at most 2p < 1.
    """
    p = _check_p(p, upper_open=True)
    return 1.0 - 2.0 * (1.0 - w.as_array()) * p
