"""Single-axis Pauli dephasing channels and their convex mixtures.

Every channel handled here is unital and diagonal in the Pauli operator basis,
so a channel is fully described by the triple of factors it applies to the
three Bloch components, and all closed-form work downstream happens on those
triples.  The Pauli matrices and the explicit 2x2 action on qubit states, an
independent check of those triples, live in `pauli_simplex.oracles`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

AXES = ("X", "Y", "Z")

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


class MixtureWeights(NamedTuple("MixtureWeights", [("a", float), ("b", float), ("c", float)])):
    """Convex mixing fractions (a, b, c) of the three dephasing channels.

    The fractions must be nonnegative and sum to 1 within WEIGHT_SUM_TOL; a
    slightly off sum is renormalized (random sampling produces sums off by
    float error).
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float):
        vals = [_require_finite(n, v) for n, v in zip(("a", "b", "c"), (a, b, c))]
        if min(vals) < -WEIGHT_SUM_TOL:
            raise ValueError(f"weights must be nonnegative, got {tuple(vals)}")
        vals = [max(v, 0.0) for v in vals]
        total = sum(vals)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        return super().__new__(cls, *(v / total for v in vals))

    def __reduce__(self):
        # copies and unpickling keep the renormalized values: a second
        # renormalization could move their last bits
        return self._make, (tuple(self),)

    def _replace(self, **changes):  # validated, unlike `_make`, which `__reduce__` needs raw
        return type(self)(*super()._replace(**changes))

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])


def _check_p(p: float) -> float:
    p = _require_finite("p", p)
    if not 0.0 <= p < 0.5:
        raise ValueError(f"dephasing parameter p={p} outside [0, 1/2)")
    return p


def _check_aqp(a: float, q: float, p: float) -> tuple:
    """Validated (a, q, p) of an intermediate map, which must run forward."""
    a = _check_fraction("a", a)
    q = _check_p(q)
    p = _check_p(p)
    if q < p:
        raise ValueError(f"intermediate map runs forward: need p <= q, got p={p}, q={q}")
    return a, q, p


def three_mix_eigenvalues(w: MixtureWeights, p: float) -> np.ndarray:
    """Channel eigenvalues (lx, ly, lz) of the three-way blend a Ex + b Ey + c Ez.

    Each single-axis channel fixes its own Bloch axis and shrinks the other
    two by (1-2p), so by linearity the blend scales axis k by
    1 - 2 (1 - w_k) p.  For p in [0, 1/2) each lies in (0, 1], because
    2 (1 - w_k) p rounds to at most 2p < 1.
    """
    p = _check_p(p)
    return 1.0 - 2.0 * (1.0 - w.as_array()) * p
