"""Intermediate maps of two-channel blends and their dynamical matrices.

The blend a Ez + (1-a) Ey evaluated at two dephasing parameters p <= q
defines an intermediate map carrying the state from p to q.  Because the
blend is Pauli-diagonal, the intermediate map is again Pauli-diagonal with
eigenvalue ratios (x1, x2, x3), and its 4x4 dynamical (Choi) matrix and that
matrix's spectrum have closed forms in those ratios.  A negative eigenvalue
witnesses a not-completely-positive intermediate map and hence
non-Markovianity; the witness reads it from the closed-form spectrum.

The matrix itself, and the transfer-matrix route that rebuilds it without
the eigenvalue-ratio shortcut, are checks: they live in `oracles`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channels import _check_aqp
from .divisibility import MARKOVIAN, NONMARKOVIAN

#: eigenvalue floor below which an intermediate map counts as NCP
WITNESS_TOL = 1e-9


def intermediate_ratios(a: float, q: float, p: float) -> tuple:
    """Eigenvalue ratios (x1, x2, x3) of the map taking the blend from p to q.

    Componentwise quotients of the blend eigenvalues at q by those at p:

        x1 = (1-2q)/(1-2p),  x2 = (1-2aq)/(1-2ap),  x3 = (1-2(1-a)q)/(1-2(1-a)p)

    Each lies in (0, 1], equal to 1 exactly when q = p.  The map must run
    forward, so q < p is rejected.
    """
    a, q, p = _check_aqp(a, q, p)
    x1 = (1.0 - 2.0 * q) / (1.0 - 2.0 * p)
    x2 = (1.0 - 2.0 * a * q) / (1.0 - 2.0 * a * p)
    x3 = (1.0 - 2.0 * (1.0 - a) * q) / (1.0 - 2.0 * (1.0 - a) * p)
    return (x1, x2, x3)


def choi_eigenvalues(x1: float, x2: float, x3: float) -> np.ndarray:
    """Closed-form spectrum of oracles.choi_matrix(x1, x2, x3), ascending: the witness.

    Nonnegative exactly when |x1 +/- x2| <= 1 +/- x3.  It takes only +, - and
    /2, so it is exact for exact inputs: given fractions.Fraction ratios it
    returns an object array of Fractions.
    """
    eigs = np.array(
        [1 + x3 + (x1 + x2), 1 + x3 - (x1 + x2), 1 - x3 + (x1 - x2), 1 - x3 - (x1 - x2)]
    ) / 2
    return np.sort(eigs)


class WitnessReport(NamedTuple):
    """Positivity test of one intermediate map: its ratios and ascending Choi spectrum."""

    ratios: tuple
    eigenvalues: tuple
    verdict: str

    @property
    def min_eigenvalue(self) -> float:
        return self.eigenvalues[0]

    @property
    def nonmarkovian(self) -> bool:
        return self.verdict == NONMARKOVIAN


def rhp_witness(a: float, q: float, p: float) -> WitnessReport:
    """Test the (p -> q) intermediate map of the blend for complete positivity.

    A negative eigenvalue beyond WITNESS_TOL means the intermediate map is
    NCP and the blend non-Markovian: the divisibility criterion of Rivas,
    Huelga and Plenio (PRL 105, 050403, 2010).  Every genuine blend (a
    strictly inside (0, 1)) admits such a pair p < q; the pure channels a in
    {0, 1} never do.  At (a, q, p) = (1/10, 9/20, 2/5) the smallest
    eigenvalue is exactly -27/322.
    """
    ratios = intermediate_ratios(a, q, p)
    eigs = tuple(choi_eigenvalues(*ratios).tolist())
    verdict = NONMARKOVIAN if eigs[0] < -WITNESS_TOL else MARKOVIAN
    return WitnessReport(ratios, eigs, verdict)


def __getattr__(name):
    # forwards perfbench/verify_scalar.py's imports to `oracles`; ROADMAP item 13 deletes it
    if name in ("a_matrix_choi", "choi_matrix"):
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
