"""Intermediate maps of two-channel blends and their dynamical matrices.

The blend a Ez + (1-a) Ey evaluated at two dephasing parameters p <= q
defines an intermediate map carrying the state from p to q.  Because the
blend is Pauli-diagonal, the intermediate map is again Pauli-diagonal with
eigenvalue ratios (x1, x2, x3), and its 4x4 dynamical (Choi) matrix has a
closed form in those ratios.  A negative eigenvalue of that matrix witnesses
a not-completely-positive intermediate map and hence non-Markovianity.

Vectorization is row stacking throughout; the transfer-matrix route in
`a_matrix_choi` rebuilds the same dynamical matrix without using the
eigenvalue-ratio shortcut and serves as its independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import SIGMA_Y, SIGMA_Z, _check_fraction, _check_p, _require_finite

#: eigenvalue floor below which an intermediate map counts as NCP
WITNESS_TOL = 1e-9

MARKOVIAN_VERDICT = "MARKOVIAN"
NONMARKOVIAN_VERDICT = "NONMARKOVIAN"


def intermediate_ratios(a: float, q: float, p: float) -> tuple:
    """Eigenvalue ratios (x1, x2, x3) of the map taking the blend from p to q.

    Componentwise quotients of the blend eigenvalues at q by those at p:

        x1 = (1-2q)/(1-2p),  x2 = (1-2aq)/(1-2ap),  x3 = (1-2(1-a)q)/(1-2(1-a)p)

    Each lies in (0, 1], equal to 1 exactly when q = p.  The map must run
    forward, so q < p is rejected.
    """
    a = _check_fraction("a", a)
    q = _check_p(q, upper_open=True)
    p = _check_p(p, upper_open=True)
    if q < p:
        raise ValueError(f"intermediate map runs forward: need p <= q, got p={p}, q={q}")
    x1 = (1.0 - 2.0 * q) / (1.0 - 2.0 * p)
    x2 = (1.0 - 2.0 * a * q) / (1.0 - 2.0 * a * p)
    x3 = (1.0 - 2.0 * (1.0 - a) * q) / (1.0 - 2.0 * (1.0 - a) * p)
    return (x1, x2, x3)


@dataclass(frozen=True)
class ChoiMatrix:
    """4x4 Hermitian dynamical matrix with its eigenvalue-ratio metadata."""

    matrix: np.ndarray
    ratios: tuple

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"dynamical matrix must be 4x4, got {m.shape}")
        if not np.allclose(m, m.conj().T, atol=1e-12):
            raise ValueError("dynamical matrix is not Hermitian")
        if abs(np.trace(m).real - 2.0) > 1e-12:
            raise ValueError(f"dynamical matrix trace {np.trace(m).real!r}, expected 2")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "ratios", tuple(float(x) for x in self.ratios))

    def eigenvalues(self) -> np.ndarray:
        """Ascending numerical spectrum."""
        return np.linalg.eigvalsh(self.matrix)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])


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
    return ChoiMatrix(m, (x1, x2, x3))


def choi_eigenvalues(x1: float, x2: float, x3: float) -> np.ndarray:
    """Closed-form spectrum of choi_matrix(x1, x2, x3), ascending."""
    eigs = 0.5 * np.array(
        [1 + x3 + (x1 + x2), 1 + x3 - (x1 + x2), 1 - x3 + (x1 - x2), 1 - x3 - (x1 - x2)]
    )
    return np.sort(eigs)


def cp_ratio_bounds(x1: float, x2: float, x3: float) -> bool:
    """Complete positivity as the entrywise bound |1 +/- x3| >= |x1 +/- x2|.

    Equivalent to a nonnegative spectrum whenever |x3| <= 1, which every
    genuine eigenvalue ratio satisfies.
    """
    return abs(1 + x3) >= abs(x1 + x2) and abs(1 - x3) >= abs(x1 - x2)


def is_cp(choi: ChoiMatrix, tol: float = 1e-12) -> bool:
    """True when the numerical spectrum is nonnegative down to -tol.

    Agrees with cp_ratio_bounds up to the tolerance; the full blend at any
    single time always passes, with one exact zero eigenvalue.
    """
    return choi.min_eigenvalue() >= -tol


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the intermediate-map positivity test for one (a, q, p)."""

    a: float
    q: float
    p: float
    ratios: tuple
    min_eigenvalue: float
    verdict: str

    @property
    def nonmarkovian(self) -> bool:
        return self.verdict == NONMARKOVIAN_VERDICT


def rhp_witness(a: float, q: float, p: float, tol: float = WITNESS_TOL) -> WitnessReport:
    """Test the (p -> q) intermediate map of the blend for complete positivity.

    A negative eigenvalue beyond tol means the intermediate map is NCP and
    the blend non-Markovian.  Every genuine blend (a strictly inside (0, 1))
    admits such a pair p < q; the pure channels a in {0, 1} never do.
    """
    ratios = intermediate_ratios(a, q, p)
    min_eig = choi_matrix(*ratios).min_eigenvalue()
    verdict = NONMARKOVIAN_VERDICT if min_eig < -tol else MARKOVIAN_VERDICT
    return WitnessReport(a, q, p, ratios, min_eig, verdict)


def sweep_for_ncp(
    a: float, p: float = 0.4, steps: int = 64, tol: float = WITNESS_TOL
) -> WitnessReport:
    """Sweep q upward from p and return the most negative witness found.

    Scans q over an even grid in (p, 1/2); the returned report is the one
    with the smallest minimum eigenvalue, whether or not it crossed -tol.
    """
    _check_fraction("a", a)
    p = _check_p(p, upper_open=True)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    best = None
    for q in np.linspace(p, 0.5, steps + 2)[1:-1]:
        report = rhp_witness(a, float(q), p, tol)
        if best is None or report.min_eigenvalue < best.min_eigenvalue:
            best = report
    return best


def _vec(m: np.ndarray) -> np.ndarray:
    return np.asarray(m, dtype=complex).reshape(-1)  # row stacking


def a_matrix(a: float, p: float) -> np.ndarray:
    """Transfer matrix of the blend on row-stacked density matrices.

    Built column by column from the channel action on the matrix units, so it
    is independent of any eigenvalue bookkeeping.
    """
    a = _check_fraction("a", a)
    p = _check_p(p, upper_open=True)
    out = np.zeros((4, 4), dtype=complex)
    for j in range(4):
        unit = np.zeros((2, 2), dtype=complex)
        unit[j // 2, j % 2] = 1.0
        image = (
            (1.0 - p) * unit
            + a * p * (SIGMA_Z @ unit @ SIGMA_Z)
            + (1.0 - a) * p * (SIGMA_Y @ unit @ SIGMA_Y)
        )
        out[:, j] = _vec(image)
    return out


def _reshuffle(transfer: np.ndarray) -> np.ndarray:
    """Reorder transfer-matrix entries into the dynamical matrix.

    With row stacking, entry ((i, j), (k, l)) of the transfer matrix is entry
    ((i, k), (j, l)) of the dynamical matrix: swap the two middle indices.
    """
    return transfer.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def a_matrix_choi(a: float, q: float, p: float) -> ChoiMatrix:
    """Dynamical matrix of the intermediate map via explicit transfer matrices.

    Composes the blend at q with the numerical inverse of the blend at p and
    reshuffles.  Must agree entrywise with choi_matrix(intermediate_ratios(...));
    the ratio metadata is read back off the reshuffled matrix itself.
    """
    a = _check_fraction("a", a)
    q = _check_p(q, upper_open=True)
    p = _check_p(p, upper_open=True)
    if q < p:
        raise ValueError(f"intermediate map runs forward: need p <= q, got p={p}, q={q}")
    forward = a_matrix(a, q)
    base = a_matrix(a, p)
    if abs(np.linalg.det(base)) < 1e-14:
        raise ValueError(f"transfer matrix at p={p} is singular")
    dyn = _reshuffle(forward @ np.linalg.inv(base))
    x3 = 2.0 * dyn[0, 0].real - 1.0
    x1 = dyn[0, 3].real + dyn[1, 2].real
    x2 = dyn[0, 3].real - dyn[1, 2].real
    return ChoiMatrix(dyn, (x1, x2, x3))
