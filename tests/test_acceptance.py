"""End-to-end acceptance checks, one per criterion, with stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Tolerances are fixed here and match the package contracts.
"""

import csv
import json
import math
import time

import numpy as np
from click.testing import CliRunner

from pauli_simplex.channels import MixtureWeights
from pauli_simplex.choi import a_matrix_choi, choi_matrix, intermediate_ratios, rhp_witness
from pauli_simplex.cli import cli
from pauli_simplex.divisibility import (
    NEG_TOL,
    limit_rates_array,
    rate_minima_over_grid,
    region_codes,
)
from pauli_simplex.generator import finite_difference_rates, signed_sums, three_mix_rates
from pauli_simplex.geometry import (
    BAND_EDGE,
    boundary_roots,
    grid_weights,
    monte_carlo_measures,
    total_measures,
)
from pauli_simplex.oracles import two_mix_cross_rate

MC_SAMPLES = 1_000_000
MC_SEED = 42


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {description} ... {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_criterion_1_quadrature_measure():
    start = time.perf_counter()
    reg = total_measures(tol=1e-8)
    elapsed = time.perf_counter() - start
    ok = (
        abs(reg.region_y - 0.2898) <= 1e-3
        and abs(reg.total - 0.867) <= 3e-3
        and abs(reg.markovian - 0.133) <= 3e-3
        and elapsed < 1.0
    )
    report(1, f"quadrature measures (region {reg.region_y:.6f}, total {reg.total:.6f}, "
              f"markovian {reg.markovian:.6f}, {elapsed:.3f}s)", ok)


def test_criterion_2_monte_carlo_agreement():
    start = time.perf_counter()
    mc = monte_carlo_measures(MC_SAMPLES, seed=MC_SEED)
    elapsed = time.perf_counter() - start
    quad = total_measures(tol=1e-10)
    se = [math.sqrt(r * (1 - r) / MC_SAMPLES) for r in mc.regions()]
    region_ok = all(
        abs(r - quad.region_y) <= 3 * s for r, s in zip(mc.regions(), se)
    )
    total_ok = abs(mc.total - quad.total) <= 3 * mc.error
    pair_ok = all(
        abs(mc.regions()[i] - mc.regions()[j])
        <= 3 * math.sqrt(se[i] ** 2 + se[j] ** 2)
        for i in range(3)
        for j in range(i + 1, 3)
    )
    ok = region_ok and total_ok and pair_ok and elapsed < 30.0
    report(2, f"seeded Monte Carlo vs quadrature (total {mc.total:.6f} vs "
              f"{quad.total:.6f}, {elapsed:.2f}s)", ok)


def test_criterion_3_intermediate_map_witness():
    ratios = intermediate_ratios(0.1, 0.45, 0.4)
    closed = choi_matrix(*ratios)
    oracle = a_matrix_choi(0.1, 0.45, 0.4)
    deviation = float(np.abs(closed.matrix - oracle.matrix).max())
    ok = (
        abs(closed.eigenvalues()[0] - (-0.0839)) <= 5e-4
        and abs(oracle.eigenvalues()[0] - (-0.0839)) <= 5e-4
        and deviation < 1e-12
    )
    report(3, f"intermediate-map witness (min eig {closed.eigenvalues()[0]:.6f}, "
              f"route deviation {deviation:.2e})", ok)


def test_criterion_4_two_channel_blends_never_divisible():
    start = time.perf_counter()
    grid_ok = all(
        two_mix_cross_rate(i / 100.0, j / 100.0, 1.0) < 0
        for i in range(1, 100)
        for j in range(1, 50)
    )
    rng = np.random.default_rng(2024)
    qs = np.linspace(0.4, 0.5, 66)[1:-1]  # 64 interior values of q
    sweep_ok = all(
        min(rhp_witness(float(a), float(q), 0.4).min_eigenvalue for q in qs) < -1e-9
        for a in rng.uniform(0.0, 1.0, size=100) * 0.998 + 0.001
    )
    elapsed = time.perf_counter() - start
    ok = grid_ok and sweep_ok and elapsed < 10.0
    report(4, f"cross rate negative on 99x49 grid and NCP sweep for 100 random "
              f"blends ({elapsed:.2f}s)", ok)


def test_criterion_5_pairwise_sums_and_single_negative():
    weights = grid_weights(100)  # 101 x 101 lattice restricted to the simplex
    ps = np.linspace(0.0, 0.49, 50)
    u = 1.0 - weights
    terms = u[:, None, :] / (1.0 - 2.0 * u[:, None, :] * ps[None, :, None])
    rates = signed_sums(terms)
    sums = np.stack(
        [rates[..., 0] + rates[..., 1], rates[..., 1] + rates[..., 2],
         rates[..., 2] + rates[..., 0]],
        axis=-1,
    )
    min_sum = float(sums.min())
    max_negatives = int((rates < -1e-12).sum(axis=-1).max())
    # each pairwise sum collapses to twice the complementary rate term
    collapse = float(np.abs(sums - 2.0 * terms[..., [2, 0, 1]]).max())
    ok = min_sum >= -1e-12 and max_negatives <= 1 and collapse < 1e-12
    report(5, f"pairwise rate sums >= 0 and at most one negative rate on "
              f"{weights.shape[0]} x {ps.size} points (min sum {min_sum:.2e}, "
              f"collapse identity {collapse:.2e})", ok)


def test_criterion_6_finite_difference_agreement():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        e = rng.exponential(size=3)
        w = MixtureWeights(*(e / e.sum()))
        p = float(rng.uniform(0.0, 0.499))
        fd = np.array(finite_difference_rates(w, p).as_tuple())
        an = np.array(three_mix_rates(w, p, "physical", 1.0).as_tuple())
        worst = max(worst, float(np.abs(fd - an).max() / np.abs(an).max()))
    ok = worst < 1e-5
    report(6, f"finite-difference oracle vs closed form on 1000 random points "
              f"(worst relative error {worst:.2e})", ok)


def test_criterion_7_classifier_oracle_equivalence():
    rng = np.random.default_rng(123)
    e = rng.exponential(size=(10_000, 3))
    weights = e / e.sum(axis=1, keepdims=True)
    fast = region_codes(weights)
    mins = rate_minima_over_grid(weights)
    brute = np.where((mins < NEG_TOL).any(axis=1), np.argmin(mins, axis=1), -1)
    matches = int((fast == brute).sum())

    edge_ok = abs(BAND_EDGE - (math.sqrt(5.0) - 2.0)) <= 1e-12

    residual = 0.0
    flip_ok = True
    bs = np.linspace(0.01, BAND_EDGE * 0.9, 50)
    for b, lo, hi in zip(bs, *boundary_roots(bs)):
        pts = np.array([[lo, b, 1 - b - lo], [hi, b, 1 - b - hi]])
        residual = max(residual, float(np.abs(limit_rates_array(pts)[:, 1]).max()))
        inner = region_codes(
            np.array([[lo + 1e-4, b, 1 - b - lo - 1e-4], [hi - 1e-4, b, 1 - b - hi + 1e-4]])
        )
        outer = region_codes(
            np.array([[lo - 1e-4, b, 1 - b - lo + 1e-4], [hi + 1e-4, b, 1 - b - hi - 1e-4]])
        )
        flip_ok = flip_ok and (inner == 1).all() and (outer != 1).all()

    ok = matches == 10_000 and edge_ok and residual < 1e-9 and flip_ok
    report(7, f"limit classifier vs rate-scan oracle ({matches}/10000 matches, "
              f"boundary residual {residual:.2e})", ok)


def test_criterion_8_full_map_always_cp():
    worst = 0.0
    for a in np.linspace(0.0, 1.0, 50):
        for p in np.linspace(0.0, 0.49, 50):
            choi = choi_matrix(*intermediate_ratios(float(a), float(p), 0.0))
            worst = min(worst, choi.eigenvalues()[0])
    ok = worst >= -1e-12
    report(8, f"full blend map PSD on 50x50 grid (worst eigenvalue {worst:.2e})", ok)


def test_criterion_9_cli_scan_and_reproducibility(tmp_path):
    runner = CliRunner()
    first = tmp_path / "scan1.csv"
    second = tmp_path / "scan2.csv"
    for path in (first, second):
        result = runner.invoke(cli, ["scan", "--n", "400", "--out", str(path)])
        assert result.exit_code == 0, result.output
    identical = first.read_bytes() == second.read_bytes()

    with open(first, newline="") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    n_rows = len(body)
    markovian = sum(row[5] == "MARKOVIAN" for row in body)
    fraction = markovian / n_rows
    csv_ok = (
        rows[0][:7] == ["a", "b", "c", "u", "v", "label", "region"]
        and n_rows == 401 * 402 // 2
    )

    mc_args = ["measure", "--method", "mc", "--samples", "100000", "--seed", "9", "--json"]
    out_a = runner.invoke(cli, mc_args).output
    out_b = runner.invoke(cli, mc_args).output
    seeded_ok = out_a == out_b and json.loads(out_a)["seed"] == 9

    ok = identical and csv_ok and abs(fraction - 0.133) <= 0.01 and seeded_ok
    report(9, f"CLI scan --n 400 (markovian fraction {fraction:.4f}, "
              f"{n_rows} rows, bit-identical reruns {identical})", ok)
