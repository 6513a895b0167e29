"""The verify_scalar workload: per-call library paths checked against oracles.

Usage: python3 perfbench/verify_scalar.py INPUTS.npz

Reads the seeded inputs that run.py generated and prints one JSON line of
check results.  Each batch of calls sits in a span (a no-op unless traced.py
passes a tracer's span), so the untraced and traced runs do the same work.
"""

from __future__ import annotations

import contextlib
import json
import sys

import numpy as np

from pauli_simplex.channels import AXES, MixtureWeights
from pauli_simplex.choi import a_matrix_choi, choi_matrix, rhp_witness
from pauli_simplex.divisibility import NEG_TOL, classify, rate_minima_over_grid
from pauli_simplex.generator import finite_difference_rates, three_mix_rates
from pauli_simplex.geometry import total_measures

QUAD_TOL = 1e-14


def _no_span(name, **attrs):
    return contextlib.nullcontext()


def run(inputs, span=_no_span) -> dict:
    """Run every batch and return the raw check values (judged by run.py)."""
    weights = inputs["weights"].tolist()
    rate_weights = inputs["rate_weights"].tolist()
    rate_p = inputs["rate_p"].tolist()
    triples = list(zip(*(inputs[k].tolist() for k in ("choi_a", "choi_q", "choi_p"))))

    with span("channels.weights", calls=len(weights) + len(rate_weights)):
        ws = [MixtureWeights(*row) for row in weights]
        rws = [MixtureWeights(*row) for row in rate_weights]
    with span("divisibility.classify", calls=len(ws)):
        labels = [classify(w) for w in ws]
    with span("divisibility.rate_minima", calls=1):
        mins = rate_minima_over_grid(inputs["weights"])
    with span("generator.rates", calls=len(rws)):
        analytic = [three_mix_rates(w, p, "physical", 1.0) for w, p in zip(rws, rate_p)]
    with span("generator.fd_rates", calls=len(rws)):
        # the step the CLI `rates` command uses
        fd = [
            finite_difference_rates(w, p, h=min(1e-6, max((0.5 - p) / 4.0, 1e-12)))
            for w, p in zip(rws, rate_p)
        ]
    with span("choi.witness", calls=len(triples)):
        witnesses = [rhp_witness(a, q, p) for a, q, p in triples]
    with span("choi.oracle", calls=len(triples)):
        oracles = [a_matrix_choi(a, q, p) for a, q, p in triples]
    with span("geometry.quad", calls=1):
        quad = total_measures(tol=QUAD_TOL)

    fast = np.array([-1 if lab.region is None else AXES.index(lab.region) for lab in labels])
    brute = np.where((mins < NEG_TOL).any(axis=1), np.argmin(mins, axis=1), -1)
    fd_delta = max(
        abs(f - g) for x, y in zip(fd, analytic) for f, g in zip(x.as_tuple(), y.as_tuple())
    )
    deviation = max(
        float(np.abs(choi_matrix(*w.ratios).matrix - o.matrix).max())
        for w, o in zip(witnesses, oracles)
    )
    return {
        "classified": len(labels),
        "disagreements": int((fast != brute).sum()),
        "rate_pairs": len(fd),
        "fd_max_delta": fd_delta,
        "choi_triples": len(oracles),
        "choi_max_deviation": deviation,
        "quad_region": quad.region_y,
        "quad_error": quad.error,
        "witness_anchor": rhp_witness(0.1, 0.45, 0.4).min_eigenvalue,
    }


def main() -> None:
    with np.load(sys.argv[1]) as npz:
        inputs = dict(npz)
    print(json.dumps(run(inputs)))


if __name__ == "__main__":
    main()
