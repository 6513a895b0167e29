"""Traced run of one workload, in process, with a span around each layer call.

Usage: python3 perfbench/traced.py WORKLOAD TMPDIR SEED NPROC

Runs the same CLI command, or the same verify_scalar batches, as the
untraced run, with the package's layer functions wrapped by tracing.Tracer.
Writes TMPDIR/trace.json: the command's exit code and stdout, the spans, and
`extra_s`, the seconds spent on measurements the untraced run does not make.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Tracer

SCAN_N = 400
SCAN_CSV = "scan.csv"
MC_SAMPLES = 10_000_000
VERIFY_INPUTS = "inputs.npz"


def scan_args(out: str) -> list:
    return ["scan", "--n", str(SCAN_N), "--out", out]


def mc_args(seed: int, threads: int) -> list:
    return [
        "measure", "--method", "mc", "--samples", str(MC_SAMPLES),
        "--seed", str(seed), "--threads", str(threads), "--json",
    ]


def _invoke(tracer: Tracer, name: str, args: list) -> dict:
    from click.testing import CliRunner

    from pauli_simplex.cli import cli

    with tracer.span(name):
        result = CliRunner().invoke(cli, args)
    return {"exit_code": result.exit_code, "stdout": result.stdout}


def trace_scan(tracer: Tracer, tmp: Path, seed: int, nproc: int) -> dict:
    from pauli_simplex import cli, geometry

    tracer.wrap(cli, "scan_grid", "geometry.scan_grid")
    tracer.wrap(geometry, "grid_weights", "geometry.grid_weights")
    tracer.wrap(geometry, "to_pauli_neutral_array", "geometry.embed")
    tracer.wrap(geometry, "limit_rates_array", "divisibility.limit_rates_array")
    out = tmp / SCAN_CSV
    report = _invoke(tracer, "cli.scan", scan_args(str(out)))
    report["scan_bytes"] = out.stat().st_size if out.exists() else 0
    return report


def trace_mc(tracer: Tracer, tmp: Path, seed: int, nproc: int) -> dict:
    from pauli_simplex import cli, geometry

    tracer.wrap(cli, "monte_carlo_measures", "geometry.monte_carlo_measures")
    tracer.wrap(geometry, "sample_simplex", "geometry.sample_simplex")
    tracer.wrap(geometry, "region_codes", "divisibility.region_codes", rows=True)
    report = _invoke(tracer, "cli.measure", mc_args(seed, nproc))
    # the single-thread base of geometry.mc_speedup; not part of the workload
    with tracer.span("geometry.mc_t1") as t1:
        measures = geometry.monte_carlo_measures(MC_SAMPLES, seed, 1)
    report["extra_s"] = t1["end"] - t1["start"]
    report["t1_results"] = [*measures.regions(), measures.total]
    return report


def trace_verify(tracer: Tracer, tmp: Path, seed: int, nproc: int) -> dict:
    import numpy as np

    import verify_scalar

    with np.load(tmp / VERIFY_INPUTS) as npz:
        inputs = dict(npz)
    result = verify_scalar.run(inputs, tracer.span)
    return {"exit_code": 0, "stdout": json.dumps(result) + "\n"}


TRACED = {"scan_n400": trace_scan, "mc_1e7": trace_mc, "verify_scalar": trace_verify}


def main() -> None:
    workload, tmp, seed, nproc = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
    tracer = Tracer()
    with tracer.span("cli.import"):
        import pauli_simplex.cli  # noqa: F401
    report = {"extra_s": 0.0, **TRACED[workload](tracer, tmp, seed, nproc)}
    report["spans"] = tracer.spans
    (tmp / "trace.json").write_text(json.dumps(report))


if __name__ == "__main__":
    main()
