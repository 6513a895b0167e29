"""Command-line front end: every analysis as a scriptable subcommand.

Output conventions shared by all subcommands:

* human-readable mode prints ``key  value`` lines with 9 significant digits;
* ``--json`` prints one JSON document per invocation with full-precision
  numbers; non-finite values appear as the tokens "inf", "-inf", "nan";
* exit code 0 on success, 2 on usage or domain errors, 3 on I/O failure;
* CSV files are RFC-4180 style with a header row and LF line endings.
"""

from __future__ import annotations

import csv
import json
import math
import sys

import click
import numpy as np

from . import __version__
from .channels import AXES, MixtureWeights
from .choi import a_matrix_choi, choi_matrix, rhp_witness
from .divisibility import MARKOVIAN, NONMARKOVIAN, classify
from .generator import finite_difference_rates, three_mix_rates
from .geometry import (
    boundary_curve,
    monte_carlo_measures,
    scan_grid,
    to_pauli_neutral_array,
    total_measures,
)

_IO_EXIT = 3


def _token(value):
    """Floats become finite numbers or "inf"/"-inf"/"nan" tokens."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return float(format(value, ".17g"))
    if isinstance(value, dict):
        return {k: _token(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_token(v) for v in value]
    return value


def _human(value) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _emit(record: dict, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(_token(record)))
        return
    click.echo(f"command      {record['command']}")
    for section in ("params", "results"):
        for key, value in record[section].items():
            click.echo(f"{key:<12} {_human(value)}")


def _write_csv(out: str, header: list, columns: list) -> None:
    """Write the header, then one row per position of the equal-length columns."""
    try:
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(zip(*columns))
    except OSError as exc:
        click.echo(f"cannot write {out}: {exc}", err=True)
        sys.exit(_IO_EXIT)


def _weights(a: float, b: float, c: float) -> MixtureWeights:
    try:
        return MixtureWeights(a, b, c)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
@click.version_option(version=__version__, prog_name="pauli-simplex")
def cli():
    """Analyze convex blends of the three Pauli dephasing semigroups."""


@cli.command()
@click.option("--a", required=True, type=float, help="weight of the x-axis channel")
@click.option("--b", required=True, type=float, help="weight of the y-axis channel")
@click.option("--c", required=True, type=float, help="weight of the z-axis channel")
@click.option("--p", required=True, type=float, help="dephasing parameter in [0, 1/2)")
@click.option("--r", type=float, default=None, help="decay constant (physical rates)")
@click.option(
    "--convention",
    type=click.Choice(["reduced", "physical"]),
    default="reduced",
    show_default=True,
)
@click.option("--json", "as_json", is_flag=True, help="emit a JSON record")
def rates(a, b, c, p, r, convention, as_json):
    """Decay rates of a three-way blend, with a finite-difference cross-check."""
    w = _weights(a, b, c)
    try:
        analytic = three_mix_rates(w, p, convention, r)
        r_check = 1.0 if r is None else r
        h = min(1e-6, max((0.5 - p) / 4.0, 1e-12))
        fd = finite_difference_rates(w, p, h=h, r=r_check)
        scale = 1.0 if convention == "physical" else 0.25 * r_check * (1.0 - 2.0 * p)
        deltas = [f / scale - g for f, g in zip(fd.as_tuple(), analytic.as_tuple())]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    record = {
        "command": "rates",
        "version": __version__,
        "params": {"a": w.a, "b": w.b, "c": w.c, "p": p, "r": r, "convention": convention},
        "results": {
            "gamma_x": analytic.gx,
            "gamma_y": analytic.gy,
            "gamma_z": analytic.gz,
            "fd_delta_x": deltas[0],
            "fd_delta_y": deltas[1],
            "fd_delta_z": deltas[2],
            "fd_delta_max": max(abs(d) for d in deltas),
        },
    }
    _emit(record, as_json)


@cli.command("classify")
@click.option("--a", required=True, type=float)
@click.option("--b", required=True, type=float)
@click.option("--c", required=True, type=float)
@click.option("--json", "as_json", is_flag=True, help="emit a JSON record")
def classify_cmd(a, b, c, as_json):
    """Markovian / non-Markovian verdict with the limiting rates."""
    w = _weights(a, b, c)
    label = classify(w)
    gx, gy, gz = label.limit_rates
    record = {
        "command": "classify",
        "version": __version__,
        "params": {"a": w.a, "b": w.b, "c": w.c},
        "results": {
            "label": label.tag,
            "region": label.region or "",
            "gamma_x": gx,
            "gamma_y": gy,
            "gamma_z": gz,
        },
    }
    _emit(record, as_json)


@cli.command()
@click.option("--n", required=True, type=int, help="grid resolution (>= 1)")
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="CSV path")
def scan(n, out):
    """Classify the triangular grid and write one CSV row per point."""
    try:
        weights, uv, rates, codes = scan_grid(n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    markovian = codes < 0
    floats = [map(repr, col.tolist()) for col in (*weights.T, *uv.T, *rates.T)]
    labels = np.where(markovian, MARKOVIAN, NONMARKOVIAN).tolist()
    regions = np.array(["", *AXES])[codes + 1].tolist()
    _write_csv(
        out,
        ["a", "b", "c", "u", "v", "label", "region", "gamma_x", "gamma_y", "gamma_z"],
        [*floats[:5], labels, regions, *floats[5:]],
    )
    click.echo(
        f"wrote {len(codes)} rows to {out} "
        f"(markovian fraction {int(markovian.sum()) / len(codes):.9g})"
    )


@cli.command()
@click.option(
    "--method", required=True, type=click.Choice(["quad", "mc"]), help="estimator"
)
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--samples", type=int, default=1_000_000, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--threads", type=int, default=1, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="emit a JSON record")
def measure(method, tol, samples, seed, threads, as_json):
    """Region measures by quadrature or seeded Monte Carlo."""
    try:
        if method == "quad":
            report = total_measures(tol)
            params = {"method": method, "tol": tol}
        else:
            report = monte_carlo_measures(samples, seed, threads)
            params = {"method": method, "samples": samples, "seed": seed}
    except ValueError as exc:
        raise click.UsageError(str(exc))
    record = {
        "command": "measure",
        "version": __version__,
        "params": params,
        "results": {
            "region_x": report.region_x,
            "region_y": report.region_y,
            "region_z": report.region_z,
            "total": report.total,
            "markovian": report.markovian,
            "error": report.error,
        },
    }
    if report.seed is not None:
        record["seed"] = report.seed
    _emit(record, as_json)


@cli.command()
@click.option("--region", required=True, type=click.Choice(["X", "Y", "Z"]))
@click.option("--points", required=True, type=int, help="samples per branch (>= 2)")
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="CSV path")
def boundary(region, points, out):
    """Write the closed zero-rate curve of one region as CSV."""
    try:
        curve = boundary_curve(region, points)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    uv = to_pauli_neutral_array(curve.samples)
    floats = [map(repr, col.tolist()) for col in (*curve.samples.T, *uv.T)]
    _write_csv(out, ["a", "b", "c", "u", "v", "branch"], [*floats, curve.branch.tolist()])
    click.echo(f"wrote {2 * points} rows to {out}")


@cli.command("choi")
@click.option("--a", required=True, type=float, help="mixing fraction in [0, 1]")
@click.option("--q", required=True, type=float, help="later dephasing parameter")
@click.option("--p", required=True, type=float, help="earlier dephasing parameter")
@click.option("--oracle", is_flag=True, help="cross-check against the transfer-matrix route")
@click.option("--json", "as_json", is_flag=True, help="emit a JSON record")
def choi_cmd(a, q, p, oracle, as_json):
    """Dynamical matrix of the intermediate map, spectrum, and CP verdict."""
    try:
        witness = rhp_witness(a, q, p)
        ratios = witness.ratios
        eigs = choi_matrix(*ratios).eigenvalues()
    except ValueError as exc:
        raise click.UsageError(str(exc))
    results = {
        "x1": ratios[0],
        "x2": ratios[1],
        "x3": ratios[2],
        "eigenvalues": [float(v) for v in eigs],
        "min_eigenvalue": witness.min_eigenvalue,
        "cp": witness.verdict == "MARKOVIAN",
        "verdict": witness.verdict,
    }
    if oracle:
        dev = abs(a_matrix_choi(a, q, p).matrix - choi_matrix(*ratios).matrix).max()
        results["oracle_max_deviation"] = float(dev)
    record = {
        "command": "choi",
        "version": __version__,
        "params": {"a": a, "q": q, "p": p},
        "results": results,
    }
    if as_json:
        _emit(record, True)
    else:
        _emit({**record, "results": {k: v for k, v in results.items() if k != "eigenvalues"}}, False)
        click.echo("eigenvalues  " + " ".join(_human(float(v)) for v in eigs))


def main():
    """Console-script entry point."""
    cli()


if __name__ == "__main__":
    main()
