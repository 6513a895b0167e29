"""Command-line front end: every analysis as a scriptable subcommand.

Output conventions shared by all subcommands:

* human-readable mode prints ``key  value`` lines with 9 significant digits;
* ``--json`` prints one JSON document per invocation with full-precision
  numbers; non-finite values appear as the tokens "inf", "-inf", "nan";
* exit code 0 on success, 2 on usage or domain errors, 3 on I/O failure;
* CSV files are RFC-4180 style with a header row and LF line endings,
  streamed block by block and renamed into place only when complete.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import sys

# The package's matrix products (the (n, 3) @ (3, 2) embedding, the dot product
# over at most 128 quadrature nodes, the 4 x 4 Choi and transfer products) are
# too narrow to share out, so an idle OpenBLAS thread pool would only spin and
# burn CPU.  This must run before numpy loads; a value the caller set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click
import numpy as np

from . import __version__
from .channels import AXES, MixtureWeights
from .choi import a_matrix_choi, rhp_witness
from .divisibility import MARKOVIAN, NONMARKOVIAN, classify
from .generator import finite_difference_rates, physical_scale, three_mix_rates
from .geometry import (
    boundary_blocks,
    monte_carlo_measures,
    # the name under which perfbench/traced.py times the scan's block source
    scan_blocks as scan_grid,
    total_measures,
)

_IO_EXIT = 3

#: label and region fields indexed by region code + 1
_LABELS = np.array([MARKOVIAN, NONMARKOVIAN, NONMARKOVIAN, NONMARKOVIAN], dtype=object)
_REGIONS = np.array(["", *AXES], dtype=object)


def _token(value):
    """Non-finite floats become the tokens "inf", "-inf" and "nan"."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _token(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_token(v) for v in value]
    return value


def _human(value) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _emit(command: str, params: dict, results: dict, as_json: bool, **extra) -> None:
    """Print one record: command, version, params, results, then `extra` keys.

    JSON mode prints the whole record on one line; human mode prints the
    command, params and results as ``key  value`` lines and leaves out the
    version and the `extra` keys.
    """
    if as_json:
        record = dict(command=command, version=__version__, params=params, results=results)
        click.echo(json.dumps(_token({**record, **extra})))
        return
    click.echo(f"command      {command}")
    for key, value in [*params.items(), *results.items()]:
        click.echo(f"{key:<12} {_human(value)}")


def _fields(columns: list) -> list:
    """The CSV fields of a block's columns, one list of Python strings each.

    A column of objects holds its strings already, and other columns get the
    repr of each Python float or int.  The float64 columns share one
    `np.unique` over their bit patterns, so each distinct value is formatted
    once per block, whichever columns hold it, and gathered back by the
    inverse index; keying by bits keeps -0.0 apart from 0.0.  Every block
    comes from a source of at most geometry.SCAN_BLOCK_ROWS rows, so the
    strings held at once stay bounded whatever the command and its size.
    """
    floats = [column.view(np.int64) for column in columns if column.dtype == np.float64]
    if floats:
        keys, inverse = np.unique(np.concatenate(floats), return_inverse=True)
        text = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
        gathered = iter(text[inverse.reshape(len(floats), -1)].tolist())
    return [
        next(gathered) if column.dtype == np.float64
        else column.tolist() if column.dtype == object
        else list(map(repr, column.tolist()))
        for column in columns
    ]


def _write_csv(out: str, header: list, blocks) -> None:
    """Write the header, then the rows of each block of equal-length columns.

    No field needs quoting.  The rows go to a temporary file beside the
    target, renamed over it once complete, so a failed write (exit 3) leaves
    neither a partial file nor the temporary one.  A target that exists and
    is not a regular file (a device or a pipe) is written in place.
    """
    target = os.path.realpath(out)
    atomic = os.path.isfile(target) or not os.path.exists(target)
    path = f"{target}.tmp-{os.getpid()}" if atomic else target
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for columns in blocks:
                rows = zip(*_fields(columns))
                fh.write("\n".join(map(",".join, rows)) + "\n")
        if atomic:
            os.replace(path, target)
    except OSError as exc:
        if exc.filename is not None:  # name the target, not the temporary file
            exc = OSError(exc.errno, exc.strerror, out)
        click.echo(f"cannot write {out}: {exc}", err=True)
        sys.exit(_IO_EXIT)
    finally:
        if atomic and os.path.exists(path):
            os.remove(path)


def _usage_errors(command):
    """Turn a ValueError from the library into a usage error (exit 2).

    Goes innermost, under the click decorators, so the error is raised
    inside the subcommand's context and its usage line names the subcommand.
    """

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from None

    return run


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
@_usage_errors
def rates(a, b, c, p, r, convention, as_json):
    """Decay rates of a three-way blend, with a finite-difference cross-check."""
    w = MixtureWeights(a, b, c)
    analytic = three_mix_rates(w, p, convention, r)
    r_check = 1.0 if r is None else r
    h = min(1e-6, (0.5 - p) / 4.0)
    fd = finite_difference_rates(w, p, h=h, r=r_check)
    scale = 1.0 if convention == "physical" else physical_scale(r_check, p)
    deltas = [f / scale - g for f, g in zip(fd.as_tuple(), analytic.as_tuple())]
    params = {"a": w.a, "b": w.b, "c": w.c, "p": p, "r": r, "convention": convention}
    results = {
        "gamma_x": analytic.gx,
        "gamma_y": analytic.gy,
        "gamma_z": analytic.gz,
        "fd_delta_x": deltas[0],
        "fd_delta_y": deltas[1],
        "fd_delta_z": deltas[2],
        "fd_delta_max": max(abs(d) for d in deltas),
    }
    _emit("rates", params, results, as_json)


@cli.command("classify")
@click.option("--a", required=True, type=float)
@click.option("--b", required=True, type=float)
@click.option("--c", required=True, type=float)
@click.option("--json", "as_json", is_flag=True, help="emit a JSON record")
@_usage_errors
def classify_cmd(a, b, c, as_json):
    """Markovian / non-Markovian verdict with the limiting rates."""
    w = MixtureWeights(a, b, c)
    label = classify(w)
    gx, gy, gz = label.limit_rates
    results = {
        "label": label.tag,
        "region": label.region or "",
        "gamma_x": gx,
        "gamma_y": gy,
        "gamma_z": gz,
    }
    _emit("classify", {"a": w.a, "b": w.b, "c": w.c}, results, as_json)


@cli.command()
@click.option("--n", required=True, type=int, help="grid resolution (>= 1)")
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="CSV path")
@_usage_errors
def scan(n, out):
    """Classify the triangular grid and write one CSV row per point."""
    blocks = scan_grid(n)
    rows = markovian = 0

    def columns():
        nonlocal rows, markovian
        for weights, uv, rates, codes in blocks:
            rows += len(codes)
            markovian += int((codes < 0).sum())
            yield [*weights.T, *uv.T, _LABELS[codes + 1], _REGIONS[codes + 1], *rates.T]

    _write_csv(
        out,
        ["a", "b", "c", "u", "v", "label", "region", "gamma_x", "gamma_y", "gamma_z"],
        columns(),
    )
    click.echo(f"wrote {rows} rows to {out} (markovian fraction {markovian / rows:.9g})")


@cli.command()
@click.option(
    "--method", required=True, type=click.Choice(["quad", "mc"]), help="estimator"
)
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--samples", type=int, default=1_000_000, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--threads", type=int, default=1, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="emit a JSON record")
@_usage_errors
def measure(method, tol, samples, seed, threads, as_json):
    """Region measures by quadrature or seeded Monte Carlo."""
    if method == "quad":
        report = total_measures(tol)
        params, extra = {"method": method, "tol": tol}, {}
    else:
        report = monte_carlo_measures(samples, seed, threads)
        params, extra = {"method": method, "samples": samples, "seed": seed}, {"seed": seed}
    _emit("measure", params, dataclasses.asdict(report), as_json, **extra)


@cli.command()
@click.option("--region", required=True, type=click.Choice(["X", "Y", "Z"]))
@click.option("--points", required=True, type=int, help="samples per branch (>= 2)")
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="CSV path")
@_usage_errors
def boundary(region, points, out):
    """Write the closed zero-rate curve of one region as CSV."""
    blocks = boundary_blocks(region, points)
    columns = ([*samples.T, *uv.T, branch] for samples, uv, branch in blocks)
    _write_csv(out, ["a", "b", "c", "u", "v", "branch"], columns)
    click.echo(f"wrote {2 * points} rows to {out}")


@cli.command("choi")
@click.option("--a", required=True, type=float, help="mixing fraction in [0, 1]")
@click.option("--q", required=True, type=float, help="later dephasing parameter")
@click.option("--p", required=True, type=float, help="earlier dephasing parameter")
@click.option("--oracle", is_flag=True, help="cross-check against the transfer-matrix route")
@click.option("--json", "as_json", is_flag=True, help="emit a JSON record")
@_usage_errors
def choi_cmd(a, q, p, oracle, as_json):
    """Dynamical matrix of the intermediate map, spectrum, and CP verdict."""
    witness = rhp_witness(a, q, p)
    x1, x2, x3 = witness.ratios
    results = {
        "x1": x1,
        "x2": x2,
        "x3": x3,
        "eigenvalues": witness.eigenvalues,
        "min_eigenvalue": witness.min_eigenvalue,
        "cp": not witness.nonmarkovian,
        "verdict": witness.verdict,
    }
    if oracle:
        dev = abs(a_matrix_choi(a, q, p).matrix - witness.choi.matrix).max()
        results["oracle_max_deviation"] = float(dev)
    params = {"a": a, "q": q, "p": p}
    if as_json:
        _emit("choi", params, results, True)
    else:
        _emit("choi", params, {k: v for k, v in results.items() if k != "eigenvalues"}, False)
        click.echo("eigenvalues  " + " ".join(map(_human, witness.eigenvalues)))


def main():
    """Console-script entry point."""
    cli()


if __name__ == "__main__":
    main()
