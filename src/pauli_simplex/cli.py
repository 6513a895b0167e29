"""Command-line front end: every analysis as a scriptable subcommand.

Output conventions shared by all subcommands:

* human-readable mode prints aligned ``key value`` lines, 9 significant digits;
* ``--json`` prints one JSON document per invocation with full-precision
  numbers; non-finite values appear as the tokens "inf", "-inf", "nan";
* exit code 0 on success, 2 on usage or domain errors (`_Parser.error`
  reports both, a command's ValueError included), 3 on an OSError, which
  an I/O failure or a failed worker raises (`cli` prints its message);
* CSV files are RFC-4180 style with a header row and LF line endings,
  streamed block by block and renamed into place only when complete.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import re
import stat
import sys

# No command's default output goes through BLAS; only `choi --oracle` makes
# matrix products, 4 x 4 ones, too narrow to share out.  The pin stays because
# an idle OpenBLAS thread pool spins: without it, `python -c 'import numpy'`
# took 206 ms CPU for 128 ms wall (medians of 15 spawns, 2 vCPUs).  This must
# run before numpy loads; a value the caller set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .channels import AXES, MixtureWeights
from .divisibility import LABELS, REGIONS, classify
from .generator import CONVENTIONS, physical_scale, three_mix_rates
from .geometry import (
    boundary_blocks,
    monte_carlo_measures,
    # the name under which perfbench/traced.py times the scan's block source
    scan_blocks as scan_grid,
    total_measures,
)
from ._procs import forked, split, stop_if_orphaned


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
    if isinstance(value, (list, tuple)):
        return " ".join(map(_human, value))
    return str(value)


def _emit(command: str, params: dict, results: dict, as_json: bool, **extra) -> None:
    """Print one record: command, version, params, results, then `extra` keys.

    JSON mode prints the whole record on one line; human mode leaves out the
    version and `extra` and prints each other key, padded to the longest, a
    space and its value (a list's items joined by spaces) on one line.
    """
    if as_json:
        import json  # here, so that no other start-up loads it

        record = dict(command=command, version=__version__, params=params, results=results)
        print(json.dumps(_token({**record, **extra})))
        return
    lines = [("command", command), *params.items(), *results.items()]
    width = max(len(key) for key, _ in lines)
    print("\n".join(f"{key:<{width}} {_human(value)}" for key, value in lines))


#: rows per block of every CSV the CLI writes, consecutive in row order
#: whatever the grid lines' lengths.  A block's Python strings live until it
#: is written: at 2^13 rows they came to about 11.6 MB above the import for
#: `scan --n 400`, at 2^11 to 3.9 MB for about the same formatting CPU; 2^10
#: took more CPU to save another 1.2 MB
SCAN_BLOCK_ROWS = 1 << 11


def _fields(columns: list, table: tuple) -> tuple:
    """The CSV fields of a block's columns, one list of Python strings each.

    A text column (of objects) holds its strings already, and a float64
    column gets the repr of each Python float.  The float64 columns share one
    `np.unique` over their bit patterns, so each distinct value is formatted
    once per block, whichever columns hold it, and gathered back by the
    inverse index; keying by bits keeps -0.0 apart from 0.0 and NaN payloads
    apart.  `table` is a pair (keys, strings) of sorted int64 bit patterns
    and their reprs, and only values missing from it are formatted.  Returns
    the fields and the table to pass with the next block of the same file:
    this block's own distinct values and their reprs, or `table` itself
    when the block has no float column.  So the strings held at once stay
    bounded by two blocks of at most SCAN_BLOCK_ROWS rows.
    """
    keys, strings = table
    floats = [column.view(np.int64) for column in columns if column.dtype == np.float64]
    if floats:
        block, inverse = np.unique(np.concatenate(floats), return_inverse=True)
        at = np.searchsorted(keys, block)
        hit = at < len(keys)
        hit[hit] = keys[at[hit]] == block[hit]
        text = np.empty(len(block), dtype=object)
        text[hit] = strings[at[hit]]
        missed = np.flatnonzero(~hit)
        text[missed] = [repr(v) for v in block[missed].view(np.float64).tolist()]
        table = block, text
        gathered = iter(text[inverse.reshape(len(floats), -1)].tolist())
    fields = [
        next(gathered) if column.dtype == np.float64 else column.tolist() for column in columns
    ]
    return fields, table


def _write_blocks(fh, make_rows, k0: int, k1: int) -> int:
    """Write rows k0 to k1 - 1 in blocks of SCAN_BLOCK_ROWS, each formatted
    with the previous block's reprs (see `_fields`); a forked worker whose
    command is gone stops before its next block (see `stop_if_orphaned`).

    make_rows(j0, j1) returns the equal-length columns of rows j0 to j1 - 1
    and a tally.  Returns the sum of the tallies.
    """
    tally, table = 0, (np.empty(0, np.int64), np.empty(0, object))
    for j0 in range(k0, k1, SCAN_BLOCK_ROWS):
        stop_if_orphaned()
        columns, count = make_rows(j0, min(j0 + SCAN_BLOCK_ROWS, k1))
        fields, table = _fields(columns, table)
        fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
        tally += count
    return tally


def _named(exc: OSError, out: str) -> OSError:
    """The error to report: one that names a file names the target, not the
    temporary or part file."""
    return OSError(exc.errno, exc.strerror, out) if exc.filename is not None else exc


def _write_csv(out: str, header: list, rows: int, make_rows) -> int:
    """Write the header, then rows 0 to rows - 1 in blocks of SCAN_BLOCK_ROWS.

    make_rows(k0, k1) returns the equal-length columns of rows k0 to k1 - 1
    and a tally; no field needs quoting.  An `out` that can only name a
    directory ('', one that exists, or a path ending in a separator, . or
    ..) is a usage error, raised before any row is formed.  The rows go to
    a temporary file beside the target (beside the file a symbolic link
    names), renamed over it once complete, so a failed write, raised as an
    OSError "cannot write <out>: <reason>", leaves neither a partial file
    nor the temporary one; a file it replaces keeps its permission bits.
    A target that exists and is not a regular file (a device or a pipe,
    such as /dev/stdout) is written in place, by this process alone.

    Otherwise the processes of `_procs.split` share the blocks: this one
    writes the first range into the temporary file and each forked worker
    its own into a part file beside it, appended in order, so the bytes do
    not depend on the split.  Returns the sum of the tallies.
    """
    if os.path.basename(out) in ("", ".", "..") or os.path.isdir(out):
        raise ValueError(f"file {out!r} names a directory")
    atomic = os.path.isfile(out) or not os.path.exists(out)
    target = os.path.realpath(out)
    path = f"{target}.tmp-{os.getpid()}" if atomic else out
    blocks = split(-(-rows // SCAN_BLOCK_ROWS), None if atomic else 1)
    ranges = [(b0 * SCAN_BLOCK_ROWS, min(b1 * SCAN_BLOCK_ROWS, rows)) for b0, b1 in blocks]
    parts = {k0: f"{path}.{w}" for w, (k0, _) in enumerate(ranges) if w}  # by first row

    def write(k0: int, k1: int) -> int:
        if not k0:
            return _write_blocks(fh, make_rows, k0, k1)
        try:
            with open(parts[k0], "w", newline="") as part:
                return _write_blocks(part, make_rows, k0, k1)
        except OSError as exc:
            raise _named(exc, out) from None
        except SystemExit:  # stopped; once its command is gone, nothing else removes the part
            with contextlib.suppress(FileNotFoundError):
                os.remove(parts[k0])
            raise

    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            fh.flush()  # a worker inherits the buffer, though it never writes it
            tally = sum(forked(write, ranges, "CSV worker"))
            fh.flush()
            for part in parts.values():
                with open(part, "rb", buffering=0) as src:
                    while chunk := src.read(1 << 16):
                        fh.buffer.write(chunk)
        if atomic:
            if os.path.exists(target):
                os.chmod(path, stat.S_IMODE(os.stat(target).st_mode))
            os.replace(path, target)
    except OSError as exc:
        raise OSError(f"cannot write {out}: {_named(exc, out)}") from None
    finally:
        for name in [path, *parts.values()] if atomic else []:
            if os.path.exists(name):
                os.remove(name)
    return tally


class _Parser(argparse.ArgumentParser):
    """Matches no option by a prefix of its name, reads any token float() reads as a
    value (-1e-3 and -inf too), and makes every error a usage error of its command."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)

    def error(self, message):
        usage = f"Usage: {self.prog} [OPTIONS]\nTry '{self.prog} --help' for help.\n"
        sys.stderr.write(f"{usage}\nError: {message}\n")
        sys.exit(2)


def rates(a, b, c, p, r, convention, as_json):
    """Decay rates of a three-way blend, with a finite-difference cross-check."""
    from .oracles import finite_difference_rates  # only `rates` and `choi --oracle` load it
    w = MixtureWeights(a, b, c)
    analytic = three_mix_rates(w, p, convention, r)
    r_check = 1.0 if r is None else r
    fd = finite_difference_rates(w, p, h=min(1e-6, (0.5 - p) / 4.0), r=r_check)
    scale = 1.0 if convention == "physical" else physical_scale(r_check, p)
    if not scale:  # the reduced rates cannot be recovered from zero physical ones
        raise ValueError(f"decay constant r={r} is too small: the physical rate scale rounds to 0")
    deltas = [f / scale - g for f, g in zip(fd.as_tuple(), analytic.as_tuple())]
    params = {"a": w.a, "b": w.b, "c": w.c, "p": p, "r": r, "convention": convention}
    results = {"gamma_x": analytic.gx, "gamma_y": analytic.gy, "gamma_z": analytic.gz,
               "fd_delta_x": deltas[0], "fd_delta_y": deltas[1], "fd_delta_z": deltas[2],
               "fd_delta_max": max(abs(d) for d in deltas)}
    _emit("rates", params, results, as_json)


def classify_cmd(a, b, c, as_json):
    """Markovian / non-Markovian verdict with the limiting rates."""
    w = MixtureWeights(a, b, c)
    label = classify(w)
    gx, gy, gz = label.limit_rates
    results = {"label": label.tag, "region": label.region or "",
               "gamma_x": gx, "gamma_y": gy, "gamma_z": gz}
    _emit("classify", {"a": w.a, "b": w.b, "c": w.c}, results, as_json)


def scan(n, out):
    """Classify the triangular grid and write one CSV row per point."""
    rows, grid = scan_grid(n)

    def make_rows(k0, k1):
        weights, uv, rates, codes = grid(k0, k1)
        columns = [*weights.T, *uv.T, LABELS[codes + 1], REGIONS[codes + 1], *rates.T]
        return columns, int((codes < 0).sum())

    header = ["a", "b", "c", "u", "v", "label", "region", "gamma_x", "gamma_y", "gamma_z"]
    markovian = _write_csv(out, header, rows, make_rows)
    print(f"wrote {rows} rows to {out} (markovian fraction {_human(markovian / rows)})")


def measure(method, tol, samples, seed, threads, as_json):
    """Region measures by quadrature or seeded Monte Carlo."""
    if method == "quad":
        report = total_measures(tol)
        params, extra = {"method": method, "tol": tol}, {}
    else:
        report = monte_carlo_measures(samples, seed, threads)
        params, extra = {"method": method, "samples": samples, "seed": seed}, {"seed": seed}
    _emit("measure", params, report._asdict(), as_json, **extra)


#: the CSV field of each branch, -1 or +1, at index branch + 1
BRANCHES = np.array(["-1", "", "1"], dtype=object)


def boundary(region, points, out):
    """Write the closed zero-rate curve of one region as CSV."""
    rows, curve = boundary_blocks(region, points)

    def make_rows(k0, k1):
        samples, uv, branch = curve(k0, k1)
        return [*samples.T, *uv.T, BRANCHES[branch + 1]], 0

    _write_csv(out, ["a", "b", "c", "u", "v", "branch"], rows, make_rows)
    print(f"wrote {rows} rows to {out}")


def choi_cmd(a, q, p, oracle, as_json):
    """Dynamical matrix of the intermediate map, spectrum, and CP verdict."""
    from .choi import rhp_witness  # no other command loads it

    witness = rhp_witness(a, q, p)
    x1, x2, x3 = witness.ratios
    results = {"x1": x1, "x2": x2, "x3": x3, "eigenvalues": witness.eigenvalues,
               "min_eigenvalue": witness.min_eigenvalue, "cp": not witness.nonmarkovian,
               "verdict": witness.verdict}
    if oracle:
        from .oracles import a_matrix_choi, choi_matrix
        dev = abs(a_matrix_choi(a, q, p).matrix - choi_matrix(*witness.ratios).matrix).max()
        results["oracle_max_deviation"] = float(dev)
    _emit("choi", {"a": a, "q": q, "p": p}, results, as_json)


def _parser(prog: str) -> _Parser:
    """Every command and its options; a command's defaults name its function."""
    parser = _Parser(prog=prog, description="Analyze convex blends of Pauli dephasing semigroups.")
    parser.add_argument("--version", action="version",
                        version=f"pauli-simplex, version {__version__}")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(run):
        name = run.__name__.removesuffix("_cmd")
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run, parser=sub)
        return sub.add_argument

    option = command(rates)
    for axis, name in zip("abc", "xyz"):
        option(f"--{axis}", required=True, type=float, help=f"weight of the {name}-axis channel")
    option("--p", required=True, type=float, help="dephasing parameter in [0, 1/2)")
    option("--r", type=float, help="decay constant (physical rates)")
    option("--convention", choices=CONVENTIONS, default="reduced", help="default: %(default)s")
    option("--json", dest="as_json", action="store_true", help="emit a JSON record")
    option = command(classify_cmd)
    for axis in "abc":
        option(f"--{axis}", required=True, type=float)
    option("--json", dest="as_json", action="store_true", help="emit a JSON record")
    option = command(scan)
    option("--n", required=True, type=int, help="grid resolution (>= 1)")
    option("--out", required=True, help="CSV path")
    option = command(measure)
    option("--method", required=True, choices=["quad", "mc"], help="estimator")
    option("--tol", type=float, default=1e-8, help="default: %(default)s")
    option("--samples", type=int, default=1_000_000, help="default: %(default)s")
    option("--seed", type=int, default=42, help="default: %(default)s")
    option("--threads", type=int, help="most worker processes (default: one per usable CPU)")
    option("--json", dest="as_json", action="store_true", help="emit a JSON record")
    option = command(boundary)
    option("--region", required=True, choices=AXES)
    option("--points", required=True, type=int, help="samples per branch (>= 2)")
    option("--out", required=True, help="CSV path")
    option = command(choi_cmd)
    option("--a", required=True, type=float, help="mixing fraction in [0, 1]")
    option("--q", required=True, type=float, help="later dephasing parameter")
    option("--p", required=True, type=float, help="earlier dephasing parameter")
    option("--oracle", action="store_true", help="cross-check against the transfer-matrix route")
    option("--json", dest="as_json", action="store_true", help="emit a JSON record")
    return parser


def cli(args=None, prog_name="pauli-simplex") -> None:
    """Run the command that `args` (default: sys.argv[1:]) names."""
    params, extra = _parser(prog_name).parse_known_args(args)
    options = vars(params)
    run, parser = options.pop("run"), options.pop("parser")
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        run(**options)
    except ValueError as exc:  # a domain error
        parser.error(str(exc))
    except OSError as exc:  # an I/O failure, or a worker that failed
        print(exc, file=sys.stderr)
        sys.exit(3)


# perfbench/traced.py alone runs commands through click.testing.CliRunner,
# which reads `name` and calls `main`; ROADMAP item 13 deletes this shim
cli.name, cli.main = "pauli-simplex", cli


def main() -> None:
    """The console script: `cli` after gc.freeze, so that the collections at
    exit, and in forked workers, skip the ~21,000 objects of the imports.

    SIGTERM raises SystemExit(143) and Ctrl-C exits 130, both without a
    traceback, so the `finally` blocks of `_procs.forked` and `_write_csv`
    first kill and reap the workers and remove the temporary and part files.
    """
    import signal  # here, so that `cli`, which tests call in process, sets no handler

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    gc.freeze()
    try:
        cli()
    except KeyboardInterrupt:
        sys.exit(130)

if __name__ == "__main__":
    main()
