"""Benchmark of the pauli-simplex CLI and library; see perfbench/README.md.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 each workload runs as its own process, again and again for
about S seconds, and wall time, CPU time and peak RSS come from os.wait4.
With --trace 1 every workload runs once in process under tracing.Tracer, and
the per-layer metrics come from the spans.  Every output is checked.  The
last line of stdout is the result record; the line before it holds the
provenance, every process measured and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path
from typing import Callable

import numpy as np

from traced import MC_SAMPLES, SCAN_CSV, VERIFY_INPUTS, mc_args, scan_args
from tracing import self_times, under

HERE = Path(__file__).resolve().parent

# outputs of `scan --n 400`, recorded when the benchmark was written
SCAN_ROWS = 80_601
SCAN_BYTES = 9_696_782
SCAN_SHA256 = "e4078959146d86a6e3016be2bc45d3fee182a7fd7e007a8342de308da8d126d5"
SCAN_MARKOVIAN = "0.130308557"

#: quadrature measure of one non-Markovian region
REGION = 0.28980212068360
#: `measure --method mc --samples 10000000 --seed 42`: x, y, z regions and total
MC_PINNED_SEED = 42
MC_PINNED = [0.2900017, 0.2899589, 0.2896194, 0.86958]
#: witness eigenvalue at (a, q, p) = (0.1, 0.45, 0.4)
WITNESS = -27 / 322

#: classify calls, rate pairs and Choi triples in verify_scalar
VERIFY_SIZES = (20_000, 2_000, 2_000)
#: plus one quadrature and one witness anchor
VERIFY_ITEMS = sum(VERIFY_SIZES) + 2

SETUP_ARGV = ["-c", "import pauli_simplex.cli"]
TRACE_SETUP_REPEATS = 3
#: untraced processes whose median wall time is the base of trace.overhead_s
TRACE_PLAIN_REPEATS = 3
#: recorded as found; never set here, since they decide BLAS oversubscription
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Proc:
    argv: list
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    ok: bool = False


@dataclass
class Workload:
    items: int
    argv: Callable[[Bench], list]
    check: Callable[[Bench, str], bool]
    prepare: Callable[[Bench], None] | None = None


class Bench:
    """One benchmark run: its scratch directory, seed and every process it started."""

    def __init__(self, root: Path, tmp: Path, seed: int):
        self.tmp, self.seed = tmp, seed
        self.nproc = len(os.sched_getaffinity(0))
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        self.procs = []
        self.mc_first = None

    def spawn(self, argv: list) -> Proc:
        """Run the interpreter on argv to exit; time and rusage from os.wait4."""
        out, err = self.tmp / "stdout", self.tmp / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, *argv], self.env, file_actions=actions
        )
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            sys.stderr.write(err.read_text()[-4000:])
        cpu = usage.ru_utime + usage.ru_stime
        return Proc(argv, code, wall, cpu, usage.ru_maxrss / 1024, out.read_text())

    def judge(self, proc: Proc, check) -> Proc:
        """Count one operation: it fails on a non-zero exit or a failed check."""
        try:
            proc.ok = proc.exit_code == 0 and check(self, proc.stdout)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            print(f"check raised {exc!r}", file=sys.stderr)
            proc.ok = False
        if not proc.ok:
            print(f"failed: {proc.argv}", file=sys.stderr)
        self.procs.append(proc)
        return proc

    def setup_time(self) -> float:
        """Interpreter start plus `import pauli_simplex.cli`, as its own process."""
        return self.judge(self.spawn(SETUP_ARGV), lambda b, out: out == "").wall_s


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_scan(bench: Bench, stdout: str) -> bool:
    path = bench.tmp / SCAN_CSV
    try:
        return (
            stdout == f"wrote {SCAN_ROWS} rows to {path} (markovian fraction {SCAN_MARKOVIAN})\n"
            and path.stat().st_size == SCAN_BYTES
            and _sha256(path) == SCAN_SHA256
        )
    finally:
        path.unlink(missing_ok=True)


def check_mc(bench: Bench, stdout: str) -> bool:
    if bench.mc_first is None:
        bench.mc_first = stdout
    record = json.loads(stdout)
    res = record["results"]
    values = [res["region_x"], res["region_y"], res["region_z"], res["total"]]
    se = math.sqrt(REGION * (1.0 - REGION) / MC_SAMPLES)
    return (
        stdout == bench.mc_first
        and record["params"] == {"method": "mc", "samples": MC_SAMPLES, "seed": bench.seed}
        and all(abs(r - REGION) <= 4.0 * se for r in values[:3])
        and (bench.seed != MC_PINNED_SEED or values == MC_PINNED)
    )


def check_verify(bench: Bench, stdout: str) -> bool:
    r = json.loads(stdout)
    return (
        (r["classified"], r["rate_pairs"], r["choi_triples"]) == VERIFY_SIZES
        and r["disagreements"] == 0
        and r["fd_max_delta"] <= 1e-6
        and r["choi_max_deviation"] <= 1e-12
        and abs(r["quad_region"] - REGION) <= 1e-12
        and abs(r["witness_anchor"] - WITNESS) <= 1e-15
    )


def prepare_verify(bench: Bench) -> None:
    """Seeded inputs: simplex points, (weights, p) pairs and (a, q, p) triples."""
    rng = np.random.default_rng(bench.seed)

    def simplex(n):
        e = rng.exponential(size=(n, 3))
        return e / e.sum(axis=1, keepdims=True)

    n_cls, n_rates, n_choi = VERIFY_SIZES
    p = rng.uniform(0.0, 0.45, n_choi)
    np.savez(
        bench.tmp / VERIFY_INPUTS,
        weights=simplex(n_cls),
        rate_weights=simplex(n_rates),
        rate_p=rng.uniform(0.0, 0.45, n_rates),
        choi_a=rng.uniform(0.0, 1.0, n_choi),
        choi_p=p,
        choi_q=p + (0.4999 - p) * rng.uniform(0.0, 1.0, n_choi),
    )


WORKLOADS = {
    "scan_n400": Workload(
        SCAN_ROWS,
        lambda b: ["-m", "pauli_simplex.cli", *scan_args(str(b.tmp / SCAN_CSV))],
        check_scan,
    ),
    "mc_1e7": Workload(
        MC_SAMPLES,
        lambda b: ["-m", "pauli_simplex.cli", *mc_args(b.seed, b.nproc)],
        check_mc,
    ),
    "verify_scalar": Workload(
        VERIFY_ITEMS,
        lambda b: [str(HERE / "verify_scalar.py"), str(b.tmp / VERIFY_INPUTS)],
        check_verify,
        prepare_verify,
    ),
}


def untraced(bench: Bench, name: str, seconds: float) -> dict:
    """Repeat the workload process while the next one still fits in `seconds`."""
    wl = WORKLOADS[name]
    if wl.prepare:
        wl.prepare(bench)
    bench.spawn(SETUP_ARGV)  # warm-up: writes the bytecode caches
    setup, runs = [], []
    start = time.perf_counter()
    while True:
        # set-up samples interleaved with the workload see the same machine load
        setup.append(bench.setup_time())
        runs.append(bench.judge(bench.spawn(wl.argv(bench)), wl.check))
        elapsed = time.perf_counter() - start
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    good = [p for p in runs if p.ok] or runs
    # Medians over the whole run: the machine's speed swings, and the fastest
    # process of a run varies far more between runs; see README "Noise".
    wall = statistics.median(p.wall_s for p in good)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(p.cpu_s for p in good),
        "peak_rss_mb": max(p.peak_rss_mb for p in good),
        "setup_s": statistics.median(setup),
        "items_per_s": wl.items / wall,
    }


def _total(spans: list, name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _self(spans: list, name: str) -> float:
    own = self_times(spans)
    return sum(own[s["id"]] for s in spans if s["name"] == name)


def _per_call_us(spans: list, name: str) -> float:
    (s,) = [s for s in spans if s["name"] == name]
    return 1e6 * (s["end"] - s["start"]) / s["calls"]


def layer_metrics(traces: dict) -> dict:
    """Per-layer metrics of the three traced workloads."""
    scan = traces["scan_n400"]["spans"]
    (grid,) = [s for s in scan if s["name"] == "geometry.scan_grid"]
    mc = traces["mc_1e7"]["spans"]
    tn, t1 = under(mc, "cli.measure"), under(mc, "geometry.mc_t1")
    codes_t1 = [s for s in t1 if s["name"] == "divisibility.region_codes"]
    ver = traces["verify_scalar"]["spans"]
    checks = json.loads(traces["verify_scalar"]["stdout"])
    return {
        "cli.scan_write_s": _self(scan, "cli.scan"),
        "cli.scan_bytes": traces["scan_n400"]["scan_bytes"],
        "geometry.grid_weights_s": _total(scan, "geometry.grid_weights"),
        "geometry.embed_s": _total(scan, "geometry.embed"),
        "geometry.scan_grid_s": _total(scan, "geometry.scan_grid"),
        "geometry.scan_objects_s": _self(scan, "geometry.scan_grid"),
        "geometry.scan_grid_rss_mb": (grid["peak_kb_end"] - grid["peak_kb_start"]) / 1024,
        "divisibility.limit_rates_array_s": _total(scan, "divisibility.limit_rates_array"),
        "geometry.sample_simplex_s": _total(tn, "geometry.sample_simplex"),
        "geometry.mc_chunks": sum(s["name"] == "geometry.sample_simplex" for s in tn),
        "geometry.mc_t1_s": _total(t1, "geometry.mc_t1"),
        "geometry.mc_tn_s": _total(tn, "geometry.monte_carlo_measures"),
        "geometry.mc_speedup": _total(t1, "geometry.mc_t1")
        / _total(tn, "geometry.monte_carlo_measures"),
        "divisibility.region_codes_s": _total(tn, "divisibility.region_codes"),
        "divisibility.rows_classified": sum(
            s["rows"] for s in tn if s["name"] == "divisibility.region_codes"
        ),
        "divisibility.region_codes_cpu_ratio": sum(s["cpu_end"] - s["cpu_start"] for s in codes_t1)
        / sum(s["end"] - s["start"] for s in codes_t1),
        "divisibility.classify_us": _per_call_us(ver, "divisibility.classify"),
        "divisibility.rate_minima_s": _total(ver, "divisibility.rate_minima"),
        "divisibility.oracle_disagreements": checks["disagreements"],
        "channels.weights_us": _per_call_us(ver, "channels.weights"),
        "generator.rates_us": _per_call_us(ver, "generator.rates"),
        "generator.fd_rates_us": _per_call_us(ver, "generator.fd_rates"),
        "choi.witness_us": _per_call_us(ver, "choi.witness"),
        "choi.oracle_us": _per_call_us(ver, "choi.oracle"),
        "geometry.quad_s": _total(ver, "geometry.quad"),
        "geometry.quad_error": checks["quad_error"],
    }


def check_trace(bench: Bench, name: str, report: dict) -> bool:
    """The traced command's output passes the same check as the untraced one."""
    ok = report["exit_code"] == 0 and WORKLOADS[name].check(bench, report["stdout"])
    if name == "mc_1e7":
        # seeded results may not depend on the thread count
        res = json.loads(report["stdout"])["results"]
        keys = ("region_x", "region_y", "region_z", "total")
        ok = ok and report["t1_results"] == [res[k] for k in keys]
    return ok


def traced(bench: Bench, name: str) -> tuple:
    """Trace every workload once; time the named one untraced for the overhead."""
    bench.spawn(SETUP_ARGV)  # warm-up: writes the bytecode caches
    setup = statistics.median(bench.setup_time() for _ in range(TRACE_SETUP_REPEATS))
    traces = {}
    for wl_name, wl in WORKLOADS.items():
        if wl.prepare:
            wl.prepare(bench)
        argv = [str(HERE / "traced.py"), wl_name, str(bench.tmp), str(bench.seed), str(bench.nproc)]
        proc = bench.spawn(argv)
        out = bench.tmp / "trace.json"
        report = json.loads(out.read_text()) if proc.exit_code == 0 else None
        out.unlink(missing_ok=True)
        bench.judge(proc, lambda b, out: report is not None and check_trace(b, wl_name, report))
        if report is None:
            return {}, {}
        traces[wl_name] = {**report, "wall_s": proc.wall_s}
    wl = WORKLOADS[name]
    plain = statistics.median(
        bench.judge(bench.spawn(wl.argv(bench)), wl.check).wall_s
        for _ in range(TRACE_PLAIN_REPEATS)
    )
    own = traces[name]
    # named-layer spans of the workload itself: not the import (counted by
    # setup_s) and not the extra single-thread Monte Carlo run
    extra = under(own["spans"], "geometry.mc_t1")
    own_self = self_times(own["spans"])
    accounted = sum(
        own_self[s["id"]] for s in own["spans"] if s["name"] != "cli.import" and s not in extra
    )
    metrics = {
        "cli.import_s": _total(own["spans"], "cli.import"),
        **layer_metrics(traces),
        "trace.overhead_s": own["wall_s"] - own["extra_s"] - plain,
        "trace.accounted_frac": (setup + accounted) / plain,
    }
    return metrics, {k: v["spans"] for k, v in traces.items()}


def provenance(root: Path, nproc: int) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        sha = None
    tree = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        tree.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": tree.hexdigest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": version("click"),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "pauli_simplex" / "cli.py").is_file():
        print(f"no package source under {root / 'src'}: run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = spec["per_layer"] if args.trace else spec["end_to_end"]

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        bench = Bench(root, tmp, args.seed)
        spans = None
        if args.trace:
            values, spans = traced(bench, args.workload)
        else:
            values = untraced(bench, args.workload, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(not p.ok for p in bench.procs)
    values["ok_frac"] = 1.0 - failed / len(bench.procs)
    correct = failed == 0 and all(m["name"] in values for m in units)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(root, bench.nproc),
        "processes": [
            {k: v for k, v in vars(p).items() if k != "stdout"} for p in bench.procs
        ],
        "spans": spans,
    }
    print(json.dumps(detail))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in units
        if m["name"] in values
    }
    result = {"correct": correct, "attempted": len(bench.procs), "failed": failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
