import ast
import builtins
import contextlib
import csv
import errno
import functools
import gc
import hashlib
import importlib
import importlib.metadata
import json
import math
import os
import re
import shutil
import signal
import site
import stat
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import GOLDEN, MC_SEED_42, child_env, invoke, lattice, lattice_codes, run_ok
from conftest import assert_no_child_left
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pauli_simplex
from pauli_simplex import geometry
from pauli_simplex.cli import _fields
from pauli_simplex.divisibility import region_codes

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

#: the golden entries of the `scan` and `boundary` commands at these sizes
SCAN = "scan --n {} --out {{out}}"
BOUNDARY_500 = "boundary --region {} --points 500 --out {{out}}"


def golden_argv(key, out):
    """The command line of golden entry `key`, writing its CSV to `out`."""
    return [str(out) if arg == "{out}" else arg for arg in key.split()]


def golden_stdout(key, out):
    """The stdout of golden entry `key`, with `out` for its CSV path."""
    return GOLDEN[key]["stdout"].replace("{out}", str(out))


def assert_golden_bytes(data, key):
    """`data` are the bytes of the CSV that golden entry `key` pins."""
    entry = GOLDEN[key]
    assert (len(data), hashlib.sha256(data).hexdigest()) == (entry["bytes"], entry["sha256"]), key


def assert_golden_run(key, out):
    """Run golden entry `key` with its CSV at `out`; check its stdout and CSV."""
    assert run_ok(golden_argv(key, out)) == golden_stdout(key, out)
    assert_golden_bytes(Path(out).read_bytes(), key)


def golden_id(key):
    """The test id of golden entry `key`: its command line less the --out path."""
    return "-".join(arg.lstrip("-") for arg in key.split() if arg not in ("--out", "{out}"))


#: run one CLI command (none: import only) in a fresh interpreter and print
#: in KiB the peak RSS of the largest of it and the CSV workers it forked;
#: Linux carries ru_maxrss across exec, so there RUSAGE_SELF would read the
#: forking test process's RSS, and VmHWM is the interpreter's own peak
PEAK_RSS_CHILD = """
import resource, sys
from pauli_simplex.cli import cli
if sys.argv[1:]:
    try:
        cli(sys.argv[1:])
    except SystemExit as exc:
        assert not exc.code, exc.code
workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
if sys.platform == "darwin":  # ru_maxrss in bytes
    own, workers = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024, workers // 1024
else:  # ru_maxrss in KiB
    with open("/proc/self/status") as status:
        own = int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
print(max(own, workers))
"""


def run_child(code, *options, **env):
    """Run code in a fresh interpreter, with these options, and return its stdout.

    OPENBLAS_NUM_THREADS reaches the child only when passed here: this test
    process imported the CLI, which set it in os.environ.
    """
    base = {k: v for k, v in child_env().items() if k != "OPENBLAS_NUM_THREADS"}
    child = subprocess.run(
        [sys.executable, *options, "-c", code],
        env={**base, **env}, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def empty_table():
    """The table of float reprs that `_write_blocks` starts each range with."""
    return (np.empty(0, np.int64), np.empty(0, object))


def capped_table(monkeypatch, cap):
    """Hand `_fields` at most the first `cap` entries of each table it is given."""
    fields = pauli_simplex.cli._fields

    def capped(columns, table):
        keys, strings = table
        return fields(columns, (keys[:cap], strings[:cap]))

    monkeypatch.setattr(pauli_simplex.cli, "_fields", capped)


def shadow_repr(monkeypatch):
    """Shadow `repr` in the CLI module; returns the list of values it formats."""
    formatted = []

    def counting(value):
        formatted.append(value)
        return builtins.repr(value)

    monkeypatch.setattr(pauli_simplex.cli, "repr", counting, raising=False)
    return formatted


needs_peak_rss = pytest.mark.skipif(
    not sys.platform.startswith(("linux", "darwin")), reason="needs VmHWM or ru_maxrss"
)


def peak_rss_kib(*argv):
    """Peak RSS in KiB of a fresh interpreter running one CLI command."""
    child = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, *argv],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    return int(child.stdout.split()[-1])


class TestGolden:
    """Each command of tests/golden.json prints and writes its pinned bytes."""

    @pytest.mark.golden
    @pytest.mark.parametrize("key", GOLDEN, ids=golden_id)
    def test_output(self, tmp_path, key):
        out = tmp_path / "out.csv"
        assert run_ok(golden_argv(key, out)) == golden_stdout(key, out)
        if "sha256" in GOLDEN[key]:
            assert_golden_bytes(out.read_bytes(), key)
            out.unlink()  # 57 MB at scan --n 1000
        else:
            assert not out.exists()

    @pytest.mark.golden
    def test_monte_carlo_record_on_one_worker(self, forks):
        # the whole record that perfbench/run.py checks at seed 42, which
        # test_output prints at the default worker count
        assert run_ok([*MC_SEED_42.split(), "--threads", "1"]) == GOLDEN[MC_SEED_42]["stdout"]
        assert forks == []


class TestRates:
    def test_symmetric_blend(self):
        stdout = run_ok(
            ["rates", "--a", ".333333", "--b", ".333333", "--c", ".333334", "--p", ".25", "--json"]
        )
        record = json.loads(stdout)
        gx, gy, gz = (record["results"][k] for k in ("gamma_x", "gamma_y", "gamma_z"))
        assert gx == pytest.approx(gy, rel=1e-4) and gy == pytest.approx(gz, rel=1e-4)
        assert min(gx, gy, gz) > 0
        assert record["results"]["fd_delta_max"] < 1e-6

    def test_edge_blend_has_negative_rate(self):
        stdout = run_ok(["rates", "--a", "0", "--b", ".5", "--c", ".5", "--p", ".45", "--json"])
        record = json.loads(stdout)
        rates = [record["results"][k] for k in ("gamma_x", "gamma_y", "gamma_z")]
        assert sum(g < 0 for g in rates) == 1

    def test_vertex_all_nonnegative(self):
        stdout = run_ok(["rates", "--a", "1", "--b", "0", "--c", "0", "--p", ".3", "--json"])
        record = json.loads(stdout)
        assert min(record["results"][k] for k in ("gamma_x", "gamma_y", "gamma_z")) >= 0

    @pytest.mark.parametrize(
        "args,gammas",
        [
            ([], (0.38272072754831343, 1.0458507010231153, 2.031072375899962)),
            (
                ["--r", "2", "--convention", "physical"],
                (0.0765441455096627, 0.20917014020462307, 0.4062144751799924),
            ),
        ],
        ids=["reduced", "physical"],
    )
    def test_example_rates_exactly(self, args, gammas):
        # the fd_delta_* fields go through np.log, whose last bits may differ
        # across CPUs, so only the closed-form rates are pinned
        stdout = run_ok(
            ["rates", "--a", ".2", "--b", ".3", "--c", ".5", "--p", ".3", *args, "--json"]
        )
        results = json.loads(stdout)["results"]
        assert tuple(results[k] for k in ("gamma_x", "gamma_y", "gamma_z")) == gammas

    def test_physical_convention(self):
        stdout = run_ok(
            ["rates", "--a", ".2", "--b", ".3", "--c", ".5", "--p", ".1",
             "--r", "2.0", "--convention", "physical", "--json"]
        )
        record = json.loads(stdout)
        assert record["params"]["convention"] == "physical"

    def test_physical_without_r_is_usage_error(self):
        code, _, stderr = invoke(
            ["rates", "--a", ".2", "--b", ".3", "--c", ".5", "--p", ".1",
             "--convention", "physical"]
        )
        assert code == 2
        assert "decay constant" in stderr

    def test_bad_weights_exit_code(self):
        code, _, stderr = invoke(["rates", "--a", ".5", "--b", ".5", "--c", ".5", "--p", ".1"])
        assert code == 2
        assert "sum" in stderr

    def test_p_out_of_domain(self):
        code, _, stderr = invoke(["rates", "--a", ".2", "--b", ".3", "--c", ".5", "--p", ".6"])
        assert code == 2
        assert "p=" in stderr

    @pytest.mark.parametrize("p", [0.5 - 1e-13, float(np.nextafter(0.5, 0.0))])
    def test_p_just_below_half(self, p):
        # the finite-difference step shrinks with 1/2 - p instead of stopping
        # at a floor that would carry p + h past 1/2
        stdout = run_ok(["rates", "--a", ".2", "--b", ".3", "--c", ".5", "--p", repr(p)])
        assert f"p            {p:.9g}" in stdout


class TestClassify:
    def test_centroid(self):
        stdout = run_ok(
            ["classify", "--a", ".3333333333", "--b", ".3333333333", "--c", ".3333333334"]
        )
        assert "MARKOVIAN" in stdout

    def test_nonmarkovian_json(self):
        stdout = run_ok(["classify", "--a", ".45", "--b", ".1", "--c", ".45", "--json"])
        assert stdout == (
            '{"command": "classify", "version": "0.1.0", '
            '"params": {"a": 0.45, "b": 0.1, "c": 0.45}, '
            '"results": {"label": "NONMARKOVIAN", "region": "Y", "gamma_x": 9.0, '
            '"gamma_y": -6.555555555555555, "gamma_z": 9.0}}\n'
        )

    def test_just_inside_the_curve_json(self):
        # 1e-14 inside the zero-rate curve at b = 0.2: a tiny negative y rate
        w = ["0.23670068381446485", "0.2", "0.5632993161855352"]
        stdout = run_ok(["classify", "--a", w[0], "--b", w[1], "--c", w[2], "--json"])
        assert stdout == (
            '{"command": "classify", "version": "0.1.0", '
            f'"params": {{"a": {w[0]}, "b": {w[1]}, "c": {w[2]}}}, '
            '"results": {"label": "NONMARKOVIAN", "region": "Y", "gamma_x": 1.550510257217033, '
            '"gamma_y": -1.4799272918253337e-13, "gamma_z": 6.449489742782967}}\n'
        )

    def test_vertex_infinite_rate_token(self):
        stdout = run_ok(["classify", "--a", "1", "--b", "0", "--c", "0", "--json"])
        record = json.loads(stdout)
        assert record["results"]["label"] == "MARKOVIAN"
        assert record["results"]["gamma_x"] == "inf"
        # round trip: serializing the parsed record again is stable
        assert json.loads(json.dumps(record)) == record

    @pytest.mark.parametrize(
        "a, b, rates",
        [
            ("5e-324", "5e-310", ["-inf", "inf", "inf"]),  # 1/w overflows: signed infinities
            ("5e-310", "5e-310", [0.0, 0.0, "inf"]),  # equal diverging terms cancel
        ],
    )
    def test_subnormal_weights(self, a, b, rates):
        # products of subnormal weights in the region test underflow to zero,
        # which numpy ignores by default; every other floating-point error
        # raises here, and any warning fails the command
        with np.errstate(all="raise", under="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = invoke(["classify", "--a", a, "--b", b, "--c", "1", "--json"])
        assert code == 0, stderr
        record = json.loads(stdout)
        assert [record["results"][k] for k in ("gamma_x", "gamma_y", "gamma_z")] == rates
        assert stderr == ""


class TestScan:
    def test_small_grid_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        run_ok(["scan", "--n", "20", "--out", str(out)])
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header == ["a", "b", "c", "u", "v", "label", "region",
                          "gamma_x", "gamma_y", "gamma_z"]
        assert len(body) == 21 * 22 // 2
        labels = {row[5] for row in body}
        assert labels == {"MARKOVIAN", "NONMARKOVIAN"}
        # numeric columns parse, with inf tokens allowed in the rate columns
        for row in body:
            floats = [float(v) for v in row[:5]]
            assert all(math.isfinite(v) for v in floats)
            for v in row[7:]:
                float(v)

    def test_fields_match_repr_of_each_value(self):
        columns = [
            np.array([0.0, -0.0, np.nan, np.inf, 5e-324, 0.1]),
            np.array(["-1", "1", "1", "-1", "", "1"], dtype=object),
            np.array([-0.0, 0.0, -np.inf, 5e-324, -5e-324, 0.1]),
            np.array(["MARKOVIAN", "", "X", "Y", "Z", "NONMARKOVIAN"], dtype=object),
            np.array([1.0, 0.0, 0.0, -0.0, np.nan, 1 / 3]),
        ]
        fields, _ = _fields(columns, empty_table())
        for i in (1, 3):  # text columns, as they are
            assert fields[i] == columns[i].tolist()
        for i in (0, 2, 4):
            assert fields[i] == [repr(x) for x in columns[i].tolist()]
        assert fields[0][:2] == ["0.0", "-0.0"] and fields[2][:2] == ["-0.0", "0.0"]

    def test_fields_format_only_values_missing_from_the_table(self, monkeypatch):
        formatted = shadow_repr(monkeypatch)
        blocks = [
            [np.array([0.0, 1.5, 0.0]), np.array([2.5, 1.5, 0.0])],
            # -0.0 is not the 0.0 of the previous block; 7.0 and NaN are new
            [np.array([-0.0, 0.0, np.nan]), np.array([1.5, 7.0, np.nan])],
            # -0.0, 7.0 and NaN repeat from the previous block; 2.5 only from
            # the one before, which is no longer kept
            [np.array([-0.0, 7.0, np.nan]), np.array([2.5, 2.5, -0.0])],
            # no float column
            [np.array(["0", "1"], dtype=object), np.array(["-1", ""], dtype=object)],
            [np.array([np.nan, 2.5]), np.array([7.0, -0.0])],
        ]
        table, misses, tables = empty_table(), [], []
        for columns in blocks:
            before = len(formatted)
            fields, table = _fields(columns, table)
            assert fields == [
                column.tolist() if column.dtype == object else [repr(x) for x in column.tolist()]
                for column in columns
            ]
            misses.append(sorted(map(repr, formatted[before:])))
            keys, strings = table
            assert keys.tolist() == sorted(keys.tolist())
            tables.append(sorted(strings.tolist()))
        assert misses == [
            ["0.0", "1.5", "2.5"], ["-0.0", "7.0", "nan"], ["2.5"], [], [],
        ]
        # each table holds the block's own distinct values; a block without
        # float columns passes the previous block's table on
        assert tables == [
            ["0.0", "1.5", "2.5"],
            ["-0.0", "0.0", "1.5", "7.0", "nan"],
            ["-0.0", "2.5", "7.0", "nan"],
            ["-0.0", "2.5", "7.0", "nan"],
            ["-0.0", "2.5", "7.0", "nan"],
        ]

    def test_repr_runs_once_per_value_missing_from_the_table(
        self, tmp_path, monkeypatch, usable_cpus
    ):
        usable_cpus(1)  # no forked worker
        formatted = shadow_repr(monkeypatch)
        run_ok(["scan", "--n", "400", "--out", str(tmp_path / "grid.csv")])
        # 192,179 values are distinct within their block and 60,367 within the
        # file; the previous block's reprs leave these to format
        assert len(formatted) == 151_222

    def test_bad_resolution(self, tmp_path):
        code, _, stderr = invoke(["scan", "--n", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "grid resolution must be >= 1, got 0" in stderr
        assert not (tmp_path / "x.csv").exists()

    @needs_peak_rss
    def test_peak_memory_does_not_grow_with_n(self, tmp_path):
        def peak_kib(n):
            out = tmp_path / f"grid{n}.csv"
            peak = peak_rss_kib("scan", "--n", str(n), "--out", str(out))
            out.unlink()  # 105 MB at n = 1200
            return peak

        small, large = peak_kib(300), peak_kib(1200)
        # 45,451 against 721,801 rows: 16 times the rows, under 10 MB more memory
        assert large - small < 10 * 1024, (small, large)

    @needs_peak_rss
    def test_peak_memory_over_the_import_is_bounded(self, tmp_path):
        args = ["--n", "400", "--out", str(tmp_path / "grid.csv")]
        extra = peak_rss_kib("scan", *args) - peak_rss_kib()
        # 3.7-3.8 MiB in blocks of 2^11 rows, each formatted with the previous
        # block's reprs, where blocks of 2^13 took 11.6 MB
        assert extra < 6 * 1024, extra


class TestCsvWriter:
    """`scan` and `boundary` write their CSVs through one writer."""

    #: golden entries of both commands
    OUTPUTS = [SCAN.format(9), SCAN.format(60), *map(BOUNDARY_500.format, "XYZ")]

    @pytest.mark.golden
    @pytest.mark.parametrize("rows", [1, 7, pauli_simplex.cli.SCAN_BLOCK_ROWS])
    @pytest.mark.parametrize("key", OUTPUTS, ids=golden_id)
    def test_block_size_does_not_change_bytes(self, tmp_path, monkeypatch, key, rows):
        monkeypatch.setattr(pauli_simplex.cli, "SCAN_BLOCK_ROWS", rows)
        assert_golden_run(key, tmp_path / "out.csv")

    @pytest.mark.golden
    @pytest.mark.parametrize("cap", [0, 1, 7])
    @pytest.mark.parametrize("key", OUTPUTS, ids=golden_id)
    def test_table_cap_does_not_change_bytes(self, tmp_path, monkeypatch, key, cap):
        # the table is a cache: any part of the previous block's reprs gives the same bytes
        monkeypatch.setattr(pauli_simplex.cli, "SCAN_BLOCK_ROWS", 7)
        capped_table(monkeypatch, cap)
        assert_golden_run(key, tmp_path / "out.csv")


class TestAtomicWrite:
    """A CSV appears complete under its name, or not at all."""

    @pytest.mark.parametrize("existing", [None, "old contents\n"])
    def test_failure_after_first_block(self, tmp_path, monkeypatch, existing):
        grid_rows = geometry._grid_rows

        def failing(n, k0, k1):
            if k0:  # every block after the first, in whichever process makes it
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return grid_rows(n, k0, k1)

        monkeypatch.setattr(geometry, "_grid_rows", failing)
        monkeypatch.setattr(pauli_simplex.cli, "SCAN_BLOCK_ROWS", 7)
        out = tmp_path / "grid.csv"
        if existing is not None:
            out.write_text(existing)
        code, stdout, stderr = invoke(["scan", "--n", "9", "--out", str(out)])
        assert code == 3
        reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert stderr == f"cannot write {out}: {reason}\n"
        assert stdout == ""
        if existing is None:
            assert os.listdir(tmp_path) == []
        else:
            assert os.listdir(tmp_path) == ["grid.csv"]
            assert out.read_text() == existing

    @pytest.mark.parametrize(
        "args", [["scan", "--n", "2"], ["boundary", "--region", "Y", "--points", "5"]]
    )
    @pytest.mark.parametrize("parent", ["missing", "file", "read-only"])
    def test_unwritable_directory(self, tmp_path, args, parent):
        where = tmp_path / parent
        if parent == "file":
            where.write_text("")
        elif parent == "read-only":
            if os.name != "posix" or os.geteuid() == 0:
                pytest.skip("permission bits do not bind this user")
            where.mkdir(mode=0o555)
        error = {"missing": errno.ENOENT, "file": errno.ENOTDIR, "read-only": errno.EACCES}[parent]
        out = where / "x.csv"
        before = sorted(tmp_path.rglob("*"))
        code, _, stderr = invoke([*args, "--out", str(out)])
        assert code == 3
        reason = f"[Errno {error}] {os.strerror(error)}: {str(out)!r}"
        assert stderr == f"cannot write {out}: {reason}\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.golden
    def test_replaces_longer_file(self, tmp_path):
        out = tmp_path / "grid.csv"
        out.write_bytes(b"x" * 100_000)
        assert_golden_run(SCAN.format(9), out)
        assert os.listdir(tmp_path) == ["grid.csv"]

    @pytest.mark.golden
    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX permission bits")
    @pytest.mark.parametrize(
        "key", [SCAN.format(9), BOUNDARY_500.format("Y")], ids=["scan", "boundary"]
    )
    def test_replaced_file_keeps_its_mode(self, tmp_path, key):
        out = tmp_path / "out.csv"
        out.write_text("old\n")
        out.chmod(0o600)
        assert_golden_run(key, out)
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.golden
    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
    def test_writes_through_symlink(self, tmp_path):
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "grid.csv"
        target.write_text("old\n")
        link = tmp_path / "grid.csv"
        link.symlink_to(target)
        assert_golden_run(SCAN.format(9), link)
        assert link.is_symlink()
        assert os.listdir(tmp_path / "data") == ["grid.csv"]

    @pytest.mark.golden
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_written_in_place(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        run_ok(golden_argv(SCAN.format(9), pipe))
        reader.join(timeout=30)
        assert_golden_bytes(received[0], SCAN.format(9))
        assert os.listdir(tmp_path) == ["pipe"]


    @pytest.mark.golden
    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_stdout_into_a_pipe_is_written_in_place(self):
        args = golden_argv(SCAN.format(9), "/dev/stdout")
        child = subprocess.run(
            [sys.executable, "-m", "pauli_simplex.cli", *args],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        summary = golden_stdout(SCAN.format(9), "/dev/stdout").encode()
        assert child.stdout.endswith(summary)
        assert_golden_bytes(child.stdout[: -len(summary)], SCAN.format(9))


def scaled(x):
    """2^63 x as exact Python ints, for floats x in [0, 2) that are multiples of 2^-63."""
    x = x * 2.0**63  # exact: a power of two
    assert np.all((x == np.floor(x)) & (0 <= x) & (x < 2.0**64))
    return x.astype(np.uint64).astype(object)


class TestWorkers:
    """`scan` and `boundary` share a file's blocks among forked workers, as
    many as `_procs.split` gives."""

    #: golden entries, by test id
    OUTPUTS = {
        "scan-9": SCAN.format(9),
        "scan-60": SCAN.format(60),
        "boundary-500": BOUNDARY_500.format("Y"),
    }

    @pytest.mark.golden
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("output", sorted(OUTPUTS))
    def test_worker_count_does_not_change_bytes(
        self, tmp_path, monkeypatch, forks, usable_cpus, output, cpus
    ):
        key = self.OUTPUTS[output]
        monkeypatch.setattr(pauli_simplex.cli, "SCAN_BLOCK_ROWS", 7)
        out = tmp_path / "out.csv"
        usable_cpus(1)
        alone = run_ok(golden_argv(key, out))
        usable_cpus(cpus)
        assert run_ok(golden_argv(key, out)) == alone
        assert_golden_bytes(out.read_bytes(), key)
        # this process writes the first range, each worker one of the next
        assert len(forks) == cpus - 1
        assert all(hi == lo for (_, hi), (lo, _) in zip(forks, forks[1:]))
        assert os.listdir(tmp_path) == ["out.csv"]
        assert_no_child_left()

    @pytest.mark.golden
    def test_more_cpus_than_blocks_give_one_worker_per_block(
        self, tmp_path, monkeypatch, forks, usable_cpus
    ):
        monkeypatch.setattr(pauli_simplex.cli, "SCAN_BLOCK_ROWS", 7)  # 55 rows in 8 blocks
        usable_cpus(12)
        assert_golden_run(SCAN.format(9), tmp_path / "grid.csv")
        assert forks == [(k, min(k + 7, 55)) for k in range(7, 55, 7)]
        assert_no_child_left()

    @pytest.mark.parametrize("rows", [1, 6, 7, 8, 21, 50])
    def test_one_worker_asks_for_consecutive_blocks(
        self, tmp_path, monkeypatch, usable_cpus, rows
    ):
        monkeypatch.setattr(pauli_simplex.cli, "SCAN_BLOCK_ROWS", 7)
        usable_cpus(1)
        ranges = []

        def make_rows(k0, k1):
            ranges.append((k0, k1))
            return [np.arange(k0, k1) / 4], k1 - k0

        out = tmp_path / "out.csv"
        assert pauli_simplex.cli._write_csv(str(out), ["x"], rows, make_rows) == rows
        # consecutive ranges of at most SCAN_BLOCK_ROWS rows, each row once
        assert ranges[0][0] == 0 and ranges[-1][1] == rows
        assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))
        assert all(0 < k1 - k0 <= 7 for k0, k1 in ranges)
        assert out.read_text() == "x\n" + "".join(f"{k / 4!r}\n" for k in range(rows))

    #: fork beside a running OpenBLAS pool, which `split` does not count:
    #: three Monte Carlo workers whatever the machine, then a BLAS job in a child
    BESIDE_BLAS = """
import os
import numpy as np
from pauli_simplex import _procs, geometry
square = np.ones((512, 512))
tasks = lambda: len(os.listdir("/proc/self/task"))
expected = geometry.monte_carlo_measures(3 << 18, 9, threads=1)
square @ square  # starts the pool
print(tasks())
forked, fork = [], _procs._fork
_procs._fork = lambda work, job: forked.append(job) or fork(work, job)
os.sched_getaffinity = lambda pid: {0, 1, 2}
print(geometry.monte_carlo_measures(3 << 18, 9) == expected, forked)
square @ square
product = lambda k: float((k * square @ square)[0, 0])
print(tasks(), _procs.forked(product, [(1,), (2,)], "BLAS job"))
"""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads on Linux")
    def test_forks_beside_a_running_openblas_pool(self):
        # OpenBLAS's fork handler stops the pool, so neither the Monte Carlo
        # workers nor a child's own matmul hang (run_child times out at 60 s)
        pool, mc, jobs = run_child(self.BESIDE_BLAS, OPENBLAS_NUM_THREADS="2").splitlines()
        if int(pool) < 2:
            pytest.skip("numpy started no BLAS thread pool")
        assert mc == "True [(1, 2), (2, 3)]"
        assert int(jobs.split()[0]) >= 2 and jobs.endswith("[512.0, 1024.0]")

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a null device")
    def test_device_is_written_by_this_process_alone(self, monkeypatch, forks, usable_cpus):
        monkeypatch.setattr(pauli_simplex.cli, "SCAN_BLOCK_ROWS", 7)
        usable_cpus(4)
        run_ok(["scan", "--n", "9", "--out", os.devnull])
        assert forks == []

    @pytest.mark.parametrize("existing", [None, "old contents\n"])
    def test_worker_failure_after_its_first_block(
        self, tmp_path, monkeypatch, usable_cpus, existing
    ):
        parent, grid_rows, made = os.getpid(), geometry._grid_rows, []

        def failing(n, k0, k1):
            # the workers fork before this process makes a block, so `made`
            # counts a worker's own blocks in its copy
            if os.getpid() != parent and made:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            made.append(k0)
            return grid_rows(n, k0, k1)

        monkeypatch.setattr(geometry, "_grid_rows", failing)
        monkeypatch.setattr(pauli_simplex.cli, "SCAN_BLOCK_ROWS", 7)  # 8 blocks: 2, 3 and 3 a process
        usable_cpus(3)
        out = tmp_path / "grid.csv"
        if existing is not None:
            out.write_text(existing)
        code, stdout, stderr = invoke(["scan", "--n", "9", "--out", str(out)])
        assert code == 3
        reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert stderr == f"cannot write {out}: {reason}\n"
        assert stdout == ""
        assert_no_child_left()
        # no temporary file and no part file
        assert os.listdir(tmp_path) == ([] if existing is None else ["grid.csv"])
        if existing is not None:
            assert out.read_text() == existing

    def test_worker_that_ends_without_a_report(self, tmp_path, monkeypatch, usable_cpus):
        parent, grid_rows = os.getpid(), geometry._grid_rows

        def ending(n, k0, k1):
            if os.getpid() != parent:
                os._exit(7)
            return grid_rows(n, k0, k1)

        monkeypatch.setattr(geometry, "_grid_rows", ending)
        monkeypatch.setattr(pauli_simplex.cli, "SCAN_BLOCK_ROWS", 7)
        usable_cpus(2)
        out = tmp_path / "grid.csv"
        code, _, stderr = invoke(["scan", "--n", "9", "--out", str(out)])
        assert code == 3
        reason = r"CSV worker \d+ stopped without a report \(wait status 1792\)"
        assert re.fullmatch(f"cannot write {re.escape(str(out))}: {reason}\n", stderr)
        assert_no_child_left()
        assert os.listdir(tmp_path) == []


@pytest.fixture(scope="module")
def scan_rows():
    """scan_rows(n): the (weights, uv, rates, codes) of every row of
    `geometry.scan_blocks(n)`, built once per n for this module."""

    @functools.cache
    def rows_of(n):
        rows, make_rows = geometry.scan_blocks(n)
        return make_rows(0, rows)

    return rows_of


class TestExactCertificate:
    """Every `scan` verdict is the exact sign of an integer polynomial.

    `region_codes` flags axis k when its float scaled rate is below 0.  On
    the n-lattice the exact scaled rate is P / n^3 for an integer P, so it
    is 0 or at least n^-3 away from 0; what can flip its sign is the
    rounding of i/n and of the float rate, which these checks bound by
    finding no disagreement.

    The coordinate columns a, b, c, u and v are checked against the lattice
    row, and the gamma_* columns against the exact limiting rates of the
    float row, in exact integer arithmetic on the floats' scaled mantissas.
    """

    def test_csv_of_forked_workers_at_n400(self, tmp_path, forks, usable_cpus):
        usable_cpus(2)
        out = tmp_path / "grid.csv"
        run_ok(["scan", "--n", "400", "--out", str(out)])
        assert len(forks) == 1
        with open(out, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        codes = np.array([{"": -1, "X": 0, "Y": 1, "Z": 2}[row[6]] for row in body])
        labels = np.array([row[5] for row in body])
        np.testing.assert_array_equal(labels == "MARKOVIAN", codes == -1)
        assert np.count_nonzero(codes != lattice_codes(400)) == 0

    def test_grid_rows_up_to_n60(self):
        # 39,710 rows, each the lattice point rounded once, with its exact verdict
        for n in range(1, 61):
            points = geometry.grid_weights(n)
            np.testing.assert_array_equal(points, np.column_stack(lattice(n)) / n)
            np.testing.assert_array_equal(region_codes(points), lattice_codes(n))

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_scan_blocks(self, n, scan_rows):
        if n == 1000:
            codes = scan_rows(n)[3]
        else:  # in blocks: whole, the rows at n = 2000 would take about 130 MB
            rows, make_rows = geometry.scan_blocks(n)
            step = 1 << 16
            codes = np.concatenate([make_rows(k, min(k + step, rows))[3] for k in range(0, rows, step)])
        assert np.count_nonzero(codes != lattice_codes(n)) == 0

    @pytest.mark.parametrize("n, over_one_ulp", [(400, 0), (1000, 424)])
    def test_scan_coordinates(self, n, over_one_ulp, scan_rows):
        # the columns a, b, c, u and v against the raw row (i/n, j/n, k/n),
        # whose divisions round once each
        weights, uv, _, _ = scan_rows(n)
        raw = np.column_stack(lattice(n)) / n
        a, b, c = raw.T
        u, v = uv.T
        # a, b and c are the raw row, bit for bit, where its float sum is 1
        exact = (a + b) + c == 1.0
        assert np.array_equal(weights[exact].view(np.int64), raw[exact].view(np.int64))
        # u is b + c/2 rounded to nearest: 2^64 (b + c/2) lies between the
        # midpoints to u's neighbours, on one only if u's last bit is even
        inner = (b > 0) | (c > 0)
        assert not u[~inner].any()
        u, b, c = u[inner], b[inner], c[inner]
        twice, own = 2 * scaled(b) + scaled(c), scaled(u)
        below = twice - (own + scaled(np.nextafter(u, 0)))
        above = own + scaled(np.nextafter(u, 2)) - twice
        assert np.all(below >= 0) and np.all(above >= 0)
        assert not (u[(below == 0) | (above == 0)].view(np.int64) & 1).any()
        # v is c √3/2 to within 1/2 + 1/√3 ulps: the product's rounding and
        # that of √3/2, which moves v by at most c 2^-54 <= ulp(v) / √3.  Times
        # 2√3, |2√3 v - 3c| <= (√3 + 2) ulp, squared in integers on each side
        has_c = raw[:, 2] > 0
        assert not v[~has_c].any()
        v = v[has_c]
        V, C, L = scaled(v), scaled(raw[has_c, 2]), scaled(np.spacing(v))
        assert np.all(3 * (2 * V - L) ** 2 <= (3 * C + 2 * L) ** 2)
        assert np.all((3 * C - 2 * L) ** 2 <= 3 * (2 * V + L) ** 2)
        # the bound is not 1 ulp: so many rows are further off
        beyond = ((2 * V - 2 * L) ** 2 > 3 * C**2) | (3 * C**2 > (2 * V + 2 * L) ** 2)
        assert np.count_nonzero(beyond) == over_one_ulp

    @pytest.mark.parametrize("n, step", [(400, 1), (1000, 7)], ids=["400", "1000-every-7th-row"])
    def test_scan_limit_rates(self, n, step, scan_rows):
        # every row at n = 400 and every 7th at n = 1000, where every row
        # takes about 4 s (2 vCPUs)
        rates = scan_rows(n)[2][::step]
        w = (np.column_stack(lattice(n)) / n)[::step]  # the float row, raw
        # the zero-weight terms diverge alike, so their signed multiplicity
        # on axis k, -z_k + z_i + z_j, puts the +inf and -inf cells
        zero = w == 0
        multiplicity = zero.sum(axis=1, keepdims=True) - 2 * zero
        assert np.array_equal(rates == np.inf, multiplicity > 0)
        assert np.array_equal(rates == -np.inf, multiplicity < 0)
        finite = multiplicity == 0
        assert np.all(np.isfinite(rates[finite]))
        # elsewhere they cancel and the rate is the sum of the other terms
        # t_k = (1 - w_k)/w_k, so a zero weight counts as w = 1, t = 0.  With
        # W = 2^63 w the rate of axis x is R_x / D, where D = W_x W_y W_z and
        # R_x = -P_x + P_y + P_z with P_x = (2^63 - W_x) W_y W_z >= 0, and
        # Σ|t_k| = S / D with S = P_x + P_y + P_z.
        W = scaled(np.where(zero, 1.0, w))
        wx, wy, wz = W.T
        px, py, pz = ((1 << 63) - W).T * np.stack([wy * wz, wz * wx, wx * wy])
        D, S = wx * wy * wz, px + py + pz
        R = np.column_stack([-px + py + pz, px - py + pz, px + py - pz])
        # limit_rates_array rounds each t_k twice, 1 - w_k and the quotient
        # (the scaling by 2^-64 and back is exact here), a relative error of
        # at most 2u + u^2 with u = 2^-53.  Each of the two signed additions
        # rounds once, by at most u times a partial sum no larger than
        # (1 + u)^3 Σ|t|.  So |gamma - R/D| <= (4u + 6u^2 + 4u^3 + u^4) Σ|t|,
        # under (4u + 8u^2) Σ|t| = 2^-106 (2^55 + 8) S / D.  A cell is
        # gamma = M 2^-s with an int M below 2^53; times 2^s D:
        # |M D - 2^s R| 2^106 <= (2^55 + 8) 2^s S
        mantissa, exponent = np.frexp(np.where(finite, rates, 0.0))
        M = (mantissa * 2.0**53).astype(np.int64).astype(object)
        shift = 53 - exponent
        assert shift.min() >= 0
        power = np.array([1 << s for s in range(shift.max() + 1)], dtype=object)[shift]
        error = abs(M * D[:, None] - power * R) << 106
        assert np.all(error[finite] <= (power * S[:, None] * ((1 << 55) + 8))[finite])


class TestMeasure:
    @pytest.mark.parametrize(
        "args", [["--method", "quad"], ["--method", "mc", "--samples", "1000"]]
    )
    def test_results_are_the_report_fields(self, args):
        record = json.loads(run_ok(["measure", *args, "--json"]))
        keys = ["region_x", "region_y", "region_z", "total", "markovian", "error"]
        assert list(record["results"]) == keys

    def test_single_sample_degenerate(self):
        stdout = run_ok(["measure", "--method", "mc", "--samples", "1", "--seed", "1", "--json"])
        record = json.loads(stdout)
        assert record["results"]["total"] in (0.0, 1.0)
        assert record["results"]["error"] == 0.5

    def test_worker_that_ends_without_a_report(self, monkeypatch, usable_cpus):
        parent, sample = os.getpid(), geometry.sample_simplex

        def ending(*args):
            if os.getpid() != parent:
                os._exit(7)
            return sample(*args)

        monkeypatch.setattr(geometry, "sample_simplex", ending)
        usable_cpus(2)
        args = ["measure", "--method", "mc", "--samples", str(2 << 18), "--threads", "2"]
        code, stdout, stderr = invoke(args)
        assert (code, stdout) == (3, "")
        assert re.fullmatch(r"MC worker \d+ stopped without a report \(wait status 1792\)\n", stderr)
        assert_no_child_left()

    def test_default_forks_one_worker_per_usable_cpu(self, forks, usable_cpus):
        # 5 chunks on 3 usable CPUs, capped by --threads or not: each child
        # counts its range of `_procs.split`, this process the chunks before
        # them, and the record is the one of a single worker
        args = ["measure", "--method", "mc", "--samples", str(5 << 18), "--json"]
        alone = run_ok([*args, "--threads", "1"])
        usable_cpus(3)
        for cap, jobs in (([], [(1, 3), (3, 5)]), (["--threads", "2"], [(2, 5)])):
            forks.clear()
            assert run_ok([*args, *cap]) == alone
            assert forks == jobs

    @needs_peak_rss
    def test_monte_carlo_peak_memory_is_bounded(self):
        args = ["--method", "mc", "--samples", str(1 << 21), "--threads", "2"]
        extra = peak_rss_kib("measure", *args) - peak_rss_kib()
        # one workspace of 2^14 rows per worker process: about 7.0 MB above
        # the import (two threads in one process took about 8.8 MB),
        # where allocating 2^15-row slices took about 13.6 MB and whole
        # 2^18-row chunks about 51 MB
        assert extra < 12 * 1024, extra

    def test_bad_method(self):
        assert invoke(["measure", "--method", "exact"])[0] == 2

    def test_bad_samples(self):
        assert invoke(["measure", "--method", "mc", "--samples", "0"])[0] == 2

    @pytest.mark.parametrize("tol", ["1e-16", "1e-300"])
    def test_unreachable_tolerance_is_usage_error(self, tol):
        args = ["measure", "--method", "quad", "--tol", tol]
        start = time.perf_counter()
        assert invoke(args)[0] == 2
        assert time.perf_counter() - start < 1.0
        # a fresh interpreter shows what a user sees, traceback included
        child = subprocess.run(
            [sys.executable, "-m", "pauli_simplex.cli", *args],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert child.returncode == 2
        assert "Traceback" not in child.stderr
        (line,) = [l for l in child.stderr.splitlines() if l.startswith("Error:")]
        assert f"tol={tol} not reached" in line


class TestBoundary:
    def test_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        run_ok(["boundary", "--region", "Y", "--points", "40", "--out", str(out)])
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "b", "c", "u", "v", "branch"]
        body = rows[1:]
        assert len(body) == 80
        # the two branches meet where the band closes
        join_lo = [float(v) for v in body[39][:3]]
        join_hi = [float(v) for v in body[40][:3]]
        assert join_lo == pytest.approx(join_hi, abs=1e-6)
        assert {row[5] for row in body} == {"-1", "1"}

    def test_golden_y4097_spans_five_blocks(self):
        # the golden curve fills five blocks, with the branch join and the
        # b = BAND_EDGE rows in the third
        rows = int(GOLDEN["boundary --region Y --points 4097 --out {out}"]["stdout"].split()[1])
        assert math.ceil(rows / pauli_simplex.cli.SCAN_BLOCK_ROWS) == 5

    @needs_peak_rss
    def test_peak_memory_does_not_grow_with_points(self, tmp_path):
        def peak_kib(points):
            out = tmp_path / f"curve{points}.csv"
            args = ["--region", "Y", "--points", str(points), "--out", str(out)]
            peak = peak_rss_kib("boundary", *args)
            out.unlink()  # 23 MB at 120,000 points
            return peak

        small, large = peak_kib(30_000), peak_kib(120_000)
        # 60,000 against 240,000 rows: about 0.1 MB more memory, where the
        # whole curve's arrays took 19 MB more
        assert large - small < 10 * 1024, (small, large)

    @needs_peak_rss
    def test_peak_memory_over_the_import_is_bounded(self, tmp_path):
        out = tmp_path / "curve.csv"
        peak = peak_rss_kib("boundary", "--region", "Y", "--points", "100000", "--out", str(out))
        out.unlink()  # 19 MB
        extra = peak - peak_rss_kib()
        # about 4.5 MiB in blocks of 2^11 rows, where the whole curve's arrays
        # took 23 MB and formatting them as one block 169 MB
        assert extra < 10 * 1024, extra

    def test_branch_endpoints_on_simplex_edge(self, tmp_path):
        out = tmp_path / "curve.csv"
        run_ok(["boundary", "--region", "Y", "--points", "10", "--out", str(out)])
        with open(out, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        first = [float(v) for v in body[0][:3]]
        last = [float(v) for v in body[-1][:3]]
        assert first == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        assert last == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_too_few_points(self, tmp_path):
        args = ["boundary", "--region", "Y", "--points", "1", "--out", str(tmp_path / "x.csv")]
        code, _, stderr = invoke(args)
        assert code == 2
        assert "need at least 2 points per branch, got 1" in stderr
        assert not (tmp_path / "x.csv").exists()


class TestChoi:
    def test_worked_example(self):
        stdout = run_ok(["choi", "--a", "0.1", "--q", "0.45", "--p", "0.4", "--json"])
        results = json.loads(stdout)["results"]
        # test_choi pins the spectrum's bits
        assert results["eigenvalues"][0] == results["min_eigenvalue"]
        assert abs(results["min_eigenvalue"] + 27 / 322) <= 1e-12
        assert results["verdict"] == "NONMARKOVIAN"
        assert results["cp"] is False

    def test_identity_intermediate_map(self):
        stdout = run_ok(["choi", "--a", "0.3", "--q", "0.2", "--p", "0.2", "--json"])
        record = json.loads(stdout)
        eigs = sorted(record["results"]["eigenvalues"])
        assert eigs == pytest.approx([0.0, 0.0, 0.0, 2.0], abs=1e-12)
        assert record["results"]["cp"] is True

    def test_oracle_agreement(self):
        stdout = run_ok(["choi", "--a", "0.5", "--q", "0.3", "--p", "0.1", "--oracle", "--json"])
        record = json.loads(stdout)
        assert record["results"]["oracle_max_deviation"] < 1e-12

    @pytest.mark.parametrize(
        "a, q, p",
        [("0", "0.499995", "0.499995"), ("0", "0.49999995", "0.49995")],
        ids=["identity-map", "near-half"],
    )
    def test_oracle_reports_its_error_near_half(self, a, q, p):
        stdout = run_ok(["choi", "--a", a, "--q", q, "--p", p, "--oracle", "--json"])
        deviation = json.loads(stdout)["results"]["oracle_max_deviation"]
        assert deviation <= 1e-15 / (1.0 - 2.0 * float(p))

    def test_backward_map_is_usage_error(self):
        code, _, stderr = invoke(["choi", "--a", "0.1", "--q", "0.3", "--p", "0.4"])
        assert code == 2
        assert "forward" in stderr

    def test_human_output_lists_eigenvalues(self):
        stdout = run_ok(["choi", "--a", "0.1", "--q", "0.45", "--p", "0.4"])
        assert "eigenvalues" in stdout
        assert "-0.0838509317" in stdout

    @pytest.mark.parametrize("flags", [[], ["--json"], ["--oracle"], ["--oracle", "--json"]])
    def test_builds_the_matrix_only_for_the_oracle(self, monkeypatch, flags):
        from pauli_simplex import oracles

        calls = {"choi_matrix": 0, "eigvalsh": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        builder = counted("choi_matrix", oracles.choi_matrix)
        monkeypatch.setattr(oracles, "choi_matrix", builder)
        # a front end that imported the builder would call it under its own name
        monkeypatch.setattr(pauli_simplex.cli, "choi_matrix", builder, raising=False)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        run_ok(["choi", "--a", "0.1", "--q", "0.45", "--p", "0.4", *flags])
        # the witness reads the closed-form spectrum; only the oracle builds a matrix
        assert calls == {"choi_matrix": int("--oracle" in flags), "eigvalsh": 0}


class TestUsageErrors:
    """A domain error exits 2 with the subcommand's usage and the message alone."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["classify", "--a", "-0.1", "--b", ".6", "--c", ".5"],
             "weights must be nonnegative, got (-0.1, 0.6, 0.5)"),
            (["classify", "--a", "nan", "--b", ".5", "--c", ".5"], "a must be finite, got nan"),
            (["choi", "--a", "1.5", "--q", ".3", "--p", ".2"],
             "mixing fraction a=1.5 outside [0, 1]"),
            # the transfer-matrix oracle at p next below 1/2
            (["choi", "--a", ".1", "--q", "0.4999999999999999", "--p", "0.4999999999999999",
              "--oracle"], "transfer matrix at p=0.4999999999999999 is singular"),
            (["measure", "--method", "mc", "--samples", "10", "--threads", "0"],
             "threads must be >= 1, got 0"),
            (["measure", "--method", "quad", "--tol", "-1"], "tol must be > 0, got -1.0"),
            (["rates", "--a", ".2", "--b", ".3", "--c", ".5", "--p", ".3", "--r", "-1",
              "--convention", "physical"], "decay constant r must be > 0, got -1.0"),
            # the reduced rates' cross-check would divide by a scale of 0
            (["rates", "--a", ".2", "--b", ".3", "--c", ".5", "--p", ".3", "--r", "5e-324"],
             "decay constant r=5e-324 is too small: the physical rate scale rounds to 0"),
            (["scan", "--n", "0", "--out", "unused.csv"], "grid resolution must be >= 1, got 0"),
            (["boundary", "--region", "Y", "--points", "1", "--out", "unused.csv"],
             "need at least 2 points per branch, got 1"),
            # the first sizes whose row indices would not fit in int64
            (["scan", "--n", "3037000499", "--out", "unused.csv"],
             "grid resolution must be <= 3037000498 (n (n + 3) < 2^63), got 3037000499"),
            (["boundary", "--region", "Y", "--points", str(1 << 62), "--out", "unused.csv"],
             f"need at most 2^62 - 1 points per branch, got {1 << 62}"),
            (["measure", "--method", "mc", "--samples", str(1 << 63)],
             f"need at most 2^63 - 1 samples, got {1 << 63}"),
        ],
        ids=[
            "classify-negative", "classify-nan", "choi-fraction", "choi-oracle-singular",
            "measure-threads", "measure-tol", "rates-r", "rates-r-underflow", "scan-resolution",
            "boundary-points", "scan-int64-limit", "boundary-int64-limit", "measure-int64-limit",
        ],
    )
    def test_usage_line_names_the_subcommand(self, args, message):
        code, stdout, stderr = invoke(args, prog_name="pauli-simplex")
        assert code == 2
        assert stdout == ""
        command = args[0]
        assert stderr == (
            f"Usage: pauli-simplex {command} [OPTIONS]\n"
            f"Try 'pauli-simplex {command} --help' for help.\n"
            f"\nError: {message}\n"
        )


class TestParserContract:
    """What the command line parser itself enforces, whichever library parses."""

    def test_version(self):
        code, stdout, _ = invoke(["--version"])
        assert code == 0
        assert stdout == "pauli-simplex, version 0.1.0\n"

    @pytest.mark.parametrize(
        "args", [["scan", "--n", "3"], ["boundary", "--region", "Y", "--points", "3"]],
        ids=["scan", "boundary"],
    )
    def test_out_naming_a_directory_is_usage_error(self, tmp_path, args):
        folder = tmp_path / "folder"
        folder.mkdir()
        code, stdout, _ = invoke([*args, "--out", str(folder)])
        assert code == 2
        assert stdout == ""
        assert list(tmp_path.rglob("*")) == [folder]

    @pytest.mark.parametrize("out", ["", "newdir/"], ids=["empty", "trailing-slash"])
    @pytest.mark.parametrize(
        "args", [["scan", "--n", "3"], ["boundary", "--region", "Y", "--points", "3"]],
        ids=["scan", "boundary"],
    )
    def test_out_that_can_only_name_a_directory_is_usage_error(
        self, tmp_path, monkeypatch, args, out
    ):
        # '' once wrote <cwd>.tmp-<pid> beside the working directory and
        # exited 3; newdir/ exited 0 with a regular file named newdir
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, stdout, stderr = invoke([*args, "--out", out])
        assert code == 2
        assert stdout == ""
        assert stderr.endswith(f"Error: file {out!r} names a directory\n")
        assert list(tmp_path.rglob("*")) == [work]

    @pytest.mark.parametrize(
        "args, token",
        [
            (["scan", "--n", "3"], "--out"),
            (["scan", "--n", "x", "--out", "unused.csv"], "'x'"),
            (["measure", "--method", "mc", "--samples", "1e3"], "'1e3'"),
            (["measure", "--method", "mc", "--no-such-option"], "--no-such-option"),
            # no option is matched by a prefix of its name
            (["measure", "--method", "mc", "--sam", "10"], "--sam"),
            (["measure", "--method", "exact"], "'exact'"),
        ],
        ids=["missing-out", "integer", "samples-float", "unknown", "abbreviation", "choice"],
    )
    def test_bad_command_line_is_usage_error(self, args, token):
        code, stdout, stderr = invoke(args, prog_name="pauli-simplex")
        assert code == 2
        assert stdout == ""
        command = args[0]
        head, message = stderr.split("\nError: ")
        assert head == (
            f"Usage: pauli-simplex {command} [OPTIONS]\n"
            f"Try 'pauli-simplex {command} --help' for help.\n"
        )
        assert token in message and "Traceback" not in message

    def test_negative_numbers_are_option_values(self):
        # whatever float() reads is a value, not an unknown option
        code, _, stderr = invoke(["classify", "--a", "-1e-3", "--b", ".5", "--c", ".5"])
        assert code == 2
        assert stderr.endswith("Error: weights must be nonnegative, got (-0.001, 0.5, 0.5)\n")
        stdout = run_ok(["choi", "--a", "-0e0", "--q", ".3", "--p", ".2", "--json"])
        assert json.loads(stdout)["params"]["a"] == 0.0
        code, _, stderr = invoke(["rates", "--a", ".2", "--b", ".3", "--c", ".5", "--p", "-inf"])
        assert code == 2
        assert stderr.endswith("Error: p must be finite, got -inf\n")


#: option values that int() or float() cannot read
NOT_NUMBERS = ["", "x", "1e", "--", "0x10", "None"]
#: floats at and beyond the edges of every domain, and any other float
HOSTILE_FLOATS = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "-0.0", "0", "5e-324",
                     "2.2250738585072014e-308", repr(math.nextafter(0.5, 0)), "0.5", "1",
                     "-1", "-1e-3", "1e308", *NOT_NUMBERS]),
    st.floats().map(repr),
)


def floats(low, high, **kwargs):
    """One float option value in [low, high]."""
    return st.floats(low, high, **kwargs).map(lambda x: (repr(x),))


def sizes(low, high):
    """One size option value in [low, high], small enough to run at once."""
    return st.integers(low, high).map(lambda n: (str(n),))


def refused(*values):
    """Option values refused before any work starts."""
    return st.sampled_from([*map(str, values), *NOT_NUMBERS, "1.5", "1e3", "nan"])


def flag(name):
    """An option that takes no value."""
    return (name,), st.just((None,)), None


#: the --a, --b, --c of a blend: a point of the simplex
BLEND = st.tuples(st.floats(0, 1), st.floats(0, 1)).map(
    lambda ab: ab if ab[0] + ab[1] <= 1 else (1 - ab[0], 1 - ab[1])
).map(lambda ab: tuple(map(repr, (*ab, 1 - ab[0] - ab[1]))))
#: the --a, --q, --p of `choi`: a fraction, then q >= p in [0, 1/2)
CHOI = st.tuples(st.floats(0, 1), *[st.floats(0, 0.5, exclude_max=True)] * 2).map(
    lambda apq: tuple(map(repr, (apq[0], max(apq[1:]), min(apq[1:]))))
)
#: --out targets in a fresh directory that holds a directory `dir`, a file
#: `file` and a directory `readonly` without write permission
OUT = (
    ("--out",),
    st.sampled_from([("{work}/out.csv",), ("{work}/file",)]),
    st.sampled_from(["{work}/dir", "{work}/dir/", "{work}/newdir/", "{work}/missing/out.csv",
                     "{work}/file/out.csv", "{work}/readonly/out.csv", "", ".", ".."]),
)
#: each command's options: (names, valid values for them all, hostile values for one)
OPTIONS = {
    "rates": [(("--a", "--b", "--c"), BLEND, HOSTILE_FLOATS),
              (("--p",), floats(0, 0.5, exclude_max=True), HOSTILE_FLOATS),
              (("--r",), floats(1e-3, 1e3), HOSTILE_FLOATS),
              (("--convention",), st.sampled_from([("reduced",), ("physical",)]),
               st.sampled_from(["other", ""])),
              flag("--json")],
    "classify": [(("--a", "--b", "--c"), BLEND, HOSTILE_FLOATS), flag("--json")],
    "scan": [(("--n",), sizes(1, 30), refused(0, -1, -(1 << 63), 3037000499, 1 << 63, 10**20)),
             OUT],
    "measure": [(("--method",), st.sampled_from([("quad",), ("mc",)]), st.just("exact")),
                (("--tol",), floats(1e-14, 1e-2), HOSTILE_FLOATS),
                (("--samples",), sizes(1, 3000), refused(0, -1, 1 << 63, 10**20)),
                (("--seed",), sizes(0, 1 << 128), refused(-1, -(10**20))),
                # a huge --threads is only a cap: one chunk of samples forks no worker
                (("--threads",), st.sampled_from([("1",), ("4",), (str(1 << 63),), (str(10**20),)]),
                 refused(0, -1)),
                flag("--json")],
    "boundary": [(("--region",), st.sampled_from([("X",), ("Y",), ("Z",)]),
                  st.sampled_from(["W", ""])),
                 (("--points",), sizes(2, 40), refused(1, 0, -1, 1 << 62, 10**20)),
                 OUT],
    "choi": [(("--a", "--q", "--p"), CHOI, HOSTILE_FLOATS), flag("--oracle"), flag("--json")],
}


@st.composite
def command_lines(draw):
    """A command with each option left out one time in five, and a value
    given replaced by a hostile one one time in four."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for names, valid, hostile in OPTIONS[command]:
        for name, value in zip(names, draw(valid)):
            if not draw(st.integers(0, 4)):
                continue
            if value is not None and not draw(st.integers(0, 3)):
                value = draw(hostile)
            argv += [name] if value is None else [name, value]
    return argv


class TestHostileInput:
    """Hostile values for every command and option end with exit 0, 2 or 3,
    no traceback, and no file but a complete target."""

    @given(argv=command_lines())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_code_and_files(self, tmp_path, forks, usable_cpus, argv):
        usable_cpus(2)  # so at most one forked worker, whatever --threads says
        forks.clear()
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        (work / "dir").mkdir()
        (work / "file").write_text("old\n")
        (work / "readonly").mkdir(mode=0o500)
        before = set(work.rglob("*"))
        argv = [arg.replace("{work}", str(work)) for arg in argv]
        code, stdout, stderr = invoke(argv)
        assert code in (0, 2, 3), stderr
        assert "Traceback" not in stderr
        written = re.fullmatch(r"wrote (\d+) rows to (.*?)( \(markovian .*\))?\n", stdout)
        if written:
            target = Path(written[2]).resolve()
            lines = target.read_text().split("\n")
            assert len(lines) == int(written[1]) + 2 and lines[-1] == "", target
            assert set(work.rglob("*")) - before <= {target}
        else:
            assert set(work.rglob("*")) == before
            assert (work / "file").read_text() == "old\n"
        assert len(forks) <= 1
        (work / "readonly").chmod(0o700)
        shutil.rmtree(work)


class TestConsoleScript:
    """`main`, the console script, freezes the import-time heap; `cli` freezes nothing."""

    CLASSIFY = ["classify", "--a", ".45", "--b", ".1", "--c", ".45", "--json"]
    #: run the command through `main`, or as `python -m` does, then report the freeze
    FROZEN = """
import gc, runpy, sys
if sys.argv[1] == "main":
    from pauli_simplex.cli import main
    sys.argv[1:] = sys.argv[2:]
    main()
else:
    sys.argv[1:] = sys.argv[2:]
    runpy.run_module("pauli_simplex.cli", run_name="__main__", alter_sys=True)
print(gc.get_freeze_count())
"""

    @pytest.mark.parametrize("entry", ["main", "-m"])
    def test_main_freezes_the_heap(self, entry):
        child = subprocess.run(
            [sys.executable, "-c", self.FROZEN, entry, *self.CLASSIFY],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        record, frozen = child.stdout.rsplit("\n", 2)[:2]
        assert record + "\n" == run_ok(self.CLASSIFY)
        # the imports leave about 21,000 objects, numpy's most of them
        assert int(frozen) > 10_000

    #: `scan --n N --out OUT` through `main` with two usable CPUs, so one
    #: forked CSV worker, which sleeps 50 ms a block; prints the worker's pid
    #: once it is forked, then "waiting" once this process's range is written
    SIGNALLED = """
import os, sys, time
from pauli_simplex import _procs, cli, geometry
os.sched_getaffinity = lambda pid: {0, 1}
parent, fork, grid_rows, write_blocks = os.getpid(), _procs._fork, geometry._grid_rows, cli._write_blocks
def reporting(work, job):
    pid, read = fork(work, job)
    print(pid, flush=True)
    return pid, read
def slow_worker(n, k0, k1):
    if os.getpid() != parent:
        time.sleep(0.05)
    return grid_rows(n, k0, k1)
def own_range(fh, make_rows, k0, k1):
    tally = write_blocks(fh, make_rows, k0, k1)
    if os.getpid() == parent:
        print("waiting", flush=True)
    return tally
_procs._fork, geometry._grid_rows, cli._write_blocks = reporting, slow_worker, own_range
sys.argv[1:] = ["scan", "--n", sys.argv[2], "--out", sys.argv[1]]
cli.main()
"""

    @contextlib.contextmanager
    def signalled_scan(self, tmp_path, n):
        """Run SIGNALLED on `scan --n n`; yield the command's Popen and its
        worker's pid once the worker's part file exists; kill both at the end."""
        child = subprocess.Popen(
            [sys.executable, "-c", self.SIGNALLED, str(tmp_path / "out.csv"), n],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        worker = None
        try:
            worker = int(child.stdout.readline())
            deadline = time.monotonic() + 30
            while not any(name.endswith(".1") for name in os.listdir(tmp_path)):
                assert child.poll() is None and time.monotonic() < deadline, os.listdir(tmp_path)
                time.sleep(0.005)
            yield child, worker
        finally:
            if worker is not None:  # a worker left running would hold the pipes open
                with contextlib.suppress(ProcessLookupError):
                    os.kill(worker, signal.SIGKILL)
            child.kill()
            child.communicate(timeout=30)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("moment", ["writing", "waiting"])
    @pytest.mark.parametrize(
        "signum, group, code",
        [(signal.SIGTERM, False, 143), (signal.SIGINT, True, 130)],
        ids=["sigterm", "ctrl-c"],
    )
    def test_signal_leaves_no_file_and_no_worker(self, tmp_path, signum, group, code, moment):
        # SIGTERM to the command, or SIGINT to its process group as Ctrl-C
        # sends it: while the command writes its half of 200 million rows, or
        # once it waits for the worker's half of 80,601
        n = {"writing": "20000", "waiting": "400"}[moment]
        with self.signalled_scan(tmp_path, n) as (child, worker):
            if moment == "waiting":
                assert child.stdout.readline() == "waiting\n"
            (os.killpg if group else os.kill)(child.pid, signum)
            assert child.wait(timeout=30) == code
            with pytest.raises(ProcessLookupError):  # reaped, not left running
                os.kill(worker, 0)
            # no traceback, from the command or its worker
            assert child.communicate(timeout=30) == ("", "")
            assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_sigkill_leaves_no_worker(self, tmp_path):
        # SIGKILL to the command while it writes its half of 200 million
        # rows: nothing removes its temporary file, but its worker finds
        # another parent before its next block, removes its part file and ends
        with self.signalled_scan(tmp_path, "20000") as (child, worker):
            child.kill()
            assert child.wait(timeout=30) == -signal.SIGKILL
            # the worker holds the command's stdout and stderr until it ends,
            # so they close only once it has; it prints no traceback
            assert child.communicate(timeout=2) == ("", "")
            assert os.listdir(tmp_path) == [f"out.csv.tmp-{child.pid}"]

    def test_cli_in_process_freezes_nothing(self, tmp_path):
        assert gc.get_freeze_count() == 0
        run_ok(self.CLASSIFY)
        run_ok(["measure", "--method", "mc", "--samples", str(1 << 19), "--threads", "2"])
        run_ok(["scan", "--n", "9", "--out", str(tmp_path / "grid.csv")])
        assert gc.get_freeze_count() == 0


class TestRecordFormat:
    def test_json_numbers_round_trip(self):
        stdout = run_ok(["rates", "--a", ".2", "--b", ".3", "--c", ".5", "--p", ".3", "--json"])
        record = json.loads(stdout)
        assert record["command"] == "rates"
        assert record["version"]
        text = json.dumps(record)
        assert json.loads(text) == record

    def test_human_mode_significant_digits(self):
        stdout = run_ok(["measure", "--method", "quad"])
        line = [l for l in stdout.splitlines() if l.startswith("region_y")][0]
        value = line.split()[-1]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 9

    @pytest.mark.parametrize("args", [
        ["rates", "--a", ".2", "--b", ".3", "--c", ".5", "--p", ".2"],
        ["classify", "--a", ".45", "--b", ".1", "--c", ".45"],
        ["measure", "--method", "quad"],
        ["measure", "--method", "mc", "--samples", "1000"],
        ["choi", "--a", ".1", "--q", ".45", "--p", ".4"],
        ["choi", "--a", ".1", "--q", ".45", "--p", ".4", "--oracle"],
    ], ids=["rates", "classify", "quad", "mc", "choi", "choi-oracle"])
    def test_human_record_has_one_value_column(self, args):
        record = json.loads(run_ok([*args, "--json"]))
        fields = {"command": record["command"], **record["params"], **record["results"]}

        def human(value):
            if isinstance(value, list):
                return " ".join(map(human, value))
            return format(value, ".9g") if isinstance(value, float) else str(value)

        lines = run_ok(args).splitlines()
        width = max(map(len, fields))
        # each key once, in the record's order, and every value one past the longest key
        assert [line[:width].rstrip() for line in lines] == list(fields)
        assert [line[width:] for line in lines] == [f" {human(v)}" for v in fields.values()]


class TestReadme:
    def test_json_example_is_real_output(self):
        (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        example = json.loads(block)
        params = example["params"]
        args = ["measure", "--method", params["method"], "--samples", str(params["samples"]),
                "--seed", str(params["seed"]), "--json"]
        # byte for byte the one line the CLI prints, on one thread and on two
        for threads in ("1", "2"):
            stdout = run_ok([*args, "--threads", threads])
            assert stdout == json.dumps(example) + "\n", threads

    def test_library_example_is_real_output(self):
        (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        body = ast.parse(block).body
        namespace, values = {}, {}
        for node in body:
            if isinstance(node, ast.Expr):  # a bare call: keep its value by name
                code = compile(ast.Expression(node.value), "README", "eval")
                values[node.value.func.id] = eval(code, namespace)
            else:
                exec(compile(ast.Module([node], []), "README", "exec"), namespace)
        (imports,) = [node for node in body if isinstance(node, ast.ImportFrom)]
        assert sorted(pauli_simplex.__all__) == sorted(
            ["__version__", *(alias.name for alias in imports.names)]
        )
        label = values["classify"]
        assert (label.tag, label.region) == ("NONMARKOVIAN", "Y")
        assert abs(values["total_measures"].region_y - 0.28980212068360562) <= 1e-12
        assert abs(values["rhp_witness"].min_eigenvalue + 27 / 322) <= 1e-15


class TestImportCost:
    """`import pauli_simplex` is light, and the CLI runs BLAS on one thread."""

    def test_package_import_leaves_numpy_unloaded(self):
        code = "import sys, pauli_simplex; print('numpy' in sys.modules)"
        assert run_child(code) == "False\n"

    def test_cli_import_leaves_futures_logging_and_oracles_unloaded(self):
        # the CLI does not load `choi`, which only its own command imports.
        # With `choi` imported too, every core module is loaded, so the second
        # line also holds if any of them imported the oracles; the CSV workers
        # are plain forks, with no process pool and no shutil copy.  -S skips
        # the site module, whose .pth files may import shutil at start-up, so
        # the site-packages directories go on the path by hand
        code = """
import sys, pauli_simplex.cli
print("pauli_simplex.choi" in sys.modules)
import pauli_simplex.choi
unwanted = {"concurrent.futures", "logging", "multiprocessing", "pauli_simplex.oracles", "shutil"}
print(sorted(unwanted & set(sys.modules)))
"""
        path = os.pathsep.join([child_env()["PYTHONPATH"], *site.getsitepackages()])
        assert run_child(code, "-S", PYTHONPATH=path) == "False\n[]\n"

    def test_cli_import_leaves_json_dataclasses_and_numpy_extras_unloaded(self):
        # json loads only under --json and numpy.polynomial only under
        # `measure --method quad`; numpy.random, which `measure --method mc`
        # loads, is kept out by geometry's `from __future__ import
        # annotations` (without it, its np.random.Generator annotation cost
        # every command's import about 6 ms and 5 MB of peak memory).  The
        # records are named tuples, so `choi` adds no dataclasses either.
        # -S as above
        code = """
import sys, pauli_simplex.cli
print(sorted({"json", "dataclasses", "numpy.random", "numpy.polynomial"} & set(sys.modules)))
import pauli_simplex.choi
print("dataclasses" in sys.modules)
"""
        path = os.pathsep.join([child_env()["PYTHONPATH"], *site.getsitepackages()])
        assert run_child(code, "-S", PYTHONPATH=path) == "[]\nFalse\n"

    #: the names that `perfbench/verify_scalar.py` still reads from their old modules
    FORWARDED = [
        ("choi", "a_matrix_choi"),
        ("choi", "choi_matrix"),
        ("divisibility", "rate_minima_over_grid"),
        ("generator", "finite_difference_rates"),
    ]

    @pytest.mark.parametrize("module, name", FORWARDED)
    def test_forwarded_name_loads_the_oracles_only_when_read(self, module, name):
        code = f"""
import sys
from pauli_simplex import {module}
print("pauli_simplex.oracles" in sys.modules)
value = {module}.{name}
from pauli_simplex import oracles
print(value is oracles.{name})
"""
        assert run_child(code) == "False\nTrue\n"

    def test_no_other_name_is_forwarded(self):
        # the moved names that verify_scalar.py does not import, and a name
        # that never existed, fail as plain missing attributes
        code = """
import sys
from pauli_simplex import choi, divisibility, generator
for module, name in [(choi, "ChoiMatrix"), (choi, "a_matrix"), (choi, "_reshuffle"),
                     (divisibility, "default_scan_grid"), (generator, "no_such_name")]:
    try:
        getattr(module, name)
    except AttributeError as exc:
        print(exc)
print("pauli_simplex.oracles" in sys.modules)
"""
        assert run_child(code).splitlines() == [
            "module 'pauli_simplex.choi' has no attribute 'ChoiMatrix'",
            "module 'pauli_simplex.choi' has no attribute 'a_matrix'",
            "module 'pauli_simplex.choi' has no attribute '_reshuffle'",
            "module 'pauli_simplex.divisibility' has no attribute 'default_scan_grid'",
            "module 'pauli_simplex.generator' has no attribute 'no_such_name'",
            "False",
        ]

    def test_verify_scalar_imports_work_verbatim(self):
        source = (ROOT / "perfbench" / "verify_scalar.py").read_text().splitlines()
        old = ("from pauli_simplex.choi ", "from pauli_simplex.divisibility ",
               "from pauli_simplex.generator ")
        lines = [line for line in source if line.startswith(old)]
        assert len(lines) == 3
        code = "\n".join([*lines, "import sys", "print('pauli_simplex.oracles' in sys.modules)"])
        assert run_child(code) == "True\n"

    def test_perfbench_pins_match_golden(self):
        # perfbench/run.py keeps its own copies of two golden entries until it
        # reads tests/golden.json; re-pinning one without the other fails here
        def constants(name, *names):
            tree = ast.parse((ROOT / "perfbench" / name).read_text())
            values = {
                target.id: ast.literal_eval(node.value)
                for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if target.id in names
            }
            assert sorted(values) == sorted(names), name
            return values

        run = constants("run.py", "SCAN_ROWS", "SCAN_BYTES", "SCAN_SHA256", "SCAN_MARKOVIAN",
                        "MC_PINNED_SEED", "MC_PINNED")
        traced = constants("traced.py", "SCAN_N", "MC_SAMPLES")
        assert GOLDEN[SCAN.format(traced["SCAN_N"])] == {
            "stdout": f"wrote {run['SCAN_ROWS']} rows to {{out}} "
                      f"(markovian fraction {run['SCAN_MARKOVIAN']})\n",
            "bytes": run["SCAN_BYTES"],
            "sha256": run["SCAN_SHA256"],
        }
        samples, seed = traced["MC_SAMPLES"], run["MC_PINNED_SEED"]
        key = f"measure --method mc --samples {samples} --seed {seed} --json"
        record = json.loads(GOLDEN[key]["stdout"])
        assert record["params"] == {"method": "mc", "samples": samples, "seed": seed}
        pinned = [record["results"][k] for k in ("region_x", "region_y", "region_z", "total")]
        assert pinned == run["MC_PINNED"]

    #: run one command as `perfbench/traced.py` does, where click is importable
    TRACED_RUN = """
from click.testing import CliRunner
from pauli_simplex.cli import cli
result = CliRunner().invoke(cli, {args!r})
print(result.exit_code)
print(result.stdout, end="")
"""

    def test_traced_wrap_targets_and_cli_run_work(self):
        # the `name, main` shim at the end of cli.py serves this run alone
        source = (ROOT / "perfbench" / "traced.py").read_text()
        wraps = [
            (node.args[0].id, node.args[1].value)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "tracer.wrap"
        ]
        assert len(wraps) == 7
        for module, name in wraps:
            target = getattr(importlib.import_module(f"pauli_simplex.{module}"), name, None)
            assert callable(target), (module, name)
        try:
            importlib.metadata.version("click")
        except importlib.metadata.PackageNotFoundError:
            pytest.skip("click is not installed")
        # the record that TestClassify.test_nonmarkovian_json pins
        classify = ["classify", "--a", ".45", "--b", ".1", "--c", ".45", "--json"]
        assert run_child(self.TRACED_RUN.format(args=classify)) == "0\n" + run_ok(classify)

    @pytest.mark.parametrize(
        "args, loads",
        [
            (["classify", "--a", ".45", "--b", ".1", "--c", ".45"], False),
            (["scan", "--n", "9", "--out", "OUT"], False),
            (["boundary", "--region", "Y", "--points", "50", "--out", "OUT"], False),
            (["measure", "--method", "quad"], False),
            (["measure", "--method", "mc", "--samples", "10000", "--seed", "42"], False),
            (["choi", "--a", ".1", "--q", ".45", "--p", ".4", "--json"], False),
            (["rates", "--a", ".2", "--b", ".3", "--c", ".5", "--p", ".2"], True),
            (["choi", "--a", ".1", "--q", ".45", "--p", ".4", "--oracle"], True),
        ],
        ids=["classify", "scan", "boundary", "quad", "mc", "choi", "rates", "choi-oracle"],
    )
    def test_only_rates_and_the_choi_oracle_load_the_oracles(self, tmp_path, args, loads):
        args = [str(tmp_path / "out.csv") if arg == "OUT" else arg for arg in args]
        code = f"""
import sys
from pauli_simplex.cli import cli
cli({args!r})
print("pauli_simplex.oracles" in sys.modules, "pauli_simplex.choi" in sys.modules)
"""
        # only the `choi` command loads `choi`: the oracles take their
        # validation from `channels`
        assert run_child(code).splitlines()[-1] == f"{loads} {args[0] == 'choi'}"

    def test_every_public_name_resolves(self):
        code = """
import pauli_simplex
for name in pauli_simplex.__all__:
    assert getattr(pauli_simplex, name) is not None, name
    assert name in dir(pauli_simplex), name
from pauli_simplex import MixtureWeights, classify
from pauli_simplex.channels import MixtureWeights as defined
assert MixtureWeights is defined
try:
    pauli_simplex.no_such_name
except AttributeError as exc:
    print(exc)
"""
        assert run_child(code) == "module 'pauli_simplex' has no attribute 'no_such_name'\n"

    CLI_BLAS = """
import os, sys, pauli_simplex.cli
tasks = len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else 1
print(os.environ.get("OPENBLAS_NUM_THREADS"), tasks)
"""

    def test_cli_runs_blas_on_one_thread(self):
        assert run_child(self.CLI_BLAS) == "1 1\n"

    def test_caller_setting_wins(self):
        assert run_child(self.CLI_BLAS, OPENBLAS_NUM_THREADS="2").split()[0] == "2"
