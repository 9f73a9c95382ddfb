"""opuclab benchmark: end-to-end and per-layer metrics of ``opuclab run``.

One operation does what ``opuclab run`` does: ``run_experiment(config)``
followed by ``write_outputs`` into a fresh directory.  Every operation is
checked: it fails if it raises or if its verdict status list differs from
the reference in ``perfbench/reference.json``.  Run from the repository
root::

    python3 perfbench/run.py                  # every workload, end-to-end
    python3 perfbench/run.py --trace 1        # every workload, per-layer
    python3 perfbench/run.py --workload geronimus-cascade --seed 2 \\
        --seconds 20 --trace 0

For each workload the benchmark prints its metrics by name with units,
the output check and the environment, then one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with a single
``--workload`` that line is the last line of standard output.

``--trace 0`` metrics:

* ``run_s``: median seconds of one operation, timed after an untimed
  warm-up operation, each scaled to a reference machine speed by a
  calibration timed around it (see ``CALIBRATION_REF_S``); the wall
  median is printed beside it.
* ``setup_s``: median over fresh interpreters of ``import opuclab`` plus
  ``load_config``, each scaled the same way.
* ``peak_mb``: tracemalloc peak of one ``run_experiment``, taken in the
  warm-up operation because tracing slows the mpmath cascade several-fold.

``--trace 1`` alternates untraced and traced operations after a warm-up
and reports the per-layer metrics of ``perfbench/layers.py`` as medians
over the traced operations, with the tracing overhead as the traced minus
the untraced median operation time.

The workload seed becomes the config's ``seed`` field, from which the
verdicts draw their interior sample points.  The process starts no
threads; OpenBLAS is pinned to one thread so that runs on a shared
machine repeat.  Set-up probes are child interpreters, run one at a time.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SECONDS = 3.0

# Shared hosts change this machine's speed by tens of percent for tens of
# seconds to minutes at a time.  Scaled timings divide each call
# by a calibration timed on either side of it, lasting CALIBRATION_SHARE
# of the call, and give seconds at the speed where a calibration pass
# takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.1
CALIBRATION_SHARE = 0.2
CALIBRATION_BLOCK = 4 << 20  # float64 elements copied per calibration pass

WORKLOADS = {
    "ell2-cmv-deep": {
        "why": (
            "CMV tables: extended-precision transfer recursion, nine CMV "
            "rebuilds and the 2N rebuild at 65536 nodes; no mpmath"
        ),
        "config": {
            "family": {"name": "ell2", "c": 0.5, "p": 1.0},
            "grid_size": 32768,
            "n_list": [16, 64, 256],
            "experiment": "all",
        },
    },
    "mixed-mnt-quadrature": {
        "why": (
            "Poisson and entropy-profile quadrature with atom branches plus "
            "family builds; no CMV tables and no mpmath"
        ),
        "config": {
            "family": {
                "name": "mixed",
                "base": {"name": "bernstein_szego", "r": 0.3},
                "atoms": [{"angle": 2.0, "mass": 0.2}],
            },
            "grid_size": 16384,
            "n_list": [4, 16, 64, 256],
            "experiment": "mnt",
            "delta_grid_size": 256,
        },
    },
    "geronimus-cascade": {
        "why": (
            "pure-Python mpmath Schur cascade plus many one-point transfer "
            "calls, so per-call overhead shows"
        ),
        "config": {
            "family": {"name": "geronimus", "a": 0.6},
            "grid_size": 4096,
            "n_list": [4, 16, 64],
            "experiment": "all",
        },
    },
}

# A fresh interpreter: seconds to import opuclab and load one config.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import opuclab
opuclab.load_config(sys.argv[2])
print(time.perf_counter() - start)
"""


class OutputMismatch(Exception):
    """An operation's verdict statuses differ from the reference."""


class Runner:
    """Operations of one workload, with their output check and counts."""

    def __init__(self, workload, seed, work_dir):
        from opuclab import config_from_dict

        self.workload = workload
        self.config = config_from_dict(dict(WORKLOADS[workload]["config"], seed=seed))
        with open(HERE / "reference.json", encoding="utf-8") as handle:
            self.reference = json.load(handle)[workload]
        self.work_dir = work_dir
        self.attempted = 0
        self.failures = []
        self.csv_sha256 = set()
        self.peak_bytes = None
        self.config_path = Path(work_dir, f"{workload}.json")
        self.config_path.write_text(json.dumps(self.config.echo()), encoding="utf-8")

    def operation(self, trace_memory=False):
        """Run and check one operation; returns its wall seconds."""
        from opuclab import run_experiment, write_outputs

        self.attempted += 1
        out_dir = tempfile.mkdtemp(dir=self.work_dir)
        gc.collect()
        start = time.perf_counter()
        try:
            if trace_memory:
                tracemalloc.start()
            try:
                outcome = run_experiment(self.config)
            finally:
                if trace_memory:
                    self.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            write_outputs(outcome, out_dir)
            seconds = time.perf_counter() - start
            self._check(outcome, out_dir)
        except Exception as exc:  # a failed operation is counted, not fatal
            seconds = time.perf_counter() - start
            self.failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(out_dir)
        return seconds

    def _check(self, outcome, out_dir):
        statuses = [[v.name, v.status] for v in outcome.verdicts]
        if statuses != self.reference:
            wrong = [f"{n}={s}" for n, s in statuses if [n, s] not in self.reference]
            raise OutputMismatch(
                f"{len(statuses)} verdicts, {len(self.reference)} expected; "
                f"differing: {', '.join(wrong) or 'order'}"
            )
        digest = hashlib.sha256()
        for name in sorted(os.listdir(out_dir)):
            if name.endswith(".csv"):
                digest.update(name.encode() + b"\0")
                digest.update(Path(out_dir, name).read_bytes())
        self.csv_sha256.add(digest.hexdigest())

    def setup_probe(self):
        """Seconds a fresh interpreter takes to import opuclab and load the config."""
        probe = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(self.config_path)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return float(probe.stdout.strip().splitlines()[-1])


def timed(seconds, step):
    """Call ``step`` for about ``seconds``; returns its results.

    Starts no call predicted, from the last one, to end past the budget,
    and always makes at least one.
    """
    results = []
    start = time.perf_counter()
    last = 0.0
    while not results or time.perf_counter() - start + last <= seconds:
        begun = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - begun
    return results


def calibration_pass(block):
    """Seconds for fixed work that runs no opuclab code.

    A mix of interpreter loops, object allocation and memory copies, the
    three kinds of work the workloads spend their time in.
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    objects = [{"key": i, "value": [i]} for i in range(60_000)]
    for _ in range(4):
        block.copy()
    del objects
    return time.perf_counter() - start


def calibration_seconds(block, budget):
    """Median calibration pass over about ``budget`` seconds of passes."""
    return statistics.median(timed(budget, lambda: calibration_pass(block)))


def calibrated(seconds, step, block, expected):
    """Call ``step`` for about ``seconds``, calibrating before and after each.

    ``step`` returns its seconds; ``expected`` sizes the first calibration.
    Returns (wall seconds, scaled seconds) per call.
    """
    calibrations = [calibration_seconds(block, CALIBRATION_SHARE * expected)]
    walls = []

    def one():
        walls.append(step())
        calibrations.append(calibration_seconds(block, CALIBRATION_SHARE * walls[-1]))

    timed(seconds, one)
    scaled = [
        wall * CALIBRATION_REF_S / ((before + after) / 2)
        for wall, before, after in zip(walls, calibrations, calibrations[1:])
    ]
    return walls, scaled


def end_to_end(runner, seconds):
    import numpy as np

    block = np.ones(CALIBRATION_BLOCK)
    probes, setup = calibrated(SETUP_SECONDS, runner.setup_probe, block, 0.0)
    warm_up = runner.operation(trace_memory=True)  # its peak is peak_mb
    walls, scaled = calibrated(seconds, runner.operation, block, warm_up)
    metrics = {
        "run_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_mb": (runner.peak_bytes / 1e6, "MB"),
    }
    notes = [
        f"run_s: median of {len(walls)} operations, each scaled to the "
        f"reference speed; wall median {statistics.median(walls):.4f} s "
        f"(min {min(walls):.4f}, max {max(walls):.4f})",
        f"setup_s: median of {len(probes)} fresh interpreters, each scaled to "
        f"the reference speed; wall median {statistics.median(probes):.4f} s",
        "peak_mb: tracemalloc peak of run_experiment in the warm-up operation",
    ]
    return metrics, notes


def per_layer(runner, seconds):
    from layers import Recorder, median_metrics, traced

    runner.operation()  # warm-up
    untraced, traced_times, per_op = [], [], []
    missing = []

    def pair():
        untraced.append(runner.operation())
        recorder = Recorder()
        with traced(recorder) as absent:
            traced_times.append(runner.operation())
        missing[:] = absent
        per_op.append(recorder.metrics())
        return untraced[-1] + traced_times[-1]

    timed(seconds, pair)
    metrics = median_metrics(per_op)
    plain, slow = statistics.median(untraced), statistics.median(traced_times)
    metrics["trace.untraced_run_s"] = (plain, "s")
    metrics["trace.traced_run_s"] = (slow, "s")
    metrics["trace.overhead_s"] = (slow - plain, "s")
    notes = [
        f"medians over {len(per_op)} traced and {len(untraced)} untraced operations",
        "self_s = span time minus child spans; suite_*_s = whole span",
        "point_steps, table_bytes, extended_calls, useful_ratio and dps_max "
        "are computed from call arguments, not measured",
    ]
    if missing:
        notes.append(f"layers the package no longer defines (read 0): {missing}")
    return metrics, notes


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, else the request."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return f"{BLAS_THREADS} requested"


def git_sha():
    """Commit of the checkout read from .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import mpmath
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
    }


def declared_metrics(trace):
    """{name: unit} that BENCHMARK.json lists for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, args, work_dir, env):
    runner = Runner(workload, args.seed, work_dir)
    measure = per_layer if args.trace else end_to_end
    metrics, notes = measure(runner, args.seconds)
    if {k: unit for k, (_, unit) in metrics.items()} != declared_metrics(args.trace):
        raise SystemExit(f"perfbench: metrics of {workload} do not match BENCHMARK.json")
    failed = len(runner.failures)
    print(f"== {workload}  seed {args.seed}  trace {args.trace}")
    width = max(map(len, [*metrics, "fail_share"]))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(f"  {'fail_share':<{width}}  {failed / runner.attempted:.6g} "
          f"({failed} of {runner.attempted} operations)")
    for note in notes:
        print(f"  # {note}")
    for failure in runner.failures[:5]:
        print(f"  ! {failure}")
    print(f"  output check: {'pass' if not failed else 'FAIL'}; verdict statuses "
          f"vs reference ({len(runner.reference)} verdicts)")
    print(f"  csv_sha256 (information only): {sorted(runner.csv_sha256)}")
    print(f"  env: {json.dumps(env)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "opuclab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no opuclab package under {SRC}")

    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    env = environment()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work_dir:
        for workload in workloads:
            run_workload(workload, args, work_dir, env)


if __name__ == "__main__":
    main()
