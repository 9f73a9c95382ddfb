"""Per-layer tracing of opuclab from outside the package.

``traced(recorder)`` replaces each function in ``LAYERS`` by a wrapper at
every ``opuclab`` module that binds it (and the ``boundary_points``
property on ``CircleMeasure``), then restores the originals.  Each call
appends one span ``[name, parent, start, end]`` to the recorder, where
``parent`` is the index of the enclosing traced span or -1.  A layer's
self time is its spans' durations minus the durations of their direct
child spans.

Three layers also tally work computed from their arguments, not measured:
the transfer recursion's point steps, table bytes and extended-order
calls, the distinct (measure, f) pairs behind the CMV coefficient calls,
and the largest mpmath precision the Schur cascade asked for.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

# (module, attribute) pairs; a dotted attribute names a property on a class.
LAYERS = (
    ("families", "build_family"),
    ("opuc", "verblunsky_from_measure"),
    ("opuc", "_run_transfer"),
    ("opuc", "chi_grid_table"),
    ("asymptotics", "cmv_coefficients"),
    ("asymptotics", "sandwich_table"),
    ("measure", "poisson"),
    ("measure", "poisson_log_weight"),
    ("measure", "fejer_mean"),
    ("measure", "moment"),
    ("measure", "CircleMeasure.boundary_points"),
    ("szego", "entropy_profile"),
    ("schur", "schur_parameters_from_series"),
    ("schur", "_cascade_mp"),
    ("scattering", "jost_solutions"),
    ("experiments", "suite_verdicts"),
    ("experiments", "suite_tables"),
)

SUITES = ("mnt", "entropy", "schur_identities", "summability", "scattering")

# Spans reported with their call count and self time.
_CALLS_AND_SELF = (
    "opuc._run_transfer",
    "asymptotics.cmv_coefficients",
    "measure.poisson",
    "measure.poisson_log_weight",
    "measure.fejer_mean",
    "measure.boundary_points",
    "szego.entropy_profile",
    "schur.schur_parameters_from_series",
    "schur._cascade_mp",
    "families.build_family",
    "opuc.verblunsky_from_measure",
    "scattering.jost_solutions",
)
_SELF_ONLY = ("opuc.chi_grid_table", "asymptotics.sandwich_table")
_CALLS_ONLY = ("measure.moment",)

# The transfer recursion's order above which extended_calls counts a call.
EXTENDED_ORDER = 128


class Recorder:
    """Spans of the traced calls plus work tallied from their arguments."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.point_steps = 0
        self.table_bytes = 0
        self.extended_calls = 0
        self.cmv_pairs = set()
        self.dps_max = 0

    def wrap(self, name, fn, tally=None, suffix=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            span_name = name if suffix is None else f"{name}.{bound[suffix]}"
            index = len(self.spans)
            self.spans.append([span_name, self._stack[-1] if self._stack else -1, 0.0, 0.0])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][2:] = (start, end)
                if tally is not None:
                    tally(self, bound)

        return wrapper

    def summary(self):
        """{span name: (calls, self seconds, total seconds)}."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, _, start, end), inner in zip(self.spans, child):
            calls, self_s, total_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, self_s + end - start - inner, total_s + end - start)
        return out

    def metrics(self):
        """Per-layer metrics of everything recorded: {name: (value, unit)}."""
        spans = self.summary()
        calls = lambda name: spans.get(name, (0, 0.0, 0.0))[0]
        self_s = lambda name: spans.get(name, (0, 0.0, 0.0))[1]
        out = {}
        for name in _CALLS_AND_SELF:
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.self_s"] = (self_s(name), "s")
        for name in _SELF_ONLY:
            out[f"{name}.self_s"] = (self_s(name), "s")
        for name in _CALLS_ONLY:
            out[f"{name}.calls"] = (calls(name), "count")
        out["opuc._run_transfer.point_steps"] = (self.point_steps, "count")
        out["opuc._run_transfer.table_bytes"] = (self.table_bytes, "B")
        out["opuc._run_transfer.extended_calls"] = (self.extended_calls, "count")
        cmv_calls = calls("asymptotics.cmv_coefficients")
        out["asymptotics.cmv_coefficients.useful_ratio"] = (
            len(self.cmv_pairs) / cmv_calls if cmv_calls else 1.0,
            "ratio",
        )
        out["schur._cascade_mp.dps_max"] = (self.dps_max, "digits")
        for kind in ("suite_verdicts", "suite_tables"):
            for suite in SUITES:
                total = spans.get(f"experiments.{kind}.{suite}", (0, 0.0, 0.0))[2]
                out[f"experiments.{kind}.{suite}_s"] = (total, "s")
        return out


def _tally_transfer(recorder, args):
    n_max = int(args["n_max"])
    points = len(args["zs"])
    recorder.point_steps += n_max * points
    recorder.extended_calls += n_max > EXTENDED_ORDER
    if args["keep_all"]:
        work_dtype = getattr(sys.modules["opuclab.opuc"], "_work_dtype", None)
        itemsize = np.dtype(work_dtype(n_max) if work_dtype else complex).itemsize
        recorder.table_bytes += 2 * (n_max + 1) * points * itemsize


def _tally_cmv(recorder, args):
    mu = args["mu"]
    digest = hashlib.sha256(np.ascontiguousarray(mu.weight).tobytes())
    digest.update(repr(mu.atoms).encode())
    digest.update(np.ascontiguousarray(args["f_samples"], dtype=complex).tobytes())
    atom_values = args.get("f_atom_values")
    if atom_values is not None:
        digest.update(np.ascontiguousarray(atom_values, dtype=complex).tobytes())
    recorder.cmv_pairs.add(digest.hexdigest())


def _tally_cascade(recorder, args):
    recorder.dps_max = max(recorder.dps_max, int(args["dps"]))


_TALLIES = {
    "opuc._run_transfer": _tally_transfer,
    "asymptotics.cmv_coefficients": _tally_cmv,
    "schur._cascade_mp": _tally_cascade,
}
_SUFFIXES = {"experiments.suite_verdicts": "suite", "experiments.suite_tables": "suite"}


@contextlib.contextmanager
def traced(recorder):
    """Route every layer call through ``recorder`` while the block runs.

    Yields the layers that the package no longer defines; their metrics
    then read zero.
    """
    package = [
        module
        for name, module in list(sys.modules.items())
        if name == "opuclab" or name.startswith("opuclab.")
    ]
    patches = []
    missing = []
    try:
        for module_name, attr in LAYERS:
            module = importlib.import_module(f"opuclab.{module_name}")
            owner_name, _, name = attr.rpartition(".")
            span = f"{module_name}.{name}"
            if owner_name:
                original = vars(getattr(module, owner_name, object)).get(name)
                if not isinstance(original, property):
                    missing.append(span)
                    continue
                owner = getattr(module, owner_name)
                patches.append((owner, name, original))
                setattr(owner, name, property(recorder.wrap(span, original.fget)))
                continue
            original = getattr(module, name, None)
            if not callable(original):
                missing.append(span)
                continue
            wrapper = recorder.wrap(span, original, _TALLIES.get(span), _SUFFIXES.get(span))
            for target in package:
                for key, value in list(vars(target).items()):
                    if value is original:
                        patches.append((target, key, original))
                        setattr(target, key, wrapper)
        yield missing
    finally:
        for target, key, original in reversed(patches):
            setattr(target, key, original)


def median_metrics(per_op):
    """Median over operations of each per-layer metric: {name: (value, unit)}."""
    return {
        name: (statistics.median(m[name][0] for m in per_op), unit)
        for name, (_, unit) in per_op[0].items()
    }
