"""Seeded sweep over the config space: which accepted configs fail, and where.

Draws ``DRAWS`` configs from ``random.Random(SEED)``, validates each as
``opuclab run`` does (a config error is a refusal, exit 2 there), runs the
accepted ones and prints the failed-of-accepted table by family and grid
size, the builds by route, and each failing verdict with its residual::

    python scripts/sweep.py                      # seed 7, 500 draws
    python scripts/sweep.py --json sweep.json    # also one record per draw
    python scripts/sweep.py --record             # write the status record
    python scripts/sweep.py --check              # exit 1 on a worse config
    python scripts/sweep.py --compare-paths      # against the other dispatch path

A failed verdict whose detail starts with the name of a Python builtin
exception (``ValueError: ...``) is a crash the package let through
rather than a refusal or a missed bound, so both sections count those
apart from the rest.

The JSON holds one record per draw, in draw order, with sorted keys, so
two runs (say on a parent and a change) diff line by line, and the lines
holding ``"status"`` compare the draws' outcomes alone.

The status record (``--record``; ``STATUS_RECORD`` is the committed one,
taken under ``NPY_DISABLE_CPU_FEATURES=X86_V3``, the x86-64-v2 path every
x86-64 machine can take) holds one line per draw and fixed case: its
label, its status and the sorted names of its failing verdicts, with no
residuals.  ``--check`` reruns the sweep against it and exits 1 when a
config's status worsened (pass, then refused, then fail) or its set of
failing verdicts grew; a config that improved is printed, and the record
is then rewritten with ``--record`` so that the improvement holds.

``--compare-paths`` reruns the sweep in a subprocess on the other numpy
dispatch path: with ``NPY_DISABLE_CPU_FEATURES=X86_V3`` set when this
process runs without it, and unset when it runs with it (on x86-64 the
flag takes numpy's complex multiply off its fused x86-64-v3 kernels).
It prints the draws and fixed cases whose status or set of failing
verdicts differs between the two paths, and does not gate.

After the draws it runs ``FIXED_CASES``, hand-picked configs that the
draws rarely reach, and prints them in a section of their own; in the
JSON they are the list ``fixed_cases``, each record marked
``"fixed": true``, so the draws' records and table read as without them.
Neither section gates: the script exits 0 whatever fails.

Every random number is one ``rng.random()`` call, taken in this order per
draw, so the sweep draws the same configs in every session:

1. the family, uniformly from lebesgue, bernstein_szego, geronimus, ell2
   and mixed;
2. its arguments: bernstein_szego r ~ U(0, 0.95); geronimus
   a ~ U(0.05, 0.95); ell2 c ~ U(0, 0.9), then p ~ U(0.5, 3); mixed a base,
   lebesgue or bernstein_szego uniformly (then its r), the atom count m
   from 1 to 3, then per atom its angle ~ U(0, 6.28) and its mass
   ~ U(0.01, 0.8/m);
3. the grid size, uniformly from 512, 1024, 2048, 4096 and 8192;
4. the n_list: a count from 1 to 3, then that many distinct powers of two
   from 1 to min(256, N/16), drawn one at a time from those left, sorted;
5. test points with probability 0.3: a count from 1 to 3, then each
   angle ~ U(0, 2 pi).

Every config runs experiment ``all`` with seed 1.
"""

from __future__ import annotations

import argparse
import builtins
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from opuclab import config_from_dict, run_experiment
from opuclab.errors import ConfigError

FAMILY_NAMES = ("lebesgue", "bernstein_szego", "geronimus", "ell2", "mixed")
GRID_SIZES = (512, 1024, 2048, 4096, 8192)
SEED = 7
DRAWS = 500
TEST_POINT_SHARE = 0.3
STATUS_RECORD = Path(__file__).with_name("sweep_status.json")
# statuses from best to worst, for the status record's check
STATUS_ORDER = ("pass", "refused", "fail")
# the environment variable and value that move numpy off its x86-64-v3
# kernels, for --compare-paths
PATH_FLAG = ("NPY_DISABLE_CPU_FEATURES", "X86_V3")
# names of Python's builtin exceptions, which a failed verdict's detail
# starts with when a check raised one of them
BUILTIN_EXCEPTIONS = frozenset(
    name
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
)

# ell2 configs on both sides of grid resolution, the Fourier tail of the
# sampled w over N/4..N/2 running from 0.14 down to 1.9e-14, each as
# (c, p, grid_size, n_list): n_list [8, 32] builds to depth 33 and
# [16, 64] to depth 65
_ELL2_ROWS = [
    (0.617, 0.887, 4096, [8, 32]),
    (0.819, 1.218, 4096, [16, 64]),
    (0.778, 1.196, 4096, [16, 64]),
    (0.5, 1.0, 4096, [16, 64]),
    (0.542, 0.863, 8192, [8, 32]),
    (0.505, 0.931, 4096, [8, 32]),
    (0.32, 0.66, 8192, [8, 32]),
    (0.32, 0.66, 16384, [8, 32]),
    (0.5, 1.0, 8192, [16, 64]),
    (0.6, 1.5, 4096, [16, 64]),
]
FIXED_CASES = [
    {
        "family": {"name": "ell2", "c": c, "p": p},
        "grid_size": grid_size,
        "n_list": n_list,
        "experiment": "all",
        "seed": 1,
    }
    for c, p, grid_size, n_list in _ELL2_ROWS
] + [
    # accepted by validation, though the build misses its constant by
    # 2.4e-4 against 1.9e-4
    {
        "family": {"name": "geronimus", "a": 1e-6},
        "grid_size": 4096,
        "n_list": [4, 16],
        "experiment": "mnt",
        "seed": 1,
    },
    # accepted by validation; its Schur sum bound has read 1.02e-10
    # against 1e-10
    {
        "family": {"name": "bernstein_szego", "r": 0.996},
        "grid_size": 8192,
        "n_list": [4, 16],
        "experiment": "entropy",
        "seed": 1,
    },
]


def _pick(rng: random.Random, options):
    return options[int(rng.random() * len(options))]


def _uniform(rng: random.Random, low: float, high: float) -> float:
    return low + (high - low) * rng.random()


def _family(rng: random.Random, name: str) -> dict:
    if name == "bernstein_szego":
        return {"name": name, "r": _uniform(rng, 0.0, 0.95)}
    if name == "geronimus":
        return {"name": name, "a": _uniform(rng, 0.05, 0.95)}
    if name == "ell2":
        c = _uniform(rng, 0.0, 0.9)
        return {"name": name, "c": c, "p": _uniform(rng, 0.5, 3.0)}
    if name == "mixed":
        base = _family(rng, _pick(rng, ("lebesgue", "bernstein_szego")))
        count = _pick(rng, (1, 2, 3))
        atoms = []
        for _ in range(count):
            angle = _uniform(rng, 0.0, 6.28)
            atoms.append({"angle": angle, "mass": _uniform(rng, 0.01, 0.8 / count)})
        return {"name": name, "base": base, "atoms": atoms}
    return {"name": name}


def draw(rng: random.Random) -> dict:
    """One config, its random numbers taken in the order the module states."""
    family = _family(rng, _pick(rng, FAMILY_NAMES))
    grid_size = _pick(rng, GRID_SIZES)
    cap = min(256, grid_size // 16)
    powers = [1 << k for k in range(cap.bit_length())]
    n_list = []
    for _ in range(_pick(rng, (1, 2, 3))):
        n_list.append(powers.pop(int(rng.random() * len(powers))))
    config = {
        "family": family,
        "grid_size": grid_size,
        "n_list": sorted(n_list),
        "experiment": "all",
        "seed": 1,
    }
    if rng.random() < TEST_POINT_SHARE:
        count = _pick(rng, (1, 2, 3))
        config["test_points"] = [_uniform(rng, 0.0, 2.0 * math.pi) for _ in range(count)]
    return config


def run(config: dict) -> dict:
    """The draw's record: refused with the reason, or its status, build
    route and failing verdicts."""
    try:
        validated = config_from_dict(config)
    except ConfigError as exc:
        return {"config": config, "status": "refused", "reason": str(exc)}
    outcome = run_experiment(validated)
    failed = [
        {"name": v.name, "residual": v.residual, "detail": v.detail}
        for v in outcome.verdicts
        if v.failed
    ]
    return {
        "config": config,
        "status": "fail" if failed else "pass",
        "route": outcome.report["family"].get("route"),
        "failed": failed,
    }


def _label(config: dict) -> str:
    family = config["family"]
    args = ",".join(
        f"{key}={value:.4g}" for key, value in family.items() if isinstance(value, float)
    )
    if family["name"] == "mixed":
        base = _label({"family": family["base"]})
        atoms = ",".join(f"({a['angle']:.3g},{a['mass']:.3g})" for a in family["atoms"])
        args = f"{base};atoms=[{atoms}]"
    return f"{family['name']}({args})"


def report(records: list) -> None:
    accepted = [r for r in records if r["status"] != "refused"]
    failing = [r for r in accepted if r["status"] == "fail"]
    print(
        f"{len(records)} draws: {len(records) - len(accepted)} refused, "
        f"{len(accepted)} accepted, {len(failing)} failed"
    )
    print()
    print("failed of accepted, by family and grid size")
    print("| family | " + " | ".join(map(str, GRID_SIZES)) + " |")
    print("| --- |" + " --- |" * len(GRID_SIZES))
    for name in FAMILY_NAMES:
        cells = []
        for n in GRID_SIZES:
            runs = [
                r for r in accepted
                if r["config"]["family"]["name"] == name and r["config"]["grid_size"] == n
            ]
            bad = sum(r["status"] == "fail" for r in runs)
            cells.append(f"{bad}/{len(runs)}" if runs else "n/a")
        print(f"| {name} | " + " | ".join(cells) + " |")
    print()
    print("builds by route")
    routes = Counter(
        (r["config"]["family"]["name"], r["route"]) for r in accepted if r["route"]
    )
    for (name, route), count in sorted(routes.items()):
        print(f"  {name:<16} {route:<16} {count}")
    print()
    print("failing verdicts, by name")
    names = Counter(v["name"] for r in failing for v in r["failed"])
    for name, count in sorted(names.items()):
        print(f"  {name:<28} {count}")
    print()
    _report_raises(records, "#")
    print()
    print("failing configs")
    for index, r in enumerate(records):
        if r["status"] != "fail":
            continue
        config = r["config"]
        print(
            f"  #{index} {_label(config)} N={config['grid_size']} "
            f"n_list={config['n_list']}: {_failures(r)}"
        )


def _report_raises(records: list, mark: str) -> None:
    """Count, then list, the failed verdicts whose detail starts with a
    builtin exception's name; ``mark`` heads each record's index."""
    raised = [
        (index, v)
        for index, r in enumerate(records)
        for v in r.get("failed", ())
        if v["detail"].split(":", 1)[0] in BUILTIN_EXCEPTIONS
    ]
    print(f"failed verdicts raising a builtin exception: {len(raised)}")
    for index, v in raised:
        print(f"  {mark}{index} {v['name']}: {v['detail']}")


def _failures(record: dict) -> str:
    return ", ".join(
        f"{v['name']} {v['residual']:.3g}" if v["residual"] is not None else v["name"]
        for v in record["failed"]
    )


def report_fixed(records: list) -> None:
    failing = sum(r["status"] == "fail" for r in records)
    print()
    print(f"fixed cases: {len(records)} configs, {failing} failed")
    _report_raises(records, "fixed #")
    for r in records:
        config = r["config"]
        head = (
            f"  {_label(config)} N={config['grid_size']} n_list={config['n_list']} "
            f"{config['experiment']}: {r['status']}"
        )
        if r["status"] == "refused":
            print(f"{head}: {r['reason']}")
        else:
            route = f" ({r['route']})" if r["route"] else ""
            failures = f": {_failures(r)}" if r["failed"] else ""
            print(f"{head}{route}{failures}")


def statuses(records: list, fixed: list) -> list:
    """One status entry per draw and fixed case, in sweep order: a label
    that names the config, its status and its failing verdicts."""
    labelled = [(f"#{i}", r) for i, r in enumerate(records)]
    labelled += [(f"fixed #{i}", r) for i, r in enumerate(fixed)]
    return [
        {
            "config": (
                f"{index} {_label(r['config'])} N={r['config']['grid_size']} "
                f"n_list={r['config']['n_list']} {r['config']['experiment']}"
            ),
            "status": r["status"],
            "failed": sorted(v["name"] for v in r.get("failed", ())),
        }
        for index, r in labelled
    ]


def write_statuses(path, entries: list) -> None:
    """The status record, one config per line, so that a change to it
    diffs by config."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{"seed": {SEED}, "draws": {DRAWS}, "configs": [\n')
        handle.write(",\n".join(json.dumps(entry, sort_keys=True) for entry in entries))
        handle.write("\n]}\n")


def check_statuses(path, entries: list) -> bool:
    """Print each config that is worse or better than the status record;
    True when none is worse."""
    with open(path, encoding="utf-8") as handle:
        recorded = json.load(handle)
    if [e["config"] for e in recorded["configs"]] != [e["config"] for e in entries]:
        print(f"{Path(path).name} records other configs than this sweep draws")
        return False
    worse, better = [], []
    for old, new in zip(recorded["configs"], entries):
        rank = STATUS_ORDER.index(new["status"]) - STATUS_ORDER.index(old["status"])
        grown = set(new["failed"]) - set(old["failed"])
        change = (
            f"  {new['config']}: {old['status']} {old['failed']} -> "
            f"{new['status']} {new['failed']}"
        )
        if rank > 0 or grown:
            worse.append(change)
        elif old != new:
            better.append(change)
    print()
    print(f"status record {Path(path).name}: {len(worse)} worse, {len(better)} better")
    for title, changes in (("worse", worse), ("better; rewrite the record", better)):
        if changes:
            print(f"{title}:")
            print("\n".join(changes))
    return not worse


def path_changes(here: list, there: list) -> tuple:
    """(status changes, failing-set changes): one line per config whose
    status, or else whose set of failing verdicts, differs between two
    lists of ``statuses`` entries of one sweep."""
    if [e["config"] for e in here] != [e["config"] for e in there]:
        raise ValueError("the two sweeps drew other configs")
    status, failing = [], []
    for a, b in zip(here, there):
        change = (
            f"  {a['config']}: {a['status']} {a['failed']} -> "
            f"{b['status']} {b['failed']}"
        )
        if a["status"] != b["status"]:
            status.append(change)
        elif a["failed"] != b["failed"]:
            failing.append(change)
    return status, failing


def other_path_statuses() -> tuple:
    """(name, entries): the other dispatch path and the ``statuses`` of
    this sweep rerun on it in a subprocess."""
    name, value = PATH_FLAG
    env = dict(os.environ)
    if env.get(name) == value:
        del env[name]
        label = f"{name} unset"
    else:
        env[name] = value
        label = f"{name}={value}"
    warnings = [f"-W{option}" for option in sys.warnoptions]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.json"
        subprocess.run(
            [sys.executable, *warnings, __file__, "--json", str(path)],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    return label, statuses(data["draws"], data["fixed_cases"])


def report_paths(label: str, here: list, there: list) -> None:
    status, failing = path_changes(here, there)
    print()
    print(
        f"other dispatch path ({label}): {len(status)} status changes, "
        f"{len(failing)} failing-set changes"
    )
    for title, changes in (("status", status), ("failing set", failing)):
        if changes:
            print(f"{title}, this path -> the other:")
            print("\n".join(changes))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", dest="json_path", help="write one record per draw")
    for flag, action in (("--record", "write"), ("--check", "compare with")):
        parser.add_argument(
            flag,
            nargs="?",
            const=STATUS_RECORD,
            help=f"{action} the status record (default {STATUS_RECORD.name})",
        )
    parser.add_argument(
        "--compare-paths",
        action="store_true",
        help="rerun on the other dispatch path and print the configs that differ",
    )
    args = parser.parse_args()

    rng = random.Random(SEED)
    configs = [draw(rng) for _ in range(DRAWS)]
    started = time.perf_counter()
    records = [run(config) for config in configs]
    fixed = [{**run(config), "fixed": True} for config in FIXED_CASES]
    seconds = time.perf_counter() - started
    # wall time goes to stderr, so that two runs print the same
    print(f"{seconds:.1f} s", file=sys.stderr)
    print(f"sweep: seed {SEED}, {DRAWS} draws")
    report(records)
    report_fixed(fixed)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"seed": SEED, "draws": records, "fixed_cases": fixed},
                handle,
                indent=1,
                sort_keys=True,
            )
            handle.write("\n")
    entries = statuses(records, fixed)
    if args.record:
        write_statuses(args.record, entries)
    if args.compare_paths:
        label, there = other_path_statuses()
        report_paths(label, entries, there)
    if args.check and not check_statuses(args.check, entries):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
