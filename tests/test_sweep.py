"""scripts/sweep.py's comparison of two dispatch paths, on synthetic records."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "sweep", Path(__file__).resolve().parents[1] / "scripts" / "sweep.py"
)
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)


def _record(a: float, status: str, failed=()) -> dict:
    """A draw's record as ``sweep.run`` returns it, for geronimus(a)."""
    config = {
        "family": {"name": "geronimus", "a": a},
        "grid_size": 4096,
        "n_list": [4, 16],
        "experiment": "all",
        "seed": 1,
    }
    if status == "refused":
        return {"config": config, "status": status, "reason": "refused"}
    failures = [{"name": name, "residual": 1.0, "detail": ""} for name in failed]
    return {"config": config, "status": status, "route": "r", "failed": failures}


def test_path_changes_name_status_and_failing_set_changes():
    here = [
        _record(0.1, "pass"),
        _record(0.2, "fail", ["gram_orthonormality"]),
        _record(0.3, "fail", ["averaged_decay_trend"]),
        _record(0.4, "refused"),
        _record(0.5, "fail", ["gram_orthonormality"]),
    ]
    there = [
        _record(0.1, "pass"),
        _record(0.2, "pass"),
        _record(0.3, "fail", ["averaged_decay_trend", "gram_orthonormality"]),
        _record(0.4, "refused"),
        _record(0.5, "fail", ["gram_orthonormality"]),
    ]
    fixed = [_record(0.6, "pass")]
    status, failing = sweep.path_changes(
        sweep.statuses(here, fixed),
        sweep.statuses(there, [_record(0.6, "fail", ["gram_orthonormality"])]),
    )
    assert status == [
        "  #1 geronimus(a=0.2) N=4096 n_list=[4, 16] all: "
        "fail ['gram_orthonormality'] -> pass []",
        "  fixed #0 geronimus(a=0.6) N=4096 n_list=[4, 16] all: "
        "pass [] -> fail ['gram_orthonormality']",
    ]
    assert failing == [
        "  #2 geronimus(a=0.3) N=4096 n_list=[4, 16] all: "
        "fail ['averaged_decay_trend'] -> "
        "fail ['averaged_decay_trend', 'gram_orthonormality']"
    ]
    same = sweep.statuses(here, fixed)
    assert sweep.path_changes(same, same) == ([], [])


def test_path_changes_refuse_two_other_sweeps():
    with pytest.raises(ValueError, match="other configs"):
        sweep.path_changes(
            sweep.statuses([_record(0.1, "pass")], []),
            sweep.statuses([_record(0.2, "pass")], []),
        )
