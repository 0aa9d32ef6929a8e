"""scripts/identity_matrix.py: the matrix runs, --compare tells solver
roundoff from a changed report, and a slice of it matches a checked-in
manifest."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "identity_matrix.py"
# per run of the slice: its exit code, its first stderr line and the `method`
# of each report it writes; the slice is the refused inputs, auto on the
# moved (6, 8, 2) shape with and without --max-iters 20, and the samples
# they read
SLICE_MANIFEST = Path(__file__).resolve().parent / "identity_slice.json"


@pytest.fixture(scope="module")
def identity():
    spec = importlib.util.spec_from_file_location("identity_matrix", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def manifest(identity, tmp_path_factory):
    return identity.run_matrix(tmp_path_factory.mktemp("identity").resolve())


def _report(manifest, name):
    """The run `name` and its one report output with solver fields."""
    run = next(r for r in manifest["runs"] if r["name"] == name)
    return run, next(o for o in run["outputs"].values() if "solver" in o)


def test_matrix_covers_every_exit_code(manifest):
    assert {run["exit"] for run in manifest["runs"]} == {0, 1, 2, 3, 4}
    assert all(run["stderr"] for run in manifest["runs"] if run["exit"] in (2, 4))


def test_a_manifest_equals_itself(identity, manifest):
    diffs, stats = identity.compare(manifest, copy.deepcopy(manifest))
    assert diffs == [] and stats["solver_only"] == 0 and stats["identical"] > 0


def test_solver_fields_within_tolerance_pass(identity, manifest):
    other = copy.deepcopy(manifest)
    _, out = _report(other, "t2-iterative")
    out["sha256"] = "0" * 64
    out["solver"]["lambda"] += identity.LAMBDA_TOL / 2
    out["solver"]["iterations"] += 3
    diffs, stats = identity.compare(manifest, other)
    assert diffs == [] and stats["solver_only"] == 1


@pytest.mark.parametrize("change", ["lambda", "rest", "exit", "stderr"])
def test_other_changes_are_reported(identity, manifest, change):
    other = copy.deepcopy(manifest)
    run, out = _report(other, "t2-iterative")
    out["sha256"] = "0" * 64
    if change == "lambda":
        out["solver"]["lambda"] += 2 * identity.LAMBDA_TOL
    elif change == "rest":
        out["rest_sha256"] = "0" * 64
    elif change == "exit":
        run["exit"] = 3
    else:
        run["stderr"] = "error: something else"
    diffs, _ = identity.compare(manifest, other)
    assert len(diffs) == 1 and diffs[0].startswith("t2-iterative:")


def test_slice_matches_the_checked_in_manifest(identity, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage line at the terminal width
    expected = json.loads(SLICE_MANIFEST.read_text())
    manifest = identity.run_matrix(tmp_path.resolve(), names=list(expected))
    got = {
        run["name"]: {
            "exit": run["exit"],
            "stderr": run["stderr"],
            "methods": sorted(out["method"] for out in run["outputs"].values() if "method" in out),
        }
        for run in manifest["runs"]
    }
    assert got == expected
