#!/usr/bin/env python3
"""Identity matrix: a fixed set of `qtpe` CLI calls, run in process, and a
manifest of what each call produced; or the comparison of two manifests.

    PYTHONPATH=src python scripts/identity_matrix.py --out manifest.json
    python scripts/identity_matrix.py --compare A.json B.json

The matrix calls qtpe.cli.main in one fresh work directory. It covers every
subcommand and every certify step kind; lambda at t = 1..4 with `dense-svd`
and with `power-iteration`, on the Schur-Weyl blocks (at t = 4 with n = 2
and with n = 4, where every partition of 4 has an irrep) and on the full
space (a stage-less ensemble above the block limit, and a zigzag product
through its stage kernels); one member at t = 4 on the blocks; `auto` on
both sides of its price model, cut short by --max-iters, and on a loaded
family whose involution defect passes validation but not the Hermitian
gate; `--csv` reports; and refused inputs that exit 2, 3 and 4, among
them a generalised product at k = 10000, one with a one-member inner
ensemble at k = 100000, and an epsgood step whose unitary is too large
to draw, each refused in one bounded line. Besides
the text INPUTS, the matrix writes the two ensembles no `sample` call
makes (write_ensembles).

For each call the manifest records its exit code, its first stderr line
(the work directory reads <work>), and, for its stdout and for every file it
wrote or changed, the sha256 of the bytes. A JSON or CSV report also records
its solver fields and its `method` as values, and the sha256 of the report
without the solver fields.

--compare is exact on exit codes, stderr lines and every sha256, with two
exceptions for a report whose bytes differ: lambda and the values computed
from it (CLOSE_FIELDS) may differ by LAMBDA_TOL, and `iterations`, `applies`
and `residual` (FREE_FIELDS) are not compared; the rest of the report must
be identical. That is the shape of a change in BLAS thread count, which
moves GEMM results in the last bits and so can move where Lanczos stops.
Set OPENBLAS_NUM_THREADS before running to fix the thread count. It exits 0
when the manifests agree and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

LAMBDA_TOL = 1e-9  # absolute, on lambda and the values computed from it
CLOSE_FIELDS = ("lambda", "lambda1", "lambda2", "lambda_product", "worst_excess", "bound_check.bound")
FREE_FIELDS = ("iterations", "applies", "residual")

CERTIFY_ALL_KINDS = {
    "schema_version": 1,
    "seed": 5,
    "steps": [
        {"kind": "sample", "name": "g", "dim": 8, "degree": 4, "out": "c-g.qtpe"},
        {"kind": "sample", "name": "h", "dim": 4, "degree": 4, "out": "c-h.qtpe"},
        {"kind": "double", "ensemble": "c-h.qtpe", "out": "c-hh.qtpe"},
        {"kind": "lambda", "ensemble": "c-g.qtpe", "t": 1, "assert_below": 1.0},
        {"kind": "lambda", "ensemble": "c-h.qtpe", "t": 2, "method": "power-iteration"},
        {"kind": "zigzag", "g": "c-g.qtpe", "h": "c-h.qtpe", "out": "c-gh.qtpe", "check_bound_t": 1},
        {"kind": "zigzag", "g": "c-g.qtpe", "h": "c-h.qtpe", "zz_kind": "derandomised", "out": "c-der.qtpe"},
        {"kind": "zigzag", "g": "c-g.qtpe", "h": ["c-h.qtpe", "c-h.qtpe"], "zz_kind": "generalised", "out": "c-gen.qtpe"},
        {"kind": "closeness", "D": 2, "d": 5, "t": 3},
        {"kind": "design_error", "ensemble": "c-h.qtpe", "t": 1, "ks": [1, 2]},
        {"kind": "epsgood", "d": 2, "dprime": 8, "k": 2, "eps": 0.3},
        {"kind": "epsgood", "d": 2, "dprime": 8, "k": 3, "eps": 0.3, "mode": "sampled", "budget": 5},
        {"kind": "bound", "bound": "zigzag", "l1": 0.1, "l2": 0.2, "t": 1, "d": 8},
        {"kind": "bound", "bound": "derandomised", "l1": 0.1, "l2": 0.2, "t": 2, "d": 40},
        {"kind": "bound", "bound": "improved", "l1": 0.1, "l2": 0.2, "t": 1, "d": 8},
        {"kind": "bound", "bound": "generalised", "l1": 0.1, "l2": 0.2, "k": 2, "t": 1, "d": 4, "dprime": 2, "eps": 1e-3},
    ],
}
CERTIFY_FAILS = {"schema_version": 1, "steps": [{"kind": "lambda", "ensemble": "s3.qtpe", "t": 1, "assert_below": 0.0}]}
CERTIFY_BAD_FIELD = {"schema_version": 1, "steps": [{"kind": "sample", "degree": 4, "out": "never.qtpe"}]}
# k = 1 unitary of dimension d*d' = 2*10^6: refused before it is drawn
CERTIFY_EPSGOOD_SIZE = {"schema_version": 1, "steps": [{"kind": "epsgood", "d": 2, "dprime": 1000000, "k": 1, "eps": 0.1}]}
INPUTS = {
    "all-kinds.json": json.dumps(CERTIFY_ALL_KINDS),
    "fails.json": json.dumps(CERTIFY_FAILS),
    "bad-field.json": json.dumps(CERTIFY_BAD_FIELD),
    "epsgood-size.json": json.dumps(CERTIFY_EPSGOOD_SIZE),
    "truncated.qtpe": "QTPE\x01",
}


def write_ensembles(work: Path) -> None:
    """Save one Haar member at n = 4, and a sampled (16, 8) family with one
    entry moved by 1e-10: its involution defect, about 1e-10, passes
    validation but not the Hermitian gate."""
    from qtpe.ensemble import UnitaryEnsemble, sample_random_qtpe, save
    from qtpe.linalg import SeededRng, haar_unitary

    save(UnitaryEnsemble(4, haar_unitary(4, SeededRng(8))[None], None, "single"), work / "single.qtpe")
    e = sample_random_qtpe(16, 8, SeededRng(9))
    members = e.unitaries.copy()
    members[0, 0, 0] += 1e-10
    save(UnitaryEnsemble(16, members, e.involution, "near-hermitian"), work / "near-hermitian.qtpe")


def _lambda(ensemble: str, t: int, method: str, *extra: str) -> list[str]:
    return ["lambda", "--ensemble", ensemble, "--t", str(t), "--method", method, *extra]


RUNS: list[tuple[str, list[str]]] = [
    ("sample-g", ["sample", "--dim", "9", "--degree", "8", "--seed", "3", "--out", "g.qtpe"]),
    ("sample-h", ["sample", "--dim", "8", "--degree", "4", "--seed", "4", "--out", "h.qtpe"]),
    ("sample-s2", ["sample", "--dim", "2", "--degree", "4", "--seed", "6", "--out", "s2.qtpe"]),
    ("sample-s3", ["sample", "--dim", "3", "--degree", "4", "--seed", "1", "--label", "small", "--out", "s3.qtpe"]),
    ("sample-s4", ["sample", "--dim", "4", "--degree", "8", "--seed", "5", "--out", "s4.qtpe"]),
    ("sample-s13", ["sample", "--dim", "13", "--degree", "4", "--seed", "7", "--out", "s13.qtpe"]),
    # lambda at t = 1..4 on both paths; power-iteration takes the blocks
    ("t1-dense", _lambda("g.qtpe", 1, "dense-svd", "--out", "t1-dense.json")),
    ("t1-iterative", _lambda("g.qtpe", 1, "power-iteration", "--tol", "1e-10", "--out", "t1-iterative.json")),
    ("t2-dense", _lambda("s4.qtpe", 2, "dense-svd", "--out", "t2-dense.json")),
    ("t2-iterative", _lambda("s4.qtpe", 2, "power-iteration", "--out", "t2-iterative.json")),
    ("t3-dense", _lambda("s4.qtpe", 3, "dense-svd", "--out", "t3-dense.json")),
    ("t3-iterative", _lambda("s4.qtpe", 3, "power-iteration", "--seed", "2", "--out", "t3-iterative.json")),
    ("t4-dense", _lambda("s2.qtpe", 4, "dense-svd", "--out", "t4-dense.json")),
    ("t4-iterative", _lambda("s2.qtpe", 4, "power-iteration", "--out", "t4-iterative.json")),
    # at n = 4 every partition of 4 has an irrep, (2, 1, 1) and (1, 1, 1, 1) included
    ("t4-blocks", _lambda("s4.qtpe", 4, "power-iteration", "--out", "t4-blocks.json")),
    # one member takes the blocks as any stage-less ensemble does
    ("single-t4", _lambda("single.qtpe", 4, "power-iteration", "--out", "single-t4.json")),
    # the full space: n = 13 is above the blocks' limit at t = 2
    ("t2-full-space", _lambda("s13.qtpe", 2, "power-iteration", "--out", "t2-full-space.json")),
    ("auto-stdout", ["lambda", "--ensemble", "s3.qtpe", "--t", "2"]),
    # auto prices the blocks' dense norms above Lanczos on them at (6, 8, 2);
    # cut short by --max-iters, Lanczos gives way to the dense report
    ("sample-s6", ["sample", "--dim", "6", "--degree", "8", "--seed", "2", "--out", "s6.qtpe"]),
    ("auto-moved", ["lambda", "--ensemble", "s6.qtpe", "--t", "2", "--out", "auto-moved.json"]),
    ("auto-capped", ["lambda", "--ensemble", "s6.qtpe", "--t", "2", "--max-iters", "20", "--out", "auto-capped.json"]),
    # priced outside the Hermitian gate, as it is solved: at (16, 8, 1) Lanczos
    # on Phi†Phi is priced below the SVD of the block, though not below eigvalsh
    ("auto-near-hermitian", ["lambda", "--ensemble", "near-hermitian.qtpe", "--t", "1", "--out", "auto-near-hermitian.json"]),
    ("csv-stdout", ["lambda", "--ensemble", "s3.qtpe", "--t", "1", "--csv"]),
    # products: the zigzag product's lambda runs its stage kernels, the
    # written product loads without stages
    (
        "zigzag",
        ["zigzag", "--g", "g.qtpe", "--h", "h.qtpe", "--tol", "1e-10", "--check-bound-t", "1"]
        + ["--out", "zz.qtpe", "--report", "zz.json"],
    ),
    ("zigzag-loaded", _lambda("zz.qtpe", 1, "power-iteration", "--tol", "1e-10", "--out", "zz-lambda.json")),
    (
        "derandomised",
        ["zigzag", "--g", "s3.qtpe", "--h", "s4.qtpe", "--kind", "derandomised", "--check-bound-t", "1"]
        + ["--out", "der.qtpe", "--report", "der.json"],
    ),
    (
        "generalised",
        ["zigzag", "--g", "s4.qtpe", "--h", "h.qtpe", "--h", "h.qtpe", "--kind", "generalised", "--check-bound-t", "1"]
        + ["--out", "gen.qtpe", "--report", "gen.csv", "--csv"],
    ),
    ("certify-all-kinds", ["certify", "--config", "all-kinds.json", "--out", "all-kinds-report.json"]),
    ("certify-csv", ["certify", "--config", "all-kinds.json", "--csv", "--out", "all-kinds-report.csv"]),
    ("certify-fails", ["certify", "--config", "fails.json", "--out", "fails-report.json"]),
    # refused inputs: exit 2 (usage, size, format, field), 3 (not converged), 4 (i/o)
    ("refuse-t", ["lambda", "--ensemble", "s3.qtpe", "--t", "9"]),
    ("refuse-usage", ["lambda", "--ensemble", "s3.qtpe"]),
    ("refuse-format", ["lambda", "--ensemble", "truncated.qtpe", "--t", "1"]),
    ("refuse-field", ["certify", "--config", "bad-field.json"]),
    # 4^10000 members: refused at the 7th stage, the first past the degree guard, in one line
    (
        "refuse-generalised-k",
        ["zigzag", "--g", "s2.qtpe", "--h", "h.qtpe", "--kind", "generalised", "--k", "10000", "--out", "never-gen.qtpe"],
    ),
    # one inner member keeps the degree at 1: refused by the stage count, in one line
    (
        "refuse-generalised-k-one-member",
        ["zigzag", "--g", "s2.qtpe", "--h", "single.qtpe", "--kind", "generalised", "--k", "100000"]
        + ["--out", "never-gen-one.qtpe"],
    ),
    ("refuse-epsgood-size", ["certify", "--config", "epsgood-size.json"]),
    ("not-converged", _lambda("s4.qtpe", 3, "power-iteration", "--tol", "1e-30", "--max-iters", "40", "--out", "cut.json")),
    ("missing-file", ["lambda", "--ensemble", "missing.qtpe", "--t", "1"]),
    ("missing-config", ["certify", "--config", "missing.json"]),
]


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], out)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _flatten(f"{prefix}[{i}]", item, out)
    else:
        out[prefix] = obj


def _field_class(path: str) -> str | None:
    """'close', 'free' or None for a flattened report path."""
    for kind, names in (("close", CLOSE_FIELDS), ("free", FREE_FIELDS)):
        if any(path == name or path.endswith("." + name) for name in names):
            return kind
    return None


def _report_fields(data: bytes) -> dict | None:
    """The flattened fields of a JSON report or a two-row CSV report, else None."""
    try:
        text = data.decode()
    except UnicodeDecodeError:
        return None
    try:
        doc = json.loads(text)
    except ValueError:
        rows = list(csv.reader(io.StringIO(text)))
        return dict(zip(*rows)) if len(rows) == 2 and len(rows[0]) == len(rows[1]) > 1 else None
    flat: dict = {}
    _flatten("", doc, flat)
    return flat if isinstance(doc, dict) else None


def _output_entry(data: bytes) -> dict:
    entry = {"sha256": hashlib.sha256(data).hexdigest()}
    fields = _report_fields(data)
    if fields is not None:
        if "method" in fields:
            entry["method"] = fields["method"]  # the lambda path taken, as a value
        solver = {path: value for path, value in fields.items() if _field_class(path)}
        if solver:
            rest = {path: value for path, value in fields.items() if path not in solver}
            entry["solver"] = solver
            entry["rest_sha256"] = hashlib.sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()
    return entry


def _snapshot(work: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(work.iterdir()) if p.is_file()}


def run_matrix(work: Path, names: list[str] | None = None) -> dict:
    """Run RUNS in `work`, or only those named in `names`, in RUNS order, and
    return the manifest."""
    from qtpe.cli import main

    for name, text in INPUTS.items():
        (work / name).write_text(text)
    write_ensembles(work)
    runs = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for name, argv in RUNS if names is None else [run for run in RUNS if run[0] in names]:
            before = _snapshot(work)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            lines = err.getvalue().replace(str(work), "<work>").splitlines()
            outputs = {}
            if out.getvalue():
                outputs["<stdout>"] = _output_entry(out.getvalue().encode())
            for file, digest in _snapshot(work).items():
                if before.get(file) != digest:
                    outputs[file] = _output_entry((work / file).read_bytes())
            runs.append({"name": name, "argv": argv, "exit": code, "stderr": lines[0] if lines else "", "outputs": outputs})
    finally:
        os.chdir(cwd)
    return {
        "env": {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "lambda_tol": LAMBDA_TOL,
        "runs": runs,
    }


def _as_float(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def compare(a: dict, b: dict) -> tuple[list[str], dict]:
    """The differences between two manifests, and counts for the summary."""
    diffs: list[str] = []
    stats = {"runs": 0, "identical": 0, "solver_only": 0, "max_lambda_diff": 0.0}
    runs_a, runs_b = {r["name"]: r for r in a["runs"]}, {r["name"]: r for r in b["runs"]}
    if list(runs_a) != list(runs_b):
        diffs.append(f"run lists differ: {sorted(set(runs_a) ^ set(runs_b))}")
    for name in [name for name in runs_a if name in runs_b]:
        ra, rb = runs_a[name], runs_b[name]
        stats["runs"] += 1
        for key in ("argv", "exit", "stderr"):
            if ra[key] != rb[key]:
                diffs.append(f"{name}: {key} {ra[key]!r} != {rb[key]!r}")
        if ra["outputs"].keys() != rb["outputs"].keys():
            diffs.append(f"{name}: outputs {sorted(ra['outputs'])} != {sorted(rb['outputs'])}")
        for file in [file for file in ra["outputs"] if file in rb["outputs"]]:
            oa, ob = ra["outputs"][file], rb["outputs"][file]
            if oa["sha256"] == ob["sha256"]:
                stats["identical"] += 1
                continue
            if "solver" not in oa or "solver" not in ob or oa.get("rest_sha256") != ob.get("rest_sha256"):
                diffs.append(f"{name}: {file} differs outside the solver fields")
                continue
            if oa["solver"].keys() != ob["solver"].keys():
                diffs.append(f"{name}: {file} solver fields {sorted(oa['solver'])} != {sorted(ob['solver'])}")
                continue
            close = True
            for path, va in oa["solver"].items():
                if _field_class(path) != "close":
                    continue
                diff = abs(_as_float(va) - _as_float(ob["solver"][path]))
                if not diff <= LAMBDA_TOL:  # a nan difference fails too
                    diffs.append(f"{name}: {file} {path} {va!r} != {ob['solver'][path]!r}")
                    close = False
                else:
                    stats["max_lambda_diff"] = max(stats["max_lambda_diff"], diff)
            stats["solver_only"] += close
    return diffs, stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="run the matrix and write its manifest here")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two manifests")
    args = parser.parse_args()
    if args.out:
        with tempfile.TemporaryDirectory(prefix="qtpe-identity-") as work:
            manifest = run_matrix(Path(work).resolve())
        Path(args.out).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        exits = [run["exit"] for run in manifest["runs"]]
        print(f"{len(exits)} runs, exit codes {dict(sorted((c, exits.count(c)) for c in set(exits)))} -> {args.out}")
        return 0
    a, b = (json.loads(Path(p).read_text()) for p in args.compare)
    diffs, stats = compare(a, b)
    for line in diffs:
        print(line)
    print(
        f"{stats['runs']} runs compared: {stats['identical']} outputs byte-identical, "
        f"{stats['solver_only']} equal up to solver fields (max |lambda diff| {stats['max_lambda_diff']:.2e}, "
        f"tolerance {LAMBDA_TOL:.0e}), {len(diffs)} differences"
    )
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
