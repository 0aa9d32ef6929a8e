"""Command-line orchestration: sample, products, spectra, batch certification.

`sample`, `lambda` and `zigzag` are one-step certify runs: their flags fill
a step dict with the certify field names, the step runs through the same
executor as a certify step, and the step result is the report.

Exit codes: 0 success, 1 a certify check failed, 2 usage, precondition or
numeric-range violation (a certify message names the offending field), 3
numerical non-convergence, 4 I/O failure. Every command is deterministic given its
seed; reports carry no timestamps so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from pathlib import Path

from . import epsgood as eg
from . import moments
from .ensemble import (
    UnitaryEnsemble,
    check_product_degree,
    hermitian_double,
    load,
    read_sidecar,
    sample_random_qtpe,
    save,
    validate,
)
from .zigzag import (
    bound_genzigzag,
    bound_zigzag,
    bound_zigzag_derandomised,
    bound_zigzag_improved,
    zigzag,
    zigzag_derandomised,
    zigzag_generalised,
)
from .errors import PreconditionError, QtpeError
from .linalg import DEFAULT_MAX_ITERS, SeededRng, haar_unitary

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAILED = 1  # certify ran every step, and a check failed
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3
EXIT_IO = 4

GENZIGZAG_EPS = 1e-3  # epsilon of the generalised product bound
PRODUCT_KINDS = ("zigzag", "derandomised", "generalised")


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], out)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _flatten(f"{prefix}[{i}]", item, out)
    else:
        out[prefix] = obj


def _emit(report: dict, out_path: str | None, as_csv: bool) -> None:
    if as_csv:
        flat: dict = {}
        _flatten("", report, flat)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(list(flat.keys()))
        writer.writerow(list(flat.values()))
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_checked(path: str) -> UnitaryEnsemble:
    e = load(path)
    report = validate(e, tol=1e-8 * max(1, e.dim))
    if not report.passed:
        raise PreconditionError(
            f"ensemble {path} fails validation: unitarity defect {report.unitarity_defect:.2e}, "
            f"involution defect {report.involution_defect:.2e}"
        )
    return e


def _sidecar_bound(path: str) -> float | None:
    """The sidecar's finite `bound_reference`, or None when there is none."""
    try:
        value = float(read_sidecar(path)["bound_reference"])
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    return value if math.isfinite(value) else None


def _build_product(kind: str, g: UnitaryEnsemble, hs: list[UnitaryEnsemble], k: int | None):
    """The `kind` product of g with the inner ensembles, and its closed-form bound.

    The bound is a function of (lambda_1 of g, lambda_2 of the first inner
    ensemble, t), so every caller checks a product against its own formula.
    """
    if kind not in PRODUCT_KINDS:
        raise PreconditionError(f"unknown product kind {kind!r}")
    if kind != "generalised":
        if len(hs) != 1:
            raise PreconditionError(f"{kind} takes exactly one inner ensemble, got {len(hs)}")
        if kind == "zigzag":
            return zigzag(g, hs[0]), lambda l1, l2, t: bound_zigzag(l1, l2, t, g.size)
        return zigzag_derandomised(g, hs[0]), lambda l1, l2, t: bound_zigzag_derandomised(l1, l2, t, g.size)
    k = len(hs) if k is None else k
    if len(hs) == 1 and k > 1:
        check_product_degree(itertools.repeat(hs[0].size, k), g.dim * hs[0].dim)  # before the k-item list
        hs = hs * k
    if len(hs) != k:
        raise PreconditionError(f"generalised product needs k={k} inner ensembles, got {len(hs)}")
    d = g.size
    if hs[0].dim % d != 0:
        raise PreconditionError(f"inner dimension {hs[0].dim} is not a multiple of outer degree {d}")
    dprime = hs[0].dim // d
    product = zigzag_generalised(g, hs, d, dprime)
    return product, lambda l1, l2, t: bound_genzigzag(l1, l2, k, t, d, dprime, GENZIGZAG_EPS)


def _bound_check(g, h, product, bound_of, t: int, tol: float | None, bound_tol: float, rng: SeededRng) -> dict:
    """Measure lambda_1 (g, t=1), lambda_2 (h, t) and the product's lambda, and
    compare the last with the product's closed-form bound."""
    # the product's lambda first: its ambient size is the largest of the three,
    # so a refused size or tol costs no solve
    rep = moments.lambda_report(product, t, tol=tol, rng=rng.child(3))
    rep1 = moments.lambda_report(g, 1, tol=tol, rng=rng.child(1))
    rep2 = moments.lambda_report(h, t, tol=tol, rng=rng.child(2))
    bound = bound_of(rep1.lambda_, rep2.lambda_, t)
    return {
        "t": t,
        "lambda1": rep1.lambda_,
        "lambda2": rep2.lambda_,
        "lambda_product": rep.lambda_,
        "bound": bound.value,
        "flags": list(bound.flags),
        "vacuous": bound.vacuous,
        "satisfied": rep.lambda_ <= bound.value + bound_tol,
        "converged": rep1.converged and rep2.converged and rep.converged,
    }


_REQUIRED = object()
_TYPE_NAMES = {int: "a 32-bit integer", float: "a finite number", str: "a string", bool: "true or false"}


class ConfigFieldError(PreconditionError):
    """A certify config field that is missing or malformed; reads 'field: ...',
    the field named by its path below config, such as steps[i].dim or seed."""


class _Step:
    """Typed access to the fields of one certify step.

    A missing required field or a value of the wrong type raises
    ConfigFieldError naming steps[i].field. An optional field given as null
    takes its default.
    """

    def __init__(self, step: dict, index: int, base: Path):
        self.step = step
        self.index = index
        self.base = base

    def bad(self, name: str, message: str) -> ConfigFieldError:
        return ConfigFieldError(f"steps[{self.index}].{name}: {message}")

    def get(self, name: str, kind: type, default=_REQUIRED):
        value = self.step.get(name)
        if value is None:
            if default is _REQUIRED:
                raise self.bad(name, "missing field")
            return default
        if not _is_kind(value, kind):
            raise self.bad(name, f"expected {_TYPE_NAMES[kind]}, got {value!r}")
        return float(value) if kind is float else value

    def margin(self, name: str, default: float) -> float:
        """A float field added to a bound; a negative one would fail a check that holds."""
        value = self.get(name, float, default)
        if value < 0:
            raise self.bad(name, f"expected a number >= 0, got {value!r}")
        return value

    def ints(self, name: str, default: list[int]) -> list[int]:
        value = self.step.get(name)
        if value is None:
            return default
        if not isinstance(value, list) or not value or not all(_is_kind(v, int) for v in value):
            raise self.bad(name, f"expected a nonempty list of integers, got {value!r}")
        return value

    def path(self, name: str) -> str:
        """A file path, resolved relative to the config file."""
        return self._resolve(name, self.get(name, str))

    def paths(self, name: str) -> list[str]:
        """One path or a nonempty list of them, each resolved like path()."""
        raw = self.step.get(name)
        if raw is None:
            raise self.bad(name, "missing field")
        value = raw if isinstance(raw, list) else [raw]
        if not value or not all(isinstance(v, str) for v in value):
            raise self.bad(name, f"expected a path or a nonempty list of paths, got {raw!r}")
        return [self._resolve(name, v) for v in value]

    def _resolve(self, name: str, raw: str) -> str:
        if "\0" in raw:
            raise self.bad(name, "path contains a NUL character")
        path = Path(raw)
        return str(path if path.is_absolute() else self.base / path)


def _is_kind(value, kind: type) -> bool:
    if kind is int:
        # no dimension, degree, power or count of this package fits beyond 2^31
        return isinstance(value, int) and not isinstance(value, bool) and abs(value) < 2**31
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        try:
            return math.isfinite(value)
        except OverflowError:  # an integer too large for a float
            return False
    return isinstance(value, kind)


def _run_step(step: dict, index: int, rng: SeededRng, base: Path) -> dict:
    """Run one step and return its result; `rng` draws every sample, product and start vector of the step."""
    f = _Step(step, index, base)
    kind = f.get("kind", str)
    name = f.get("name", str, f"step-{index}")
    result: dict = {"name": name, "kind": kind}

    if kind == "sample":
        dim, degree = f.get("dim", int), f.get("degree", int)
        # an empty label takes the default haar-d{dim}-s{degree}
        e = sample_random_qtpe(dim, degree, rng, label=f.get("label", str, name))
        sidecar = {
            "seed": rng.seed,
            "provenance": {"kind": "haar-sample", "dim": dim, "degree": degree},
            "bound_reference": 8.0 / math.sqrt(degree),
        }
        save(e, f.path("out"), sidecar=sidecar)
        result.update({"members": e.size, "dim": e.dim, "label": e.label, "pass": True})
    elif kind == "double":
        e = hermitian_double(_load_checked(f.path("ensemble")))
        save(e, f.path("out"), sidecar={"provenance": {"kind": "double"}})
        result.update({"members": e.size, "dim": e.dim, "pass": True})
    elif kind == "lambda":
        method = f.get("method", str, "auto")
        if method not in moments.METHODS:
            raise f.bad("method", f"expected one of {', '.join(moments.METHODS)}, got {method!r}")
        path = f.path("ensemble")
        e = _load_checked(path)
        rep = moments.lambda_report(
            e,
            f.get("t", int),
            method=method,
            tol=f.get("tol", float, None),
            rng=rng,
            max_iters=f.get("max_iters", int, DEFAULT_MAX_ITERS),
        )
        result.update(rep.to_json_dict())
        ok = rep.converged
        threshold = f.get("assert_below", float, None)
        if threshold is not None:
            below = rep.lambda_ < threshold
            result["assert_below"] = {"threshold": threshold, "satisfied": below}
            ok = ok and below
        result["bound_reference"] = bound = _sidecar_bound(path)
        if bound is not None:
            result["vacuous_bound"] = bound >= 1.0
        result["pass"] = ok
    elif kind == "zigzag":
        g = _load_checked(f.path("g"))
        hs = [_load_checked(p) for p in f.paths("h")]
        zz_kind = f.get("zz_kind", str, "zigzag")
        product, bound_of = _build_product(zz_kind, g, hs, f.get("k", int, None))
        t = f.get("check_bound_t", int, None)
        out = f.path("out")
        result.update(
            {
                "zz_kind": zz_kind,
                "members": product.size,
                "dim": product.dim,
                "outer": {"dim": g.dim, "degree": g.size},
                "inner": {"dim": hs[0].dim, "degree": hs[0].size},
                "out": f.get("out", str),
            }
        )
        result["pass"] = True
        if t is not None:
            tol, bound_tol = f.get("tol", float, None), f.margin("bound_tol", 1e-6)
            result["bound_check"] = check = _bound_check(g, hs[0], product, bound_of, t, tol, bound_tol, rng)
            result["pass"] = check["satisfied"] and check["converged"]
        # written last, so a refused bound check leaves no file behind
        save(product, out, sidecar={"provenance": {"kind": zz_kind, "g": step["g"], "h": step["h"]}})
    elif kind == "closeness":
        rep = moments.subspace_closeness_report(f.get("D", int), f.get("d", int), f.get("t", int))
        result.update(rep.to_json_dict())
        result["pass"] = all(rep.claims.values())
    elif kind == "design_error":
        e = _load_checked(f.path("ensemble"))
        t = f.get("t", int)
        tol = f.margin("tol", 1e-9)
        ks = f.ints("ks", [1])
        moments.check_solver_settings(e.dim, t)  # first, so a bad t is not reported as a bad ks
        try:
            moments.check_design_powers(e.dim, t, ks)  # before the lambda solve
        except PreconditionError as exc:
            raise f.bad("ks", str(exc)) from None
        rep = moments.lambda_report(e, t, rng=rng)
        result.update({"lambda": rep.lambda_, "converged": rep.converged})
        if not rep.converged:
            # an unconverged lambda bounds nothing; the step fails unchecked
            result["pass"] = False
        else:
            errors = moments.design_errors(e, t, ks)
            bounds = [rep.lambda_**k for k in ks]
            result["worst_excess"] = max([0.0] + [float(err.max()) - b for err, b in zip(errors, bounds)])
            result["pass"] = all(bool((err <= b + tol).all()) for err, b in zip(errors, bounds))
    elif kind == "epsgood":
        d, dprime, k = f.get("d", int), f.get("dprime", int), f.get("k", int)
        mode, budget = f.get("mode", str, "exhaustive"), f.get("budget", int, None)
        eg.check_tuple_size(k, d, dprime, mode, budget)  # before the k draws
        eps = f.get("eps", float)
        if eps <= 0:  # is_good_for_set refuses it too, but only after the draws
            raise PreconditionError(f"eps must be positive, got {eps}")
        us = [haar_unitary(d * dprime, rng.child(i)) for i in range(k)]
        decision = eg.is_tuple_good(
            us,
            d,
            dprime,
            eps,
            mode=mode,
            budget=budget,
            rng=rng.child(99) if mode == "sampled" else None,
        )
        result.update({"good": decision.good, "coverage": decision.coverage, "witness": decision.witness})
        result["pass"] = decision.good == f.get("expect_good", bool, True)
    elif kind == "bound":
        which = f.get("bound", str)
        l1, l2, t = f.get("l1", float), f.get("l2", float), f.get("t", int)
        if which == "zigzag":
            b = bound_zigzag(l1, l2, t, f.get("d", int))
        elif which == "derandomised":
            b = bound_zigzag_derandomised(l1, l2, t, f.get("d", int))
        elif which == "improved":
            b = bound_zigzag_improved(l1, l2, t, f.get("d", int), f.get("variant", str, "as-printed"))
        elif which == "generalised":
            b = bound_genzigzag(l1, l2, f.get("k", int), t, f.get("d", int), f.get("dprime", int), f.get("eps", float))
        else:
            raise f.bad("bound", f"unknown bound kind {which!r}")
        result.update({"value": b.value, "flags": list(b.flags), "vacuous": b.vacuous, "pass": True})
    else:
        raise f.bad("kind", f"unknown step kind {kind!r}")
    return result


# the parsed arguments that are not step fields: the seed becomes the step's rng, the rest pick the output
_NOT_STEP_FIELDS = ("command", "func", "seed", "report", "csv")


_REFUSED = (QtpeError, ArithmeticError)  # exit 2; an ArithmeticError is a closed form overflowing


def _refuse(prefix: str, exc: Exception) -> int:
    """Print the one stderr line of a refused input, after `prefix`, and return exit 2."""
    detail = f"numeric inputs out of range: {exc}" if isinstance(exc, ArithmeticError) else str(exc)
    print(prefix + detail, file=sys.stderr)
    return EXIT_USAGE


def cmd_step(args) -> int:
    """Run a subcommand as a one-step certify run; the step result is its report."""
    step = {key: value for key, value in vars(args).items() if key not in _NOT_STEP_FIELDS}
    result = _run_step(dict(step, kind=args.command), 0, SeededRng(args.seed), Path("."))
    if args.command == "sample":
        print(f"sampled {result['label']}: {result['members']} unitaries of dimension {result['dim']} -> {args.out}")
        return EXIT_OK
    _emit(result, args.report, args.csv)
    # a zigzag result holds its lambdas' convergence in bound_check, a lambda result at top level
    return EXIT_OK if result.get("bound_check", result).get("converged", True) else EXIT_NONCONVERGED


def cmd_certify(args) -> int:
    """Run the steps of a config in order and emit one report of them all.

    A refusal prints one stderr line and exits 2: config.<field>: for a field
    error, config: for the config as a whole, config.steps[i]: for step i."""
    index = None  # the step running, if any
    try:
        try:
            config = json.loads(Path(args.config).read_text())
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep, or an over-long integer
            raise PreconditionError(f"config: malformed JSON: {exc}") from None
        if not isinstance(config, dict):
            raise PreconditionError("config: top level must be an object")
        if config.get("schema_version") != SCHEMA_VERSION:
            raise ConfigFieldError(f"schema_version: expected {SCHEMA_VERSION}, got {config.get('schema_version')!r}")
        steps = config.get("steps")
        if not isinstance(steps, list) or not steps:
            raise ConfigFieldError("steps: expected a nonempty list")
        seed = config.get("seed", 0)
        if not _is_kind(seed, int) or seed < 0:
            raise ConfigFieldError(f"seed: expected a nonnegative integer, got {seed!r}")
        base = Path(args.config).resolve().parent
        results = []
        for index, step in enumerate(steps):
            if not isinstance(step, dict):
                raise ConfigFieldError(f"steps[{index}]: expected an object")
            results.append(_run_step(step, index, SeededRng(seed).child(index), base))
    except _REFUSED as exc:
        field = isinstance(exc, ConfigFieldError)
        return _refuse("config." if field else "" if index is None else f"config.steps[{index}]: ", exc)
    failures = [result["name"] for result in results if not result.get("pass", True)]
    report = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "steps": results,
        "failures": failures,
        "pass": not failures,
    }
    _emit(report, args.out, args.csv)
    return EXIT_OK if not failures else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qtpe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a Haar-random explicitly Hermitian ensemble")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--degree", type=int, required=True, help="even integer >= 4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("lambda", help="second largest singular value of an ensemble at tensor power t")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument(
        "--method",
        choices=moments.METHODS,
        help=f"auto (default): power-iteration above ambient n^2t = {moments.DENSE_LIMIT}; at or below it, "
        "dense-svd or Lanczos on the Schur-Weyl blocks, whichever a price model of the shapes finds cheaper, "
        "and dense-svd where the blocks do not apply, as for products; a Lanczos solve that stops "
        "unconverged gives way to the dense report",
    )
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="report", default=None, help="report file (default: stdout)")
    p.add_argument("--csv", action="store_true", help="emit the flattened CSV serialisation")
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("zigzag", help="build a zigzag-style product ensemble")
    p.add_argument("--g", required=True, help="outer ensemble file")
    p.add_argument("--h", action="append", required=True, help="inner ensemble file (repeatable)")
    p.add_argument("--kind", dest="zz_kind", choices=PRODUCT_KINDS)
    p.add_argument("--k", type=int, help="generalised: number of inner stages")
    p.add_argument("--check-bound-t", type=int, help="measure lambdas and compare to the bound at this t")
    p.add_argument("--bound-tol", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("certify", help="run a batch config and emit one consolidated report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _REFUSED as exc:
        return _refuse("error: ", exc)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
