"""The four λ-certification workloads: their inputs, CLI calls and checks.

Each workload runs a fixed suite of SUITE_SIZE problem instances. The
ensembles of instance i are drawn from seed i, so every run measures the
same problems: the iteration count of one λ call varies by up to 4.5 times
between ensemble draws, far more than any bound the benchmark could hold.
The run's `--seed` sets the start-vector seed (the CLI's `--seed`) of every
call, which differs from round to round, and the order of the calls in a
round.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from qtpe.ensemble import sample_random_qtpe, save
from qtpe.linalg import SeededRng

SUITE_SIZE = 5
DENSE_AGREEMENT = 1e-8


@dataclass(frozen=True)
class Instance:
    """One problem of the suite: an ensemble file, or a certify config."""

    index: int
    path: Path


class Workload:
    """A named suite of CLI calls; subclasses build the inputs and check the reports."""

    name: str

    def prepare(self, workdir: Path) -> list[Instance]:
        raise NotImplementedError

    def argv(self, inst: Instance, seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, report: dict) -> list[str]:
        raise NotImplementedError

    def reference_argv(self, inst: Instance, seed: int, out: Path) -> list[str] | None:
        """A second call, made once per instance outside the timed section, to check the first against."""
        return None

    def compare(self, report: dict, reference: dict) -> list[str]:
        return []


class LambdaWorkload(Workload):
    """`qtpe lambda` on a sampled Hermitian Haar family."""

    def __init__(self, name: str, dim: int, degree: int, t: int, options: list[str], below: float, inclusive: bool):
        self.name = name
        self.dim = dim
        self.degree = degree
        self.t = t
        self.options = options
        self.below = below
        self.inclusive = inclusive

    def prepare(self, workdir: Path) -> list[Instance]:
        out = []
        for i in range(SUITE_SIZE):
            path = workdir / f"{self.name}-{i}.qtpe"
            e = sample_random_qtpe(self.dim, self.degree, SeededRng(i))
            save(e, path, sidecar={"seed": i, "provenance": {"kind": "haar-sample", "dim": self.dim, "degree": self.degree}})
            out.append(Instance(i, path))
        return out

    def _argv(self, inst: Instance, options: list[str], seed: int, out: Path) -> list[str]:
        return ["lambda", "--ensemble", str(inst.path), "--t", str(self.t), *options, "--seed", str(seed), "--out", str(out)]

    def argv(self, inst: Instance, seed: int, out: Path) -> list[str]:
        return self._argv(inst, self.options, seed, out)

    def check(self, report: dict) -> list[str]:
        problems = []
        if not report["converged"]:
            problems.append("lambda did not converge")
        lam = report["lambda"]
        if not (lam <= self.below if self.inclusive else lam < self.below):
            problems.append(f"lambda {lam} is not {'at most' if self.inclusive else 'below'} {self.below}")
        return problems


class DenseLambdaWorkload(LambdaWorkload):
    """λ by the dense path, checked against an iterative run at tol 1e-10."""

    def reference_argv(self, inst: Instance, seed: int, out: Path) -> list[str]:
        return self._argv(inst, ["--method", "power-iteration", "--tol", "1e-10"], seed, out)

    def compare(self, report: dict, reference: dict) -> list[str]:
        problems = []
        if not reference["converged"]:
            problems.append("iterative reference did not converge")
        gap = abs(report["lambda"] - reference["lambda"])
        if not gap <= DENSE_AGREEMENT:
            problems.append(f"dense and iterative lambda differ by {gap:.3e}")
        return problems


class CertifyWorkload(Workload):
    """`qtpe certify` on the README config: sample, zigzag with bound check, closeness, bound."""

    name = "certify_zigzag"

    def __init__(self, g_dim: int, g_degree: int, h_degree: int, closeness: tuple[int, int, int]):
        self.g_dim = g_dim
        self.g_degree = g_degree
        self.h_degree = h_degree
        self.closeness = closeness

    def config(self, seed: int) -> dict:
        big_d, small_d, t = self.closeness
        return {
            "schema_version": 1,
            "seed": seed,
            "steps": [
                {"kind": "sample", "name": "g", "dim": self.g_dim, "degree": self.g_degree, "out": "g.qtpe"},
                {"kind": "sample", "name": "h", "dim": self.g_degree, "degree": self.h_degree, "out": "h.qtpe"},
                {
                    "kind": "zigzag",
                    "name": "product",
                    "g": "g.qtpe",
                    "h": "h.qtpe",
                    "zz_kind": "zigzag",
                    "out": "gh.qtpe",
                    "check_bound_t": 1,
                    "bound_tol": 1e-6,
                },
                {"kind": "closeness", "name": "w-geometry", "D": big_d, "d": small_d, "t": t},
                {"kind": "bound", "name": "arith", "bound": "zigzag", "l1": 0.1, "l2": 0.2, "t": 1, "d": 8},
            ],
        }

    def prepare(self, workdir: Path) -> list[Instance]:
        out = []
        for i in range(SUITE_SIZE):
            folder = workdir / f"{self.name}-{i}"
            folder.mkdir(parents=True, exist_ok=True)
            cfg = folder / "config.json"
            cfg.write_text(json.dumps(self.config(i), indent=2) + "\n")
            out.append(Instance(i, cfg))
        return out

    def argv(self, inst: Instance, seed: int, out: Path) -> list[str]:
        # certify draws everything from the config's own seed, so `seed` is unused
        return ["certify", "--config", str(inst.path), "--out", str(out)]

    def check(self, report: dict) -> list[str]:
        problems = []
        if report["pass"] is not True:
            problems.append(f"certify failed steps {report['failures']}")
        zz = next(step for step in report["steps"] if step["kind"] == "zigzag")
        if zz["bound_check"]["satisfied"] is not True:
            problems.append("zigzag bound not satisfied")
        return problems


def call_seed(seed: int, index: int, round_: int) -> int:
    """Start-vector seed of instance `index` in round `round_` of a run with benchmark seed `seed`."""
    return (seed * 100_000 + round_) * SUITE_SIZE + index


def round_order(seed: int) -> list[int]:
    order = list(range(SUITE_SIZE))
    random.Random(seed).shuffle(order)
    return order


# Full sizes, scaled from the paper-shaped calls so a round of the suite
# takes a few seconds; see README.md for the shapes and why each was chosen.
WORKLOADS = {
    "haar_t1": LambdaWorkload(
        "haar_t1", 40, 32, 1, ["--method", "power-iteration", "--tol", "1e-6", "--max-iters", "3000"], 0.8, False
    ),
    "certify_zigzag": CertifyWorkload(9, 8, 4, (2, 8, 2)),
    "dense_t2": DenseLambdaWorkload("dense_t2", 6, 8, 2, ["--method", "auto"], 1.0, True),
    "haar_t3": LambdaWorkload("haar_t3", 4, 8, 3, ["--method", "power-iteration", "--tol", "1e-7"], 1.0, True),
}

# The same calls at sizes that run in well under a second, for the tests.
TINY = {
    "haar_t1": LambdaWorkload(
        "haar_t1", 6, 4, 1, ["--method", "power-iteration", "--tol", "1e-6", "--max-iters", "3000"], 1.0, True
    ),
    "certify_zigzag": CertifyWorkload(3, 4, 4, (2, 4, 2)),
    "dense_t2": DenseLambdaWorkload("dense_t2", 3, 4, 2, ["--method", "auto"], 1.0, True),
    "haar_t3": LambdaWorkload("haar_t3", 3, 4, 3, ["--method", "power-iteration", "--tol", "1e-7"], 1.0, True),
}
