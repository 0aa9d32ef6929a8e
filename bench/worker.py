"""Benchmark worker: one process that sets up a workload and then measures it.

Started by run.py, never by hand. It imports the package from the checkout's
`src`, writes the workload's inputs, and records when they are ready. With
`--setup-only` it stops there; otherwise it makes the CLI calls in-process
through `qtpe.cli.main`, checks every report outside the timed section, and
writes its figures to the `--result` file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import numpy as np  # noqa: E402
import qtpe  # noqa: E402
import qtpe.cli  # noqa: E402
from tracer import Recorder, Tracing, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Instance, Workload, call_seed, round_order  # noqa: E402

MIN_ROUNDS = 2


class Runner:
    """Makes CLI calls and checks each report outside the timed section.

    Every call must exit with code 0. The first report of a call (instance,
    round) must pass the workload's checks; a repeat of that call must give
    a byte-identical report.
    """

    def __init__(self, workload: Workload, instances: list[Instance], seed: int, workdir: Path):
        self.workload = workload
        self.instances = instances
        self.seed = seed
        self.out = workdir / f"{workload.name}.report.json"
        self.reports: dict[tuple[int, int], bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, inst: Instance, round_: int, recorder: Recorder | None = None) -> float:
        argv = self.workload.argv(inst, call_seed(self.seed, inst.index, round_), self.out)
        self.out.unlink(missing_ok=True)
        start = time.perf_counter()
        rc = self._main(argv, recorder)
        wall = time.perf_counter() - start
        self._record(inst, self._check((inst.index, round_), rc))
        return wall

    @staticmethod
    def _main(argv: list[str], recorder: Recorder | None) -> int | None:
        try:
            if recorder is None:
                return qtpe.cli.main(argv)
            return recorder.span("cli.main", lambda: qtpe.cli.main(argv))
        except Exception:  # an escaped exception is a failed call, not a failed benchmark
            traceback.print_exc()
            return None

    def _check(self, key: tuple[int, int], rc: int | None) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        data = self.out.read_bytes()
        if key not in self.reports:
            self.reports[key] = data
            return self.workload.check(json.loads(data))
        if data != self.reports[key]:
            return [f"round {key[1]}: report differs from the first one of the same call"]
        return []

    def _record(self, inst: Instance, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{self.workload.name}[{inst.index}]: {p}" for p in problems]

    def reference_checks(self) -> None:
        """Make each instance's reference call once and compare it with the round-0 report."""
        for inst in self.instances:
            argv = self.workload.reference_argv(inst, call_seed(self.seed, inst.index, 0), self.out)
            if argv is None or (inst.index, 0) not in self.reports:
                continue
            self.out.unlink(missing_ok=True)
            rc = self._main(argv, None)
            if rc != 0:
                problems = [f"reference call exit code {rc}"]
            else:
                report = json.loads(self.reports[(inst.index, 0)])
                problems = self.workload.compare(report, json.loads(self.out.read_bytes()))
            self._record(inst, problems)


def measure(workload: Workload, instances: list[Instance], seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Timed rounds over the instance suite until `seconds` have passed.

    Untraced, every round is timed, and each round has its own start-vector
    seeds. Traced, every round repeats the calls of round 0, untraced and
    then traced: the traced calls give the per-layer figures, the same for
    any number of rounds, and the pair gives the tracing overhead.
    """
    runner = Runner(workload, instances, seed, workdir)
    order = [instances[i] for i in round_order(seed)]
    # Warm-up, untimed: BLAS threads start and first-touch page faults land
    # here, and its report is the one the timed repeat must match.
    runner.call(order[0], 0)
    rounds: list[list[float]] = []
    traced: list[float] = []
    recorder = Recorder()
    start = time.perf_counter()
    while len(rounds) < (1 if trace else MIN_ROUNDS) or time.perf_counter() - start < seconds:
        round_ = 0 if trace else len(rounds)
        rounds.append([runner.call(inst, round_) for inst in order])
        if trace:
            with Tracing(recorder):
                for inst in order:
                    recorder.run_id = len(traced)
                    traced.append(runner.call(inst, round_, recorder))
    runner.reference_checks()
    out = {
        "rounds": rounds,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "reports": {f"{i}/{r}": data.decode() for (i, r), data in sorted(runner.reports.items())},
    }
    if trace:
        metrics = layer_metrics(recorder, len(traced))
        untraced = [wall for r in rounds for wall in r]
        metrics["trace.overhead_s"] = (statistics.fmean(traced) - statistics.fmean(untraced), "s")
        out["layers"] = metrics
        out["recorder"] = recorder
    return out


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if Path(qtpe.__file__).resolve().parent != SRC / "qtpe":
        print(f"worker: imported qtpe from {qtpe.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    instances = workload.prepare(args.workdir)
    result: dict = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        figures = measure(workload, instances, args.seed, args.seconds, bool(args.trace), args.workdir)
        recorder = figures.pop("recorder", None)
        if recorder is not None and args.spans is not None:
            recorder.write_jsonl(args.spans)
        result.update(figures)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = environment()
    args.result.write_text(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
