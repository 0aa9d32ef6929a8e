"""qtpe benchmark: one workload per invocation, timed from outside the package.

    python3 bench/run.py --workload haar_t1 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
`src` directory, so nothing needs installing. Each run starts fresh worker
processes (worker.py): with `--trace 0` five of them set up, to time set-up,
and the middle one of these also makes the timed CLI calls; with `--trace 1` a
single worker alternates untraced and traced rounds for the per-layer
breakdown. OpenBLAS may use as many threads as the process has CPUs.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Lines before it give the
environment and the wall-time distribution; the full record goes to
`.bench_results/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("haar_t1", "certify_zigzag", "dense_t2", "haar_t3")
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # every worker must have ended by then, inside the 180 s a run may take
TAIL_BEYOND = 10


class WorkerFailed(Exception):
    pass


def tail(walls: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least TAIL_BEYOND samples beyond it, as (percentile, value)."""
    n = len(walls)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, sorted(walls)[k]


def spawn(args, env: dict, workdir: Path, result: Path, deadline: float, setup_only: bool, spans: Path | None) -> dict:
    shutil.rmtree(workdir, ignore_errors=True)
    result.unlink(missing_ok=True)
    spawned_at = time.monotonic()
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
        "--result", str(result),
        "--spawned-at", repr(spawned_at),
    ]  # fmt: skip
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # The worker's standard output goes to our standard error, so that the
    # result stays the last line of ours.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed("worker did not finish before the deadline") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        print("run.py: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "qtpe" / "__init__.py").is_file():
        print(f"run.py: no package source at {ROOT / 'src' / 'qtpe'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(nproc))
    env.pop("PYTHONPATH", None)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    spans = results / f"{tag}.spans.jsonl" if args.trace else None
    # The measuring worker runs between the set-up-only ones, so that the
    # set-up times sample the machine both before and after it.
    repeats = 1 if args.trace else SETUP_REPEATS
    setups = []
    try:
        for k in range(repeats):
            measuring = k == repeats // 2
            out = spawn(args, env, workdir, workdir.with_suffix(".json"), started + DEADLINE_S, not measuring, spans)
            setups.append(out["setup_s"])
            if measuring:
                res = out
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.with_suffix(".json").unlink(missing_ok=True)

    rounds = res["rounds"]
    walls = [wall for r in rounds for wall in r]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median([statistics.fmean(r) for r in rounds]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "success_rate": {"value": 1.0 - res["failed"] / res["attempted"], "unit": "ratio"},
        }
    tail_point = tail(walls)
    distribution = {
        "samples": len(walls),
        "rounds": len(rounds),
        "median_s": statistics.median(walls),
        "tail_percentile": tail_point[0] if tail_point else None,
        "tail_s": tail_point[1] if tail_point else None,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": res["env"],
        "wall_distribution": distribution,
        "rounds_s": rounds,
        "setups_s": setups,
        "problems": res["problems"],
        "reports": res["reports"],
        "metrics": metrics,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(res["env"], sort_keys=True))
    print("wall " + json.dumps(distribution, sort_keys=True))
    line = {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
