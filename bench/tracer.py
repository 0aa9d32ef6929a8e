"""Span recorder for the benchmark's traced runs, kept outside the package.

Each wrapped function records one span (name, start, end, parent, run id)
and optional counts. Spans stay in memory until the caller writes them out.
Functions are wrapped at the name their caller looks up, because the
package's `from ... import` bindings mean that patching only the defining
module would miss the calls.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import qtpe.cli
import qtpe.ensemble
import qtpe.moments
from qtpe.moments import MomentOperator

COMPLEX_BYTES = 16


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans of one process; `run_id` groups the spans of one CLI call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    def span(self, name: str, fn, counts=None):
        """Run fn() inside a span; counts(result) may attach integer counts."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.run_id))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index].start = start
            self.spans[index].end = end
        if counts is not None:
            self.spans[index].counts = counts(result)
        return result

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run_id}
                row.update(s.counts)
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


def _apply_counts(op: MomentOperator) -> dict:
    s, n, t = op.ensemble.size, op.local_dim, op.t
    ambient = n ** (2 * t)
    return {
        # 2t mode contractions per member, each an n x n matrix times n^(2t-1)
        # columns: 8 real flops per complex multiply-add.
        "flops": 8 * s * 2 * t * n ** (2 * t + 1),
        # Each contraction reads and writes one n^(2t) complex tensor per member,
        # plus the members themselves.
        "bytes": COMPLEX_BYTES * s * (2 * t * 2 * ambient + n * n),
    }


def targets():
    """(span name, owner, attribute, counts(args, result)) for every wrapped call."""
    return [
        ("ensemble.sample", qtpe.cli, "sample_random_qtpe", None),
        ("ensemble.save", qtpe.cli, "save", lambda a, r: {"bytes": _file_bytes(r)}),
        ("ensemble.load", qtpe.cli, "load", lambda a, r: {"bytes": _file_bytes(a[0])}),
        ("ensemble.validate", qtpe.cli, "validate", None),
        (
            "zigzag.build",
            qtpe.cli,
            "zigzag",
            lambda a, r: {"members": r.size, "member_bytes": r.size * r.dim * r.dim * COMPLEX_BYTES},
        ),
        ("moments.lambda", qtpe.moments, "lambda_report", None),
        ("moments.basis", qtpe.moments, "fixed_space_basis", None),
        ("moments.closeness", qtpe.moments, "subspace_closeness_report", None),
        ("linalg.spectral", qtpe.moments, "spectral_norm", lambda a, r: {"iterations": r.iterations}),
        ("linalg.haar", qtpe.ensemble, "haar_unitary", None),
        ("moments.apply", MomentOperator, "apply_vec", lambda a, r: _apply_counts(a[0])),
        ("moments.apply", MomentOperator, "adjoint_apply_vec", lambda a, r: _apply_counts(a[0])),
        ("moments.dense", MomentOperator, "dense", None),
    ]


class Tracing:
    """Context manager: wraps every target on entry and restores the originals on exit."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        for name, owner, attr, counts in targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counts))
        return self.recorder

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, original, counts):
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            hook = None if counts is None else (lambda result: counts(args, result))
            return recorder.span(name, lambda: original(*args, **kwargs), hook)

        return wrapper


def _sum(spans: list[Span], name: str, key: str | None = None) -> float:
    return sum((s.counts.get(key, 0) if key else s.duration) for s in spans if s.name == name)


def layer_metrics(recorder: Recorder, calls: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as per-call means over `calls` traced CLI calls.

    A layer's self time is its span's duration minus the time its direct
    child spans cover.
    """
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def self_time(name: str) -> float:
        return sum(s.duration - child_time[i] for i, s in enumerate(spans) if s.name == name)

    applies = sum(1 for s in spans if s.name == "moments.apply")
    apply_s = _sum(spans, "moments.apply")
    per_call = {
        "cli.main_s": (_sum(spans, "cli.main"), "s"),
        "cli.self_s": (self_time("cli.main"), "s"),
        "ensemble.sample_s": (_sum(spans, "ensemble.sample"), "s"),
        "ensemble.save_s": (_sum(spans, "ensemble.save"), "s"),
        "ensemble.load_s": (_sum(spans, "ensemble.load"), "s"),
        "ensemble.validate_s": (_sum(spans, "ensemble.validate"), "s"),
        "ensemble.save_bytes": (_sum(spans, "ensemble.save", "bytes"), "B"),
        "ensemble.load_bytes": (_sum(spans, "ensemble.load", "bytes"), "B"),
        "zigzag.build_s": (_sum(spans, "zigzag.build"), "s"),
        "zigzag.members": (_sum(spans, "zigzag.build", "members"), "count"),
        "zigzag.member_bytes": (_sum(spans, "zigzag.build", "member_bytes"), "B-computed"),
        "moments.lambda_s": (_sum(spans, "moments.lambda"), "s"),
        "moments.apply_s": (apply_s, "s"),
        "moments.applies": (applies, "count"),
        "moments.basis_s": (_sum(spans, "moments.basis"), "s"),
        "moments.dense_s": (_sum(spans, "moments.dense"), "s"),
        "moments.closeness_s": (_sum(spans, "moments.closeness"), "s"),
        "linalg.spectral_s": (_sum(spans, "linalg.spectral"), "s"),
        "linalg.solver_self_s": (self_time("linalg.spectral"), "s"),
        "linalg.iterations": (_sum(spans, "linalg.spectral", "iterations"), "count"),
        "linalg.haar_s": (_sum(spans, "linalg.haar"), "s"),
    }
    out = {name: (value / calls, unit) for name, (value, unit) in per_call.items()}
    # Kernel figures are per apply, and computed from the operator's shape.
    out["moments.apply_ms"] = (1000.0 * apply_s / applies if applies else 0.0, "ms")
    out["moments.apply_flops"] = (_sum(spans, "moments.apply", "flops") / applies if applies else 0.0, "flop-computed")
    out["moments.apply_bytes"] = (_sum(spans, "moments.apply", "bytes") / applies if applies else 0.0, "B-computed")
    return out
