"""In-memory span tracer that wraps gradselect's module attributes.

The traced run replaces each public function under the name its caller looks
it up by (``harness.train``, ``metrics.train``, ``harness.GradientStore``, ...)
with a wrapper that records a span, and puts the originals back afterwards.
Nothing under ``src/`` changes. Span names are the callee's module-qualified
name (``gradstore.build_store``), the names the in-program stage spans will
use once they exist, so nothing is timed twice when they land.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable


def _train_attrs(args, kwargs, result) -> dict:
    data, opt = args[1], args[2]
    return {"examples": len(data) * opt.epochs}


def _build_store_attrs(args, kwargs, result) -> dict:
    checkpoints, batch = args[0], args[1]
    return {"rows": len(batch) * len(checkpoints), "bytes": Path(args[5]).stat().st_size}


def _scan_attrs(args, kwargs, result) -> dict:
    store, num_select = args[0], args[2]
    # The greedy loop reads every float32 row of every block once per step.
    scanned = num_select * store.num_checkpoints * store.num_examples * store.k * 4
    return {"steps": num_select, "scan_bytes": scanned}


# (site module, attribute the site looks up, span name, attrs from a call).
WRAPS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("harness", "run_pipeline", "harness.run_pipeline", None),
    ("harness", "prepare_run", "harness.prepare_run", None),
    ("harness", "build_candidate_pool", "harness.build_candidate_pool", None),
    ("harness", "gradient_stage", "harness.gradient_stage", None),
    ("harness", "run_selection", "harness.run_selection", None),
    ("harness", "score_selection", "harness.score_selection", None),
    ("harness", "load_jsonl", "corpus.load_jsonl", None),
    ("harness", "build_vocab", "corpus.build_vocab", None),
    ("harness", "encode_documents", "corpus.encode_documents", None),
    ("model", "encode_documents", "corpus.encode_documents", None),
    ("metrics", "encode_documents", "corpus.encode_documents", None),
    ("harness", "train", "model.train", _train_attrs),
    ("metrics", "train", "model.train", _train_attrs),
    ("metrics", "evaluate", "model.evaluate", None),
    ("harness", "build_store", "gradstore.build_store", _build_store_attrs),
    ("harness", "GradientStore", "gradstore.open", None),
    ("harness", "direction", "gradstore.direction", None),
    ("harness", "autolabel", "selector.autolabel", None),
    ("harness", "select_greedy", "selector.select_greedy", _scan_attrs),
    ("harness", "select_batch", "selector.select_batch", _scan_attrs),
    ("harness", "select_baseline", "selector.select_baseline", None),
    ("harness", "retrain_and_eval", "metrics.retrain_and_eval", None),
    ("harness", "vocab_containment", "metrics.vocab_containment", None),
    ("harness", "embed", "metrics.embed", None),
    ("harness", "ot_distance", "metrics.ot_distance", None),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    site: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; ``with tracer:`` installs the wrappers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _open(self, name: str, site: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, site, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as the root of a timed job."""
        span = self._open(name, "bench")
        try:
            yield span
        finally:
            self._close(span)

    def _wrapper(self, fn: Callable, name: str, site: str, attrs_fn: Callable | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs_fn is not None:
                span.attrs.update(attrs_fn(args, kwargs, result))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, attrs_fn in WRAPS:
            module = importlib.import_module(f"gradselect.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            site = f"{module_name}.{attr}"
            setattr(module, attr, self._wrapper(original, name, site, attrs_fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part of it its child spans cover."""
        kids = self.children()
        out = {}
        for s in self.spans:
            covered = 0.0
            reach = s.start
            for c in sorted(kids.get(s.id, []), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = s.duration - covered
        return out

    def descendants(self, root: int) -> list[Span]:
        """The root span and every span below it."""
        kids = self.children()
        out, todo = [], [root]
        while todo:
            s = self.spans[todo.pop()]
            out.append(s)
            todo.extend(c.id for c in kids.get(s.id, []))
        return out

    def write(self, path: str | Path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"run_id": self.run_id, **asdict(s)}) + "\n")

