"""Span recording for the traced run, kept outside ``src/``.

``install`` replaces a public function wherever ``encore.cli``,
``encore.curriculum`` and ``encore.metrics`` bind it with a wrapper that
records one span per call: name, start, end, parent span, item id, counts
taken from the arguments and return value, and (for audio layers) the
``tracemalloc`` peak. Spans stay in memory until the traced child exits.
``aggregate`` turns a list of spans into per-layer totals, where a span's
self time is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from dataclasses import dataclass, field

TRACED_MODULES = ("encore.cli", "encore.curriculum", "encore.metrics")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    item: str | None = None
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One wrapped function.

    ``counts(args, kwargs, result)`` returns the span's counts; ``item``
    returns the item id the call starts (later spans inherit it); spans
    with ``peak`` set measure their own ``tracemalloc`` peak and must not
    nest inside one another.
    """

    attr: str
    span: str
    counts: object = None
    item: object = None
    peak: bool = False


def _len_result(key):
    return lambda args, kwargs, result: {key: len(result)}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


TARGETS = (
    Target("cmd_tokenize", "cli.tokenize"),
    Target("cmd_evaluate", "cli.evaluate"),
    Target("_evaluate_pair", "cli.evaluate_pair",
           item=lambda args, kwargs: str(_arg(args, kwargs, 0, "row")["pair_id"])),
    Target("parse_midi", "smf.parse_midi", counts=_len_result("notes"),
           item=lambda args, kwargs: kwargs.get("source_id") or None),
    Target("write_midi", "smf.write_midi", counts=_len_result("bytes")),
    Target("segment", "notes.segment", counts=_len_result("windows")),
    Target("encode", "tokenizer.encode",
           counts=lambda args, kwargs, result: {"tokens": len(result.tokens)}),
    Target("corrupt", "augment.corrupt",
           counts=lambda args, kwargs, result: {
               "notes": len(_arg(args, kwargs, 0, "seq").notes),
               "blocks": len(result[1].removed_intervals),
           }),
    Target("sample_speed_augmentation", "augment.sample_speed_augmentation"),
    Target("render_prompt", "prompts.render_prompt"),
    Target("build_manifest", "curriculum.build_manifest",
           counts=lambda args, kwargs, result: {"records": len(result.records)}),
    Target("write_manifest", "curriculum.write_manifest"),
    Target("render", "synth.render", counts=_len_result("samples"), peak=True),
    Target("write_wav", "audio_io.write_wav",
           counts=lambda args, kwargs, result: {
               "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}),
    Target("read_wav", "audio_io.read_wav"),
    Target("chroma_similarity", "metrics.chroma_similarity"),
    Target("chromagram", "metrics.chromagram", peak=True),
    Target("dtw_from_costs", "metrics.dtw_from_costs",
           counts=lambda args, kwargs, result: {
               "cells": _arg(args, kwargs, 0, "cost").size}, peak=True),
    Target("tempo_estimate", "metrics.tempo_estimate", peak=True),
    Target("read_embeddings", "metrics.read_embeddings"),
    Target("frechet_distance", "metrics.frechet_distance"),
)


class Tracer:
    """Collects spans from wrapped calls in one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._item: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.item is not None:
                self._item = target.item(args, kwargs) or self._item
            span = Span(
                target.span, 0.0,
                parent=self._open[-1] if self._open else None, item=self._item,
            )
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            if target.peak:
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if target.peak:
                    span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
                    tracemalloc.stop()
                self._open.pop()
            if target.counts is not None:
                span.counts.update(target.counts(args, kwargs, result))
            return result

        return wrapper

    def install(self, modules, targets=TARGETS) -> None:
        """Wrap each target in every module that binds the same function.

        A target no module binds is skipped, so a renamed function drops
        its own numbers without breaking the rest of the trace."""
        for target in targets:
            bound = [m for m in modules if callable(getattr(m, target.attr, None))]
            if not bound:
                continue
            original = getattr(bound[0], target.attr)
            wrapper = self.wrap(original, target)
            for module in bound:
                if getattr(module, target.attr) is original:
                    self._restore.append((module, target.attr, original))
                    setattr(module, target.attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - _covered(children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds ``s``, ``self_s``, summed counts,
    and the largest ``peak_bytes`` of any call."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        agg = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += span.end - span.start
        agg["self_s"] += own
        for key, value in span.counts.items():
            if key == "peak_bytes":
                agg[key] = max(agg.get(key, 0), value)
            else:
                agg[key] = agg.get(key, 0) + value
    return out


def to_json(spans: list[Span]) -> list[dict]:
    return [vars(span) for span in spans]


def from_json(rows: list[dict], offset: int = 0) -> list[Span]:
    """Load spans to append after ``offset`` others: parent indices shift
    with them, so spans from several processes form one list."""
    spans = [Span(**row) for row in rows]
    for span in spans:
        if span.parent is not None:
            span.parent += offset
    return spans
