"""Benchmark-owned spans for the traced run.

A span is one call into a layer of the pipeline: a name, a start, an end,
the span that caused it and the operation it belongs to.  Spans stay in
memory (:class:`Spans`) and are written out as JSON lines when the run
ends.  A layer's self time is its span's duration minus the part of that
interval its child spans cover.

The benchmark opens spans around the calls it makes itself.  Calls the
pipeline makes internally are reached through two hooks the program
already offers: its public ``observer=`` parameter (:class:`LayerObserver`
turns the pipeline's phase spans into benchmark spans) and the public
methods of :class:`~repro.core.cache.ArtifactCache` (:func:`cache_spans`
wraps them for the duration of a traced operation).
"""

from __future__ import annotations

import json
import resource
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.observer import Observer

#: Pipeline phase span -> the layer (module) it times.  Spans not listed
#: (``pipeline.build``, ``pipeline.validate``) are transparent.
PHASE_LAYERS = {
    "phase.cache_load": "core.cache",
    "phase.cache_store": "core.cache",
    "phase.model_build": "smurphi.build",
    "phase.fingerprint": "smurphi.fingerprint",
    "phase.enumerate": "enumeration",
    "phase.incremental_replay": "incremental.replay",
    "phase.incremental_splice": "incremental.splice",
    "phase.tours": "tour",
    "phase.vectors": "vectors",
    "pool": "enumeration.pool",
}


def peak_rss_mb() -> float:
    """This process's peak resident set so far (``ru_maxrss``), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Spans:
    """In-memory span recorder; ``op`` tags every span opened under it."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        rss_before = peak_rss_mb()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["rss_rise_mb"] = peak_rss_mb() - rss_before
            self._stack.pop()


def self_times(records: Iterable[dict]) -> Dict[Tuple[int, str], float]:
    """Self seconds per ``(op, span name)``.

    Spans of one operation run on one thread, so children never overlap
    and the part of a span they cover is the sum of their durations.
    """
    records = list(records)
    covered: Dict[Tuple[int, int], float] = defaultdict(float)
    for record in records:
        if record["parent"] is not None:
            covered[(record["op"], record["parent"])] += (
                record["end"] - record["start"]
            )
    totals: Dict[Tuple[int, str], float] = defaultdict(float)
    for record in records:
        duration = record["end"] - record["start"]
        totals[(record["op"], record["name"])] += (
            duration - covered[(record["op"], record["id"])]
        )
    return totals


def write_spans(path, records: Iterable[dict]) -> None:
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


class LayerObserver(Observer):
    """Observer that records the pipeline's phase spans as layer spans.

    Counters (``tour.index_rebuilds``, ``enum.pool.*``) still land in the
    observer's metrics registry, where the benchmark reads them.
    """

    def __init__(self, spans: Spans):
        super().__init__()
        self._spans = spans

    @contextmanager
    def _layer(self, layer: str):
        with self._spans.span(layer):
            yield self

    def span(self, name: str, **attrs):
        layer = PHASE_LAYERS.get(name)
        return self._layer(layer) if layer else nullcontext(self)


@contextmanager
def cache_spans(spans: Spans):
    """Record every ArtifactCache load/store/copy as a ``core.cache.*`` span."""
    from repro.core.cache import ArtifactCache

    load, store, copy_entry = (
        ArtifactCache.load, ArtifactCache.store, ArtifactCache.copy_entry
    )

    def traced_load(self, key):
        with spans.span("core.cache.load") as record:
            value = load(self, key)
            record["hit"] = value is not None
            record["bytes_read"] = (
                self.pickle_path(key).stat().st_size if value is not None else 0
            )
        return value

    def traced_store(self, key, artifacts, manifest=None):
        with spans.span("core.cache.store") as record:
            path = store(self, key, artifacts, manifest=manifest)
            record["bytes_written"] = path.stat().st_size
        return path

    def traced_copy(self, src_key, dst_key):
        with spans.span("core.cache.copy") as record:
            copied = copy_entry(self, src_key, dst_key)
            size = self.pickle_path(dst_key).stat().st_size if copied else 0
            record["bytes_read"] = record["bytes_written"] = size
        return copied

    ArtifactCache.load = traced_load
    ArtifactCache.store = traced_store
    ArtifactCache.copy_entry = traced_copy
    try:
        yield
    finally:
        ArtifactCache.load = load
        ArtifactCache.store = store
        ArtifactCache.copy_entry = copy_entry
