"""Spans and counters recorded by the benchmark's own wrappers.

The library is not edited.  For a traced pass, `instrument` replaces
selected public functions on the cobweb modules (including the names
other cobweb modules imported, so nested calls are seen too) with
wrappers that open a span, call the original and add counts taken from
the arguments and the result.  Calls made while no operation span is
open, such as the benchmark's own checks, are passed straight through
and not recorded.

Each span holds a name equal to its per-layer metric prefix, a start and
an end (perf_counter seconds), the id of the span it ran inside, and the
instance id of the operation it belongs to.  Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from cobweb import blockgraph, coefficients, fsequence, geometry, tiling

# Timed layers; the ".s" metric of each is its self time (span time
# minus the time of the traced spans nested inside it).
TIMED_LAYERS = (
    "tiling.verify",
    "tiling.construct",
    "tiling.exact_cover",
    "tiling.census",
    "geometry.block_family",
    "blockgraph.build",
    "blockgraph.clique",
    "coefficients.fnomial",
    "render.svg",
)


def _count_verify(counts, args, result):
    blocks = len(args[0].blocks)
    counts["tiling.verify.block_pairs"] += blocks * (blocks - 1) // 2
    counts["tiling.verify.invalid_detected"] += not result.valid


def _count_construct(counts, args, result):
    counts["tiling.construct.blocks"] += len(result.blocks)


def _count_exact_cover(counts, args, result):
    counts["tiling.exact_cover.nodes"] += result.nodes
    counts["tiling.exact_cover.tilings"] += result.total


def _count_census(counts, args, result):
    counts["tiling.census.sequences"] += result.sequences
    counts["tiling.census.distinct"] += result.distinct


def _count_block_family(counts, args, result):
    counts["geometry.block_family.blocks"] += len(result.blocks)
    counts["geometry.block_family.pairs"] += result.pair_count


def _count_build(counts, args, result):
    vertices = result.vertex_count()
    counts["blockgraph.build.vertices"] += vertices
    counts["blockgraph.build.edges"] += result.edge_count()
    counts["blockgraph.build.pair_checks"] += vertices * (vertices - 1) // 2


def _count_cliques(counts, args, result):
    counts["blockgraph.clique.nodes"] += result.nodes
    counts["blockgraph.clique.cliques"] += len(result.cliques)


# (module, attribute, span name, counter); a function imported by name
# into several modules is wrapped on each of them.
WRAPPED = (
    (tiling, "verify_tiling", "tiling.verify", _count_verify),
    (blockgraph, "verify_tiling", "tiling.verify", _count_verify),
    (tiling, "construct_tiling", "tiling.construct", _count_construct),
    (tiling, "construct_multi_tiling", "tiling.construct", _count_construct),
    (tiling, "enumerate_all_tilings", "tiling.exact_cover", _count_exact_cover),
    (tiling, "construction_census", "tiling.census", _count_census),
    (geometry, "block_family", "geometry.block_family", _count_block_family),
    (tiling, "block_family", "geometry.block_family", _count_block_family),
    (blockgraph, "block_family", "geometry.block_family", _count_block_family),
    (blockgraph, "build_block_graph", "blockgraph.build", _count_build),
    (blockgraph, "find_clique", "blockgraph.clique", None),
    (blockgraph, "enumerate_size_d_cliques", "blockgraph.clique", _count_cliques),
    (coefficients, "fnomial", "coefficients.fnomial", None),
    (coefficients, "multi_fnomial", "coefficients.fnomial", None),
    (blockgraph, "fnomial", "coefficients.fnomial", None),
)

CACHES = {
    "coefficients.f_factorial.hit_ratio": coefficients.f_factorial,
    "fsequence.term.hit_ratio": fsequence.term,
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str, instance: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            instance = self.spans[parent]["instance"]
        self.spans.append({"id": sid, "name": name, "start": perf_counter(),
                           "end": None, "parent": parent, "instance": instance})
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = perf_counter()

    def _wrap(self, module, attr: str, name: str, count) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self._stack:
                return original(*args, **kwargs)
            with self.span(name, None):
                result = original(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    @contextmanager
    def instrument(self):
        """Wrap the library's public layer functions for the duration."""
        try:
            for module, attr, name, count in WRAPPED:
                self._wrap(module, attr, name, count)
            yield self
        finally:
            for module, attr, original in reversed(self._patches):
                setattr(module, attr, original)
            self._patches.clear()


def self_times(spans: list[dict]) -> Counter:
    """Summed self time per span name: duration minus traced children."""
    child_time: Counter = Counter()
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: Counter = Counter()
    for span in spans:
        out[span["name"]] += span["end"] - span["start"] - child_time[span["id"]]
    return out


def cache_snapshot() -> dict:
    return {name: fn.cache_info() for name, fn in CACHES.items()}


def layer_metrics(spans: list[dict], counts: Counter, before: dict, after: dict) -> dict:
    """Per-layer figures of one traced pass, keyed by metric name."""
    own = self_times(spans)
    out = {f"{name}.s": own[name] for name in TIMED_LAYERS}

    def ratio(num, den):
        return num / den if den else 0.0

    for key in ("tiling.verify.block_pairs", "tiling.verify.invalid_detected",
                "tiling.construct.blocks", "tiling.exact_cover.nodes",
                "tiling.census.sequences", "geometry.block_family.blocks",
                "blockgraph.build.vertices", "blockgraph.build.edges",
                "blockgraph.build.pair_checks", "blockgraph.clique.nodes"):
        out[key] = counts[key]
    out["tiling.exact_cover.nodes_per_s"] = ratio(
        counts["tiling.exact_cover.nodes"], own["tiling.exact_cover"])
    out["tiling.exact_cover.tilings_per_node"] = ratio(
        counts["tiling.exact_cover.tilings"], counts["tiling.exact_cover.nodes"])
    out["tiling.census.distinct_ratio"] = ratio(
        counts["tiling.census.distinct"], counts["tiling.census.sequences"])
    out["geometry.block_family.distinct_ratio"] = ratio(
        counts["geometry.block_family.blocks"], counts["geometry.block_family.pairs"])
    out["blockgraph.clique.nodes_per_s"] = ratio(
        counts["blockgraph.clique.nodes"], own["blockgraph.clique"])
    out["blockgraph.clique.cliques_per_node"] = ratio(
        counts["blockgraph.clique.cliques"], counts["blockgraph.clique.nodes"])
    for name in CACHES:
        hits = after[name].hits - before[name].hits
        misses = after[name].misses - before[name].misses
        out[name] = ratio(hits, hits + misses)
    return out
