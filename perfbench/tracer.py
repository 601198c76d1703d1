"""Spans around floodbench's layer calls, recorded from outside the program.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper, at
the name its caller looks it up under (``floodbench.ensemble`` imports
``apply_filter_config`` into its own namespace, so that is where it is
wrapped). Each call records one span: name, start, end, parent span and
trace id, the ``config_id`` of the enclosing ``run_pipeline``. Spans stay
in memory until ``dump`` writes them as JSONL. ``layer_metrics`` folds one
pass's spans into the per-layer metrics.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _pipeline_trace(args, kwargs) -> str:
    return str(getattr(_arg(args, kwargs, 1, "cfg"), "config_id", ""))


def _cache_attrs(args, kwargs, result) -> dict:
    cache, key, kind = args[0], _arg(args, kwargs, 1, "key"), \
        _arg(args, kwargs, 2, "kind")
    attrs = {"kind": kind}
    if isinstance(result, tuple) and len(result) == 2:
        attrs["hit"] = bool(result[1])
    directory = getattr(cache, "directory", None)
    if directory:
        # StageCache keeps one .npz per key; its size is what was loaded
        # on a hit or stored on a miss
        try:
            attrs["bytes"] = os.path.getsize(
                os.path.join(directory, key + ".npz"))
        except OSError:
            pass
    return attrs


def _mask_attrs(args, kwargs, result) -> dict:
    return {"digest": hashlib.sha1(result.values.tobytes()).hexdigest()}


def _count_attrs(args, kwargs, result) -> dict:
    return {"n": len(result)}


def _bytes_attrs(args, kwargs, result) -> dict:
    return {"bytes": len(_arg(args, kwargs, 1, "payload"))}


# (owner "module:attr.path", function name, span name, attrs from result)
TARGETS = (
    ("floodbench.cli", "read_sweep_plan", "cli.plan_load", None),
    ("floodbench.cli", "sweep", "ensemble.sweep", None),
    ("floodbench.ensemble", "run_pipeline", "ensemble.pipeline", None),
    ("floodbench.ensemble:StageCache", "get_or_compute", "ensemble.cache",
     _cache_attrs),
    ("floodbench.ensemble", "digest_raster", "ensemble.digest", None),
    ("floodbench.ensemble", "digest_mask", "ensemble.digest", None),
    ("floodbench.ensemble", "digest_file", "ensemble.digest", None),
    ("floodbench.ensemble", "read_raster", "raster.read", None),
    ("floodbench.ensemble", "read_mask", "raster.read", None),
    ("floodbench.speckle", "read_raster", "raster.read", None),
    ("floodbench.mapping", "read_mask", "raster.read", None),
    ("floodbench.ensemble", "write_raster", "raster.write", None),
    ("floodbench.ensemble", "write_mask", "raster.write", None),
    ("floodbench.raster", "atomic_write_bytes", "raster.atomic_write",
     _bytes_attrs),
    ("floodbench.ensemble", "apply_filter_config", "speckle", None),
    ("floodbench.speckle", "median_filter", "speckle.median", None),
    ("floodbench.speckle", "lee_filter", "speckle.lee", None),
    ("floodbench.speckle", "lee_sigma_filter", "speckle.lee_sigma", None),
    ("floodbench.speckle", "frost_filter", "speckle.frost", None),
    ("floodbench.ensemble", "apply_mapper_config", "mapping", _mask_attrs),
    ("floodbench.mapping", "to_db", "mapping.to_db", None),
    ("floodbench.mapping", "global_threshold_map",
     "mapping.global_threshold", None),
    ("floodbench.mapping", "local_threshold_map", "mapping.local_threshold",
     None),
    ("floodbench.mapping", "chan_vese_map", "mapping.active_contour", None),
    ("floodbench.mapping", "change_detection_map",
     "mapping.change_detection", None),
    ("floodbench.mapping", "fit_two_gaussians", "mapping.fit", None),
    ("floodbench.mapping", "quadtree_tiles", "mapping.tiles", _count_attrs),
    ("floodbench.mapping", "apply_morphology", "mapping.morphology", None),
    ("floodbench.ensemble", "apply_depth_config", "depth", None),
    ("floodbench.depth", "fwdet", "depth.fwdet", None),
    ("floodbench.depth", "flexth", "depth.flexth", None),
    ("floodbench.depth", "extract_boundary", "depth.boundary", None),
    ("floodbench.depth", "nearest_feature", "raster.nearest_feature", None),
    ("floodbench.ensemble", "confusion", "metrics", None),
    ("floodbench.ensemble", "accuracy", "metrics", None),
    ("floodbench.ensemble", "f1", "metrics", None),
    ("floodbench.ensemble", "flooded_area_km2", "metrics", None),
    ("floodbench.ensemble", "depth_rmse", "metrics", None),
    ("floodbench.ensemble", "rmse_at_points", "metrics", None),
    ("floodbench.metrics", "append_manifest_row", "metrics.manifest", None),
)


def _owner(path: str):
    module, _, attrs = path.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    for attr in filter(None, attrs.split(".")):
        obj = getattr(obj, attr, None)
    return obj


class Tracer:
    """Records one span per call of each wrapped function, in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def install(self) -> list[str]:
        """Wrap every target; return the targets the program lacks."""
        missing = []
        for owner_path, attr, name, attrs_of in TARGETS:
            owner = _owner(owner_path)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                missing.append("%s.%s" % (owner_path, attr))
                continue
            setattr(owner, attr, self._wrap(fn, name, attrs_of))
        return missing

    def _wrap(self, fn, name: str, attrs_of):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter
        opens_trace = name == "ensemble.pipeline"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            outer_trace = getattr(local, "trace", "")
            trace = _pipeline_trace(args, kwargs) if opens_trace \
                else outer_trace
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            local.trace = trace
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans.append((sid, parent, trace, name, t0, clock(),
                              {"error": type(exc).__name__},
                              threading.get_ident()))
                raise
            finally:
                stack.pop()
                local.trace = outer_trace
            t1 = clock()
            attrs = None
            if attrs_of is not None:
                try:
                    attrs = attrs_of(args, kwargs, result)
                except Exception as exc:  # never let tracing fail a call
                    attrs = {"attrs_error": type(exc).__name__}
            spans.append((sid, parent, trace, name, t0, t1, attrs,
                          threading.get_ident()))
            return result
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, trace, name, t0, t1, attrs, thread in self.spans:
                rec = {"id": sid, "parent": parent, "trace": trace,
                       "name": name, "start": t0, "end": t1,
                       "thread": thread}
                rec.update(attrs or {})
                fh.write(json.dumps(rec) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# per-pass layer metrics: name -> unit, in report order
LAYER_METRICS = {
    "speckle.calls": "count",
    "speckle.busy_s": "s",
    "speckle.median.busy_s": "s",
    "speckle.lee.busy_s": "s",
    "speckle.lee_sigma.busy_s": "s",
    "speckle.frost.busy_s": "s",
    "mapping.calls": "count",
    "mapping.failed": "count",
    "mapping.busy_s": "s",
    "mapping.global_threshold.busy_s": "s",
    "mapping.local_threshold.busy_s": "s",
    "mapping.active_contour.busy_s": "s",
    "mapping.change_detection.busy_s": "s",
    "mapping.to_db.calls": "count",
    "mapping.to_db.busy_s": "s",
    "mapping.fit.calls": "count",
    "mapping.tiles": "count",
    "mapping.morphology.busy_s": "s",
    "mapping.distinct_mask_ratio": "ratio",
    "depth.calls": "count",
    "depth.busy_s": "s",
    "depth.fwdet.busy_s": "s",
    "depth.flexth.busy_s": "s",
    "depth.boundary.busy_s": "s",
    "raster.nearest_feature.calls": "count",
    "raster.nearest_feature.busy_s": "s",
    "raster.write.calls": "count",
    "raster.write.busy_s": "s",
    "raster.write.bytes": "bytes",
    "raster.read.busy_s": "s",
    "metrics.busy_s": "s",
    "metrics.manifest.busy_s": "s",
    **{"ensemble.cache.%s.%s" % (kind, what): unit
       for kind in ("raster", "mask", "depth")
       for what, unit in (("hits", "count"), ("misses", "count"),
                          ("hit_ratio", "ratio"))},
    "ensemble.cache.self_s": "s",
    "ensemble.cache.bytes": "bytes",
    "ensemble.digest.calls": "count",
    "ensemble.digest.busy_s": "s",
    "ensemble.pipeline.self_s": "s",
    "ensemble.worker_idle_s": "s",
    "cli.import_s": "s",
    "cli.plan_load_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(part: float, whole: float) -> float:
    # an empty denominator (nothing looked up) reports 0, not NaN
    return part / whole if whole else 0.0


def layer_metrics(spans: list[dict], import_s: float, jobs: int,
                  overhead_s: float) -> dict:
    """Fold one pass's spans into the values named in LAYER_METRICS.

    ``<span>.calls`` and ``<span>.busy_s`` are the count and summed
    duration of the spans of that name; the rest are derived below.
    """
    calls: dict = defaultdict(int)
    busy: dict = defaultdict(float)
    child_s: dict = defaultdict(float)
    for s in spans:
        dur = s["end"] - s["start"]
        calls[s["name"]] += 1
        busy[s["name"]] += dur
        child_s[s["parent"]] += dur

    def named(name):
        return [s for s in spans if s["name"] == name]

    def self_s(name):
        return sum(s["end"] - s["start"] - child_s[s["id"]]
                   for s in named(name))

    out = {
        "mapping.failed": sum("error" in s for s in named("mapping")),
        "mapping.tiles": sum(s.get("n", 0) for s in named("mapping.tiles")),
        "mapping.distinct_mask_ratio": _ratio(
            len({s["digest"] for s in named("mapping") if "digest" in s}),
            calls["mapping"]),
        "raster.write.bytes": sum(s.get("bytes", 0)
                                  for s in named("raster.atomic_write")),
        "ensemble.cache.self_s": self_s("ensemble.cache"),
        "ensemble.cache.bytes": sum(s.get("bytes", 0)
                                    for s in named("ensemble.cache")),
        "ensemble.pipeline.self_s": self_s("ensemble.pipeline"),
        "ensemble.worker_idle_s": jobs * busy["ensemble.sweep"]
        - busy["ensemble.pipeline"],
        "cli.import_s": import_s,
        "cli.plan_load_s": busy["cli.plan_load"],
        "trace.overhead_s": overhead_s,
    }
    for kind in ("raster", "mask", "depth"):
        lookups = [s for s in named("ensemble.cache") if s.get("kind") == kind]
        hits = sum(s.get("hit") is True for s in lookups)
        misses = sum(s.get("hit") is False for s in lookups)
        out["ensemble.cache.%s.hits" % kind] = hits
        out["ensemble.cache.%s.misses" % kind] = misses
        out["ensemble.cache.%s.hit_ratio" % kind] = _ratio(hits, hits + misses)
    for name in LAYER_METRICS:
        if name not in out:
            span, _, what = name.rpartition(".")
            out[name] = calls[span] if what == "calls" else busy[span]
    return {name: out[name] for name in LAYER_METRICS}
