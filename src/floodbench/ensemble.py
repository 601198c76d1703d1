"""Configuration-space enumeration and orchestrated pipeline sweeps.

The hyperparameter grid enumerates to exactly 26 filter configurations,
48 mapper configurations (432 with the 9-point morphology grid), and 19
depth configurations. Sweeps run the filter -> map -> morphology ->
optional depth -> metrics pipeline for every configuration, in one group
per filter on a bounded thread pool. Every stage output is a node of the
group's StageCache, keyed on its stage version, its parameters and its
parents, so shared prefixes compute once: the filtered image, the base
mask of a mapper (shared by its morphology variants, whose node keys on
the base node's key), the local-threshold tile table of a filtered image
and tile size (shared by all 18 AD/BC/SR gates), and the depth field of
a mask (keyed on the mask's content, so equal masks from different
mappers share it). The cache holds recent outputs in a bounded memory
tier before its optional disk tier, so a process reads each entry from
disk once. Failed configurations become failed records and never abort a
sweep; a method failure (DegenerateError) is cached like an output.
"""
from __future__ import annotations

import configparser
import functools
import logging
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from . import mapping, metrics
from .depth import (DEPTH_METHODS, DepthAux, DepthConfig, DepthField,
                    TABLE_NEIGHBORS, TABLE_SLOPE, TABLE_SMOOTHING,
                    apply_depth_config, read_cross_sections)
from .errors import DegenerateError, FloodbenchError, InputError
from .mapping import (ChanVeseParams, MAPPER_METHODS, MapperAux,
                      MapperConfig, MorphologyConfig, TABLE_AD, TABLE_BC,
                      TABLE_CV_ALPHA, TABLE_MIN_TILE, TABLE_MORPH, TABLE_SR,
                      apply_mapper_config)
from .metrics import (MetricsRecord, accuracy, confusion, depth_rmse, f1,
                      flooded_area_km2, read_watermarks, rmse_at_points)
from .raster import (BinaryMask, Raster, atomic_file, canonical_json,
                     digest_bytes, mask_like, nearest_table, read_mask,
                     read_raster, require_same_grid, write_mask, write_raster)
from .speckle import (FILTER_METHODS, FilterConfig, SpeckleModel,
                      TABLE_ALPHA, TABLE_WINDOW_SIDES, TABLE_XI,
                      apply_filter_config)

log = logging.getLogger("floodbench")

CACHE_ENV = "FLOODBENCH_CACHE_DIR"
EXTERNAL_FILTER_PLACEHOLDER = "external://sar2sar"
EXTERNAL_MASK_PLACEHOLDER = "external://%s"
# The bound of the StageCache memory tier: the summed .nbytes of the arrays
# of the entries it holds.
MEMORY_TIER_BYTES = 256 * 10**6


def digest_file(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return digest_bytes(fh.read())
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc


@dataclass(frozen=True)
class ConfigSpec:
    """One point of the full pipeline hyperparameter space."""

    filter: FilterConfig
    mapper: MapperConfig
    morphology: MorphologyConfig
    depth: DepthConfig | None = None

    @functools.cached_property
    def config_id(self) -> str:
        # canonical_json of {"filter": asdict(filter), ...}, spliced from
        # the stage configs' own serializations
        payload = '{"depth":%s,"filter":%s,"mapper":%s,"morphology":%s}' % (
            self.depth.params_json if self.depth else "null",
            self.filter.params_json, self.mapper.params_json,
            self.morphology.params_json)
        return digest_bytes(payload.encode())[:16]


# ---------------------------------------------------------------------------
# enumeration of the hyperparameter grids


def enumerate_filters(external_path: str | None = None,
                      include_external: bool = True) -> list[FilterConfig]:
    """The 26 speckle-filtering configurations.

    1 no-op + 3 median + 3 lee + 9 lee_sigma + 9 frost + 1 external
    despeckler stand-in. Pass include_external=False to shrink the space
    when no externally despeckled raster is available.
    """
    ks = [side // 2 for side in TABLE_WINDOW_SIDES]
    configs = [FilterConfig("none")]
    configs += [FilterConfig("median", k=k) for k in ks]
    configs += [FilterConfig("lee", k=k) for k in ks]
    configs += [FilterConfig("lee_sigma", k=k, xi=xi)
                for k in ks for xi in TABLE_XI]
    configs += [FilterConfig("frost", k=k, alpha=a)
                for k in ks for a in TABLE_ALPHA]
    if include_external:
        configs.append(FilterConfig(
            "external", path=external_path or EXTERNAL_FILTER_PLACEHOLDER))
    return configs


def morphology_grid() -> list[MorphologyConfig]:
    return [MorphologyConfig(True, fill, remove)
            for fill in TABLE_MORPH for remove in TABLE_MORPH]


def enumerate_mappers(with_morphology: bool = False,
                      cnn_path: str | None = None,
                      rf_path: str | None = None,
                      include_external: bool = True
                      ) -> list[tuple[MapperConfig, MorphologyConfig]]:
    """The 48 mapper configurations, times 9 morphologies when flagged.

    2 global + 36 local (2 tile sizes x 3 AD x 2 BC x 3 SR) + 6 active
    contour + 2 change detection + 2 external classifier stand-ins.
    """
    mappers = [MapperConfig("global_threshold", selector=s)
               for s in ("otsu", "ki")]
    mappers += [MapperConfig("local_threshold", min_tile_side=tile,
                             ad_min=ad, bc_min=bc, sr_min=sr)
                for tile in TABLE_MIN_TILE for ad in TABLE_AD
                for bc in TABLE_BC for sr in TABLE_SR]
    mappers += [MapperConfig("active_contour",
                             chan_vese=ChanVeseParams(alpha=a))
                for a in TABLE_CV_ALPHA]
    mappers += [MapperConfig("change_detection", selector=s)
                for s in ("otsu", "ki")]
    if include_external:
        mappers += [MapperConfig("external_mask", external_label=label,
                                 external_path=path
                                 or EXTERNAL_MASK_PLACEHOLDER % label)
                    for label, path in (("cnn", cnn_path), ("rf", rf_path))]
    if not with_morphology:
        off = MorphologyConfig(False)
        return [(m, off) for m in mappers]
    return [(m, morph) for m in mappers for morph in morphology_grid()]


def enumerate_depth() -> list[DepthConfig]:
    """The 19 depth configurations: 9 fwdet + 9 flexth + 1 cross-section."""
    configs = [DepthConfig("fwdet", slope_threshold=s, smoothing_iterations=n)
               for s in TABLE_SLOPE for n in TABLE_SMOOTHING]
    configs += [DepthConfig("flexth", slope_threshold=s, max_neighbors=k)
                for s in TABLE_SLOPE for k in TABLE_NEIGHBORS]
    configs.append(DepthConfig("cross_section"))
    return configs


def build_config_specs(filters, mapper_morphs, depth_configs=None
                       ) -> list[ConfigSpec]:
    """Cross product of stage configurations into pipeline ConfigSpecs."""
    return [ConfigSpec(flt, mapper, morph, dep) for flt in filters
            for mapper, morph in mapper_morphs
            for dep in depth_configs or [None]]


# ---------------------------------------------------------------------------
# stage cache


class StageCache:
    """Content-addressed store of intermediate stage outputs, in two tiers.

    The memory tier keeps recent outputs in least-recently-used order, up
    to ``bound`` bytes of array data (default MEMORY_TIER_BYTES); an entry
    larger than that is not held. With a directory, a disk tier keeps one
    .npy array per key, written through on every compute and read without
    pickles: a raster's or a mask's values, depth and WSE stacked as
    (2, H, W), or a tile table. The array carries no geometry: every
    output of a sweep lies on its input grid, so each lookup passes a
    ``decode`` that rebuilds the output from the array. An entry that
    cannot be read or decoded is a logged miss. A lookup tries memory,
    then disk, then computes, and remembers what it decoded or computed,
    so a process reads an entry from disk at most once unless the memory
    tier evicted it. Without a directory an evicted entry is recomputed. A
    compute that raises DegenerateError is stored as its message (a 0-d
    string array) and raises the same message on every hit; other errors
    store nothing. Keys are content hashes of the stage configuration plus
    all input digests, so equal keys imply byte-identical outputs. An
    entry looked up with ``persist=False`` lives in the memory tier only:
    it is never read from or written to disk. A store that fails (a full
    disk, say) is logged, and the output is held in memory and returned as
    if it had been stored.

    One cache serves one thread and takes no lock. Caches may share a
    directory: each store is one ``atomic_file``.
    """

    def __init__(self, directory: str | None = None,
                 bound: int | None = None):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)
        self.bound = MEMORY_TIER_BYTES if bound is None else bound
        self._mem: OrderedDict = OrderedDict()  # key -> (entry, bytes)
        self.held_bytes = 0
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".npy")

    def get_or_compute(self, key: str, kind: str, compute, decode=np.asarray,
                       persist: bool = True):
        """Return (object, cache_hit) for the keyed stage output; a stored
        failure raises its DegenerateError again. ``decode`` rebuilds the
        output from its stored array (the default keeps the array, as a
        tile table is); ``kind`` names the output for tracing. With
        ``persist=False`` the disk tier is skipped."""
        disk = persist and bool(self.directory)
        entry = self._recall(key)
        if entry is None and disk:
            entry = self._decoded(key, decode)
            if entry is not None:
                self._remember(key, entry)
        if entry is not None:
            self.hits += 1
            if isinstance(entry, DegenerateError):
                raise DegenerateError(str(entry))
            return entry, True
        self.misses += 1
        try:
            obj = compute()
        except DegenerateError as exc:
            # deterministic given the key: later lookups raise it again
            # (held without the traceback, which pins the stage's frames)
            self._keep(key, DegenerateError(str(exc)), disk)
            raise
        self._keep(key, obj, disk)
        return obj, False

    def _keep(self, key: str, obj, disk) -> None:
        if disk:
            try:
                self._store(key, obj)
            except OSError as exc:
                # the cache only saves work: a computed output is still
                # good, and a later run stores it again
                log.warning("stage=cache status=unwritable key=%s "
                            "error=%s: %s", key[:12], type(exc).__name__, exc)
        self._remember(key, obj)

    def _recall(self, key: str):
        held = self._mem.get(key)
        if held is None:
            return None
        self._mem.move_to_end(key)
        return held[0]

    def _remember(self, key: str, obj) -> None:
        if isinstance(obj, np.ndarray):
            # the tile table; Raster and BinaryMask values are read-only
            obj.flags.writeable = False
        size = sum(a.nbytes for a in _arrays(obj))
        if size > self.bound:
            return
        if key in self._mem:
            self.held_bytes -= self._mem.pop(key)[1]
        self._mem[key] = (obj, size)
        self.held_bytes += size
        while self.held_bytes > self.bound:
            self.held_bytes -= self._mem.popitem(last=False)[1][1]

    def _load(self, key: str) -> np.ndarray | None:
        """The stored array of a key, or None when there is none."""
        try:
            with open(self._path(key), "rb") as fh:
                # the .npy format only: np.load would open a zip as well
                return np.lib.format.read_array(fh, allow_pickle=False)
        except FileNotFoundError:
            return None

    def _decoded(self, key: str, decode):
        """The output (or stored failure) on disk under a key; None when
        there is none or it cannot be read or decoded."""
        try:
            arr = self._load(key)
            if arr is None:
                return None
            if arr.dtype.kind == "U":
                return DegenerateError(str(arr))
            return decode(arr)
        except (OSError, ValueError, EOFError, InputError):
            # an unreadable entry is a miss, which the atomic store replaces
            log.warning("stage=cache status=corrupt key=%s", key[:12])
            return None

    def _store(self, key: str, obj) -> None:
        arrays = _arrays(obj)
        with atomic_file(self._path(key)) as fh:
            np.save(fh, np.stack(arrays) if len(arrays) > 1 else arrays[0],
                    allow_pickle=False)


def _arrays(obj) -> list[np.ndarray]:
    """The arrays of a stage output, or the message of a stored failure;
    a disk entry stacks them into one."""
    if isinstance(obj, DepthField):
        return [obj.depth.values, obj.wse.values]
    if isinstance(obj, (Raster, BinaryMask)):
        return [obj.values]
    if isinstance(obj, DegenerateError):
        return [np.array(str(obj))]
    return [obj]


# ---------------------------------------------------------------------------
# pipeline inputs and execution


@dataclass
class PipelineInputs:
    """Shared rasters, masks, and side data for a sweep."""

    flood: Raster
    reference: Raster | None = None
    dem: Raster | None = None
    reference_mask: BinaryMask | None = None
    permanent_water: BinaryMask | None = None
    exclusion: BinaryMask | None = None
    reference_depth: Raster | None = None
    watermarks: np.ndarray | None = None
    sections: tuple = ()
    looks: float = 1.0
    external_reference_path: str | None = None
    _file_digests: dict = field(default_factory=dict, repr=False)

    def validate(self) -> None:
        for name in ("reference", "dem", "reference_mask", "permanent_water",
                     "exclusion", "reference_depth"):
            other = getattr(self, name)
            if other is not None:
                require_same_grid(self.flood, other,
                                  "flood image and %s" % name)

    def digest(self, name: str) -> str:
        """The content digest of an input grid, or "absent"."""
        obj = getattr(self, name)
        return "absent" if obj is None else obj.digest

    def file_digest(self, path: str) -> str:
        """digest_file of an external input, memoised per path for the
        life of these inputs (one sweep)."""
        if path not in self._file_digests:
            self._file_digests[path] = digest_file(path)
        return self._file_digests[path]


class PipelineResult:
    def __init__(self, mask, depth, record):
        self.mask = mask
        self.depth = depth
        self.record = record


# Bump a stage's version whenever its algorithm may change a stored output
# bit, and CACHE_FORMAT whenever the entry layout changes, so entries written
# by older code are misses rather than stale hits.
CACHE_FORMAT = 2
STAGE_VERSIONS = {"filter": 1, "filter_ref": 1, "map": 1, "morph": 1,
                  "tiles": 1, "depth": 1, "nearest": 1}


def _stage_key(stage: str, params_json: str, *digests: str) -> str:
    """sha256 of canonical_json([CACHE_FORMAT, stage, version, params,
    digests]), with the parameters spliced in already serialized."""
    return digest_bytes(('[%d,"%s",%d,%s,%s]' % (
        CACHE_FORMAT, stage, STAGE_VERSIONS[stage], params_json,
        canonical_json(list(digests)))).encode())


def _node(cache: StageCache, stage: str, params_json: str, parents,
          kind: str, compute, label: str, decode, persist: bool = True):
    """The versioned key of one stage output, from its parameters (as
    canonical JSON) and its parents' keys or digests, and a getter that
    loads (rebuilding the output from its stored array with ``decode``) or
    computes it; ``persist=False`` keeps the output in memory only."""
    key = _stage_key(stage, params_json, *parents)

    def get():
        obj, hit = cache.get_or_compute(key, kind, compute, decode, persist)
        log.info("stage=%s config=%s status=%s", stage, label,
                 "cached" if hit else "computed")
        return obj
    return key, get


def _nearest(cache: StageCache, src: np.ndarray, qry: np.ndarray,
             k: int) -> tuple[np.ndarray, np.ndarray]:
    """``nearest_table(src, qry, k)``, read from a memory-only node keyed
    on the content of the boundary cells, the queried cells and the
    table's width, so the depth configs of a mask that query one boundary
    share one table. For k > 1 the table is max(k, 20) wide (all of the
    boundary when that is smaller), and k is its first k columns: the
    (d², row, col) ranking is a total order, so a prefix is exact, and
    FLEXTH's K = 5, 10 and 20 share one table. It is held as one
    (2, Q, width) int64 array: indices, then squared distances."""
    width = k if k == 1 else min(max(k, max(TABLE_NEIGHBORS)), src.shape[0])
    table = _node(cache, "nearest", canonical_json(width),
                  [digest_bytes(src.tobytes()), digest_bytes(qry.tobytes())],
                  "nearest", lambda: np.stack(nearest_table(src, qry, width)),
                  "k=%d" % width, np.asarray, persist=False)[1]()
    return table[0, :, :k], table[1, :, :k]


def _filtered(inputs: PipelineInputs, fcfg: FilterConfig, cache: StageCache,
              stage: str = "filter") -> Raster:
    """The flood image (stage ``filter``) or the reference image (stage
    ``filter_ref``) after one filter configuration."""
    name = "reference" if stage == "filter_ref" else "flood"
    image = getattr(inputs, name)
    if image is None:
        raise InputError("change detection requires a reference image")
    if fcfg.method == "external" and name == "reference":
        if inputs.external_reference_path:
            fcfg = FilterConfig("external",
                                path=inputs.external_reference_path)
        else:
            # no externally despeckled reference supplied: fall back to the
            # raw reference image for the log-ratio
            log.info("stage=filter_ref config=%s status=fallback_unfiltered",
                     fcfg.describe())
            fcfg = FilterConfig("none")
    in_digest = inputs.file_digest(fcfg.path) if fcfg.method == "external" \
        else inputs.digest(name)
    model = SpeckleModel(inputs.looks)
    return _node(cache, stage, fcfg.params_json,
                 [in_digest, canonical_json(inputs.looks)], "raster",
                 lambda: apply_filter_config(image, fcfg, model),
                 fcfg.describe(), image.like)[1]()


def _mask(inputs: PipelineInputs, cfg: ConfigSpec,
          cache: StageCache) -> BinaryMask:
    """filter -> base mask -> morphology. The morph node keys on the base
    node's key and loads the base mask only when it computes."""
    filtered = _filtered(inputs, cfg.filter, cache)
    mapper = cfg.mapper
    reference = (_filtered(inputs, cfg.filter, cache, "filter_ref")
                 if mapper.method == "change_detection" else None)
    parents = [filtered.digest]
    if reference is not None:
        parents.append(reference.digest)
    if mapper.method == "active_contour":
        parents.append(inputs.digest("permanent_water"))
    if mapper.method == "external_mask":
        parents.append(inputs.file_digest(mapper.external_path))

    def base_mask():
        scores = None
        if mapper.method == "local_threshold":
            side = mapper.min_tile_side
            scores = _node(cache, "tiles", canonical_json(side), parents[:1],
                           "tiles", lambda: mapping.tile_scores(
                               mapping.to_db(filtered), side),
                           "tile=%d" % side, np.asarray)[1]()
        return apply_mapper_config(
            filtered, mapper, MorphologyConfig(False),
            MapperAux(reference, inputs.permanent_water, scores))

    on_grid = functools.partial(mask_like, inputs.flood)
    base_key, base = _node(cache, "map", mapper.params_json, parents,
                           "mask", base_mask, mapper.describe(), on_grid)
    if not cfg.morphology.enabled:
        return base()
    morph = cfg.morphology
    return _node(cache, "morph", morph.params_json, [base_key], "mask",
                 lambda: mapping.apply_morphology(base(), morph),
                 morph.describe(), on_grid)[1]()


def run_pipeline(inputs: PipelineInputs, cfg: ConfigSpec,
                 cache: StageCache | None = None,
                 out_dir: str | None = None) -> PipelineResult:
    """Execute filter -> map -> morphology -> optional depth -> metrics.

    Failures inside any stage produce a failed MetricsRecord instead of an
    exception, so sweeps always run to completion; an exception that is not
    a FloodbenchError is recorded with reason ``internal: <Type>: <msg>``.
    When ``out_dir`` is set the produced rasters land under
    out_dir/<config_id>/; a write that fails makes an ok record failed
    with reason ``output: <Type>: <msg>``. ``wall_ms`` leaves the writes
    out.
    """
    cache = cache or StageCache()
    rec = MetricsRecord(
        config_id=cfg.config_id,
        filter_method=cfg.filter.method,
        filter_params=cfg.filter.describe(),
        mapper_method=cfg.mapper.method,
        mapper_params=cfg.mapper.describe(),
        morph_params=cfg.morphology.describe(),
        depth_method=cfg.depth.method if cfg.depth else "",
        depth_params=cfg.depth.describe() if cfg.depth else "")
    t0 = time.perf_counter()
    mask = None
    dfield = None
    try:
        mask = _mask(inputs, cfg, cache)
        rec.area_km2 = flooded_area_km2(mask)
        if inputs.reference_mask is not None:
            counts = confusion(mask, inputs.reference_mask,
                               inputs.exclusion if inputs.exclusion is not None
                               else inputs.permanent_water)
            rec.acc = accuracy(counts)
            rec.f1 = f1(counts)
        if cfg.depth is not None:
            if inputs.dem is None:
                raise InputError("depth estimation requires a DEM")
            dfield = _node(
                cache, "depth", cfg.depth.params_json,
                [mask.digest, inputs.digest("dem"),
                 inputs.digest("exclusion"),
                 canonical_json([list(s.vertices) for s in inputs.sections])],
                "depth",
                lambda: apply_depth_config(
                    mask, inputs.dem, cfg.depth,
                    DepthAux(inputs.exclusion, tuple(inputs.sections),
                             functools.partial(_nearest, cache))).field,
                cfg.depth.describe(),
                lambda a: DepthField(inputs.dem.like(a[0]),
                                     inputs.dem.like(a[1])))[1]()
            if inputs.reference_depth is not None:
                rec.rmse_m = depth_rmse(dfield, inputs.reference_depth)
            elif inputs.watermarks is not None:
                pts = rmse_at_points(dfield, inputs.watermarks)
                rec.rmse_m = pts.rmse
                rec.skipped_points = pts.skipped
        rec.status = "ok"
    except Exception as exc:
        # a bug in one stage must not abort the sweep: record it, with its
        # traceback in the log
        internal = not isinstance(exc, FloodbenchError)
        rec.status = "failed"
        rec.reason = ("internal: %s: %s" % (type(exc).__name__, exc)
                      if internal else str(exc))
        log.info("stage=pipeline config=%s status=failed reason=%s",
                 cfg.config_id, rec.reason, exc_info=internal)
    rec.wall_ms = (time.perf_counter() - t0) * 1000.0
    if out_dir and mask is not None:
        cfg_dir = os.path.join(out_dir, cfg.config_id)
        try:
            write_mask(mask, os.path.join(cfg_dir, "mask.fbr"))
            if dfield is not None:
                write_raster(dfield.depth, os.path.join(cfg_dir, "depth.fbr"))
                write_raster(dfield.wse, os.path.join(cfg_dir, "wse.fbr"))
        except Exception as exc:
            # a record that failed already keeps its first reason
            reason = "output: %s: %s" % (type(exc).__name__, exc)
            log.warning("stage=output config=%s status=failed reason=%s",
                        cfg.config_id, reason,
                        exc_info=not isinstance(exc, FloodbenchError))
            if rec.status == "ok":
                rec.status, rec.reason = "failed", reason
    return PipelineResult(mask, dfield, rec)


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepPlan:
    inputs: PipelineInputs
    configs: list
    out_dir: str
    jobs: int = 1
    cache_dir: str | None = None
    write_outputs: bool = True


def sweep(plan: SweepPlan) -> str:
    """Run every configuration of a plan; returns the manifest CSV path.

    Configs are grouped by filter, as no output below a filter depends on
    another, and the groups run on min(jobs, groups) threads, each in plan
    order over its own StageCache (an equal share of MEMORY_TIER_BYTES) on
    the shared cache directory. An exception that escapes a config or
    reaches the caller stops every group before its next config. The rows
    then go in plan order to ``manifest.csv`` through ``atomic_file``, so
    an interrupted sweep leaves the previous manifest as it was, and a
    resumed one recomputes only missing stages.
    """
    plan.inputs.validate()
    os.makedirs(plan.out_dir, exist_ok=True)
    cache_dir = plan.cache_dir or os.environ.get(CACHE_ENV) \
        or os.path.join(plan.out_dir, "cache")
    out_dir = plan.out_dir if plan.write_outputs else None
    groups: dict = {}
    for i, cfg in enumerate(plan.configs):
        groups.setdefault(cfg.filter, []).append(i)
    workers = max(1, min(plan.jobs, len(groups)))
    records: list = [None] * len(plan.configs)
    stop = threading.Event()

    def run_group(indices: list) -> tuple[int, int]:
        cache = StageCache(cache_dir, MEMORY_TIER_BYTES // workers)
        for i in indices:
            if stop.is_set():
                break
            records[i] = run_pipeline(plan.inputs, plan.configs[i], cache,
                                      out_dir).record
        return cache.hits, cache.misses

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_group, g) for g in groups.values()]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            stop.set()
        counts = [f.result() for f in futures]
    manifest = os.path.join(plan.out_dir, "manifest.csv")
    with atomic_file(manifest, "w", newline="") as fh:
        metrics.write_manifest_header(fh)
        for rec in records:
            metrics.append_manifest_row(fh, rec)
            log.info("stage=record config=%s status=%s", rec.config_id,
                     rec.status)
    log.info("stage=sweep status=done records=%d cache_hits=%d "
             "cache_misses=%d", len(records), sum(h for h, _ in counts),
             sum(m for _, m in counts))
    return manifest


def select_representative_maps(records, per_method: int = 10) -> dict:
    """Per mapper method, pick records at uniform F1 quantiles.

    Sorting is by (F1, config_id); the first and last picks are the
    method's minimum and maximum F1, so ``per_method`` must be at least 2.
    Methods with at most ``per_method`` scored records return all of them.
    """
    if per_method < 2:
        raise InputError("per_method must be at least 2 to include both "
                         "F1 endpoints")
    by_method: dict[str, list] = {}
    for rec in records:
        row = rec if isinstance(rec, dict) else vars(rec)
        if row.get("status") == "failed" or row.get("f1") in (None, ""):
            continue
        by_method.setdefault(row.get("mapper_method"), []).append(
            (float(row["f1"]), row.get("config_id"), rec))
    out = {}
    for method, scored in by_method.items():
        scored.sort(key=lambda s: s[:2])
        recs = [s[2] for s in scored]
        n = len(recs)
        if n <= per_method:
            out[method] = recs
            continue
        idx = sorted({int(round(i * (n - 1) / (per_method - 1)))
                      for i in range(per_method)})
        out[method] = [recs[i] for i in idx]
    return out


# ---------------------------------------------------------------------------
# sweep plan files


def _plan_path(base: str, value: str) -> str:
    return value if os.path.isabs(value) else \
        os.path.normpath(os.path.join(base, value))


def read_sweep_plan(path: str, out_dir: str | None = None,
                    jobs: int | None = None) -> SweepPlan:
    """Load a sweep plan from a sectioned plain-text file.

    Sections: [inputs] (file paths), [filters], [mappers], [morphology],
    [depth], [run]. Relative paths resolve against the plan file location.
    """
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise InputError("cannot read plan %s: %s" % (path, exc)) from exc
    except configparser.Error as exc:
        raise InputError("bad plan file %s: %s" % (path, exc)) from exc
    base = os.path.dirname(os.path.abspath(path))
    if not parser.has_section("inputs") or not parser.has_option("inputs",
                                                                 "flood"):
        raise InputError("plan needs an [inputs] section with a flood image")
    sec = parser["inputs"]

    def opt(key: str, reader=None):
        value = _plan_path(base, sec.get(key)) if sec.get(key) else None
        return reader(value) if reader and value else value

    inputs = PipelineInputs(
        flood=read_raster(opt("flood")),
        reference=opt("reference", read_raster),
        dem=opt("dem", read_raster),
        reference_mask=opt("truth_mask", read_mask),
        permanent_water=opt("permanent_water", read_mask),
        exclusion=opt("exclusion", read_mask),
        reference_depth=opt("reference_depth", read_raster),
        watermarks=opt("watermarks", read_watermarks),
        sections=tuple(opt("sections", read_cross_sections) or ()),
        external_reference_path=opt("external_despeckled_reference"))

    def methods(section: str, known) -> list[str] | None:
        raw = parser.get(section, "methods", fallback="")
        names = [m.strip() for m in raw.split(",") if m.strip()]
        for name in names:
            if name not in known:
                raise InputError("plan [%s] names unknown method %r "
                                 "(known: %s)"
                                 % (section, name, ", ".join(known)))
        return names if raw else None

    inputs.looks = parser.getfloat("filters", "looks", fallback=1.0)
    external_despeckled = opt("external_despeckled")
    filters = enumerate_filters(
        external_path=external_despeckled,
        include_external=external_despeckled is not None)
    if external_despeckled is None:
        log.info("stage=plan status=no_external_despeckle "
                 "detail=filter space shrinks by 1")
    keep = methods("filters", FILTER_METHODS)
    if keep is not None:
        filters = [f for f in filters if f.method in keep]
    if not filters:
        raise InputError("plan [filters] leaves no filter configuration")

    masks = {label: opt("external_mask_" + label) for label in ("cnn", "rf")}
    mapper_morphs = [
        (m, mo) for m, mo in enumerate_mappers(
            with_morphology=parser.getboolean("morphology", "enabled",
                                              fallback=False),
            cnn_path=masks["cnn"], rf_path=masks["rf"])
        if m.method != "external_mask" or masks[m.external_label]]
    for label, path in masks.items():
        if path is None:
            log.info("stage=plan status=no_external_mask label=%s "
                     "detail=mapper space shrinks by 1", label)
    keep = methods("mappers", MAPPER_METHODS)
    if keep is not None:
        mapper_morphs = [(m, mo) for m, mo in mapper_morphs
                         if m.method in keep]
    if not mapper_morphs:
        raise InputError("plan [mappers] leaves no mapper configuration "
                         "(external_mask needs external_mask_cnn or "
                         "external_mask_rf)")

    depth_configs = None
    if parser.getboolean("depth", "enabled", fallback=False):
        keep = methods("depth", DEPTH_METHODS)
        depth_configs = [d for d in enumerate_depth()
                         if (keep is None or d.method in keep)
                         and (inputs.sections or d.method != "cross_section")]
        if not depth_configs:
            raise InputError("plan enables [depth] but no depth method "
                             "applies (cross_section needs sections)")

    run_out = out_dir
    if run_out is None and parser.get("run", "out_dir", fallback=""):
        run_out = _plan_path(base, parser.get("run", "out_dir"))
    if run_out is None:
        raise InputError("plan has no output directory (use [run] out_dir "
                         "or --out-dir)")
    if jobs is None:
        jobs = parser.getint("run", "jobs", fallback=1)
    cache_dir = parser.get("run", "cache_dir", fallback="")
    configs = build_config_specs(filters, mapper_morphs, depth_configs)
    return SweepPlan(inputs, configs, run_out, jobs or 1,
                     _plan_path(base, cache_dir) if cache_dir else None,
                     parser.getboolean("run", "write_outputs", fallback=True))
