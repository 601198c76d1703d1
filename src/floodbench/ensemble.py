"""Configuration-space enumeration and orchestrated pipeline sweeps.

The hyperparameter grid enumerates to exactly 26 filter configurations,
48 mapper configurations (432 with the 9-point morphology grid), and 19
depth configurations. Sweeps run the filter -> map -> morphology ->
optional depth -> metrics pipeline for every configuration under a
bounded thread pool, with stage outputs cached by content hash so shared
prefixes compute once. Failed configurations become failed records and
never abort a sweep.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import logging
import os
import tempfile
import threading
import time
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import metrics
from .depth import (DepthAux, DepthConfig, DepthField, TABLE_NEIGHBORS,
                    TABLE_SLOPE, TABLE_SMOOTHING, apply_depth_config,
                    read_cross_sections)
from .errors import FloodbenchError, InputError
from .mapping import (ChanVeseParams, MapperAux, MapperConfig,
                      MorphologyConfig, TABLE_AD, TABLE_BC, TABLE_CV_ALPHA,
                      TABLE_MIN_TILE, TABLE_MORPH, TABLE_SR,
                      apply_mapper_config)
from .metrics import (MetricsRecord, accuracy, confusion, depth_rmse, f1,
                      flooded_area_km2, read_watermarks, rmse_at_points)
from .raster import (BinaryMask, Raster, read_mask, read_raster,
                     require_same_grid, write_mask, write_raster)
from .speckle import (FilterConfig, SpeckleModel, TABLE_ALPHA,
                      TABLE_WINDOW_SIDES, TABLE_XI, apply_filter_config)

log = logging.getLogger("floodbench")

CACHE_ENV = "FLOODBENCH_CACHE_DIR"
EXTERNAL_FILTER_PLACEHOLDER = "external://sar2sar"
EXTERNAL_MASK_PLACEHOLDER = "external://%s"


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest_bytes(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def digest_raster(raster: Raster) -> str:
    geo = canonical_json([raster.width, raster.height, raster.cell_size,
                          raster.origin_x, raster.origin_y, raster.nodata])
    return digest_bytes(geo.encode(), raster.values.tobytes())


def digest_mask(mask: BinaryMask) -> str:
    geo = canonical_json(list(mask.geometry))
    return digest_bytes(geo.encode(), mask.values.tobytes())


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

    @property
    def config_id(self) -> str:
        payload = {"filter": asdict(self.filter),
                   "mapper": asdict(self.mapper),
                   "morphology": asdict(self.morphology),
                   "depth": asdict(self.depth) if self.depth else None}
        return digest_bytes(canonical_json(payload).encode())[:16]


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
        mappers.append(MapperConfig(
            "external_mask", external_label="cnn",
            external_path=cnn_path or EXTERNAL_MASK_PLACEHOLDER % "cnn"))
        mappers.append(MapperConfig(
            "external_mask", external_label="rf",
            external_path=rf_path or EXTERNAL_MASK_PLACEHOLDER % "rf"))
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
    specs = []
    for flt in filters:
        for mapper, morph in mapper_morphs:
            if depth_configs:
                for dep in depth_configs:
                    specs.append(ConfigSpec(flt, mapper, morph, dep))
            else:
                specs.append(ConfigSpec(flt, mapper, morph))
    return specs


# ---------------------------------------------------------------------------
# stage cache


class StageCache:
    """Content-addressed store of intermediate stage outputs.

    Backed by .npz files under a directory (atomic write-temp-then-rename)
    or by process memory when no directory is given. Keys are content
    hashes of the stage configuration plus all input digests, so equal
    keys imply byte-identical outputs.
    """

    def __init__(self, directory: str | None = None):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._mem: dict = {}
        self._locks: dict = {}
        self._guard = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _lock_for(self, key: str) -> threading.Lock:
        with self._guard:
            return self._locks.setdefault(key, threading.Lock())

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".npz")

    def get_or_compute(self, key: str, kind: str, compute):
        """Return (object, cache_hit) for the keyed stage output."""
        with self._lock_for(key):
            obj = self._load(key, kind)
            if obj is not None:
                with self._guard:
                    self.hits += 1
                return obj, True
            obj = compute()
            self._store(key, kind, obj)
            with self._guard:
                self.misses += 1
            return obj, False

    def _load(self, key: str, kind: str):
        if not self.directory:
            return self._mem.get(key)
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            # np.load leaves its own handle open on a truncated zip
            with open(path, "rb") as fh, np.load(fh) as data:
                if str(data["kind"]) != kind:
                    return None
                return _unpack(kind, data)
        except (OSError, ValueError, KeyError, EOFError,
                zipfile.BadZipFile):
            # unreadable entry: a miss, which the atomic store replaces
            log.warning("stage=cache status=corrupt key=%s", key[:12])
            return None

    def _store(self, key: str, kind: str, obj) -> None:
        if not self.directory:
            self._mem[key] = obj
            return
        payload = _pack(kind, obj)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".npz")
        os.close(fd)
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, kind=kind, **payload)
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _geo_array(obj) -> np.ndarray:
    return np.array([obj.width, obj.height, obj.cell_size,
                     obj.origin_x, obj.origin_y], dtype=np.float64)


def _pack(kind: str, obj) -> dict:
    if kind == "raster":
        return {"geo": _geo_array(obj), "nodata": np.float64(obj.nodata),
                "values": obj.values}
    if kind == "mask":
        return {"geo": _geo_array(obj), "values": obj.values}
    if kind == "depth":
        return {"geo": _geo_array(obj.depth), "nodata": np.float64(obj.depth.nodata),
                "depth": obj.depth.values, "wse": obj.wse.values}
    raise InputError("unknown cache kind %r" % kind)


def _unpack(kind: str, data):
    geo = data["geo"]
    w, h = int(geo[0]), int(geo[1])
    cell, ox, oy = float(geo[2]), float(geo[3]), float(geo[4])
    if kind == "raster":
        return Raster(w, h, cell, ox, oy, float(data["nodata"]),
                      np.array(data["values"]))
    if kind == "mask":
        return BinaryMask(w, h, cell, ox, oy, np.array(data["values"]))
    if kind == "depth":
        nodata = float(data["nodata"])
        return DepthField(Raster(w, h, cell, ox, oy, nodata,
                                 np.array(data["depth"])),
                          Raster(w, h, cell, ox, oy, nodata,
                                 np.array(data["wse"])))
    raise InputError("unknown cache kind %r" % kind)


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
    _digests: dict = field(default_factory=dict, repr=False)

    def validate(self) -> None:
        for name in ("reference", "dem", "reference_mask", "permanent_water",
                     "exclusion", "reference_depth"):
            other = getattr(self, name)
            if other is not None:
                require_same_grid(self.flood, other,
                                  "flood image and %s" % name)

    def digest(self, name: str) -> str:
        if name not in self._digests:
            obj = getattr(self, name)
            if isinstance(obj, Raster):
                self._digests[name] = digest_raster(obj)
            elif isinstance(obj, BinaryMask):
                self._digests[name] = digest_mask(obj)
            elif obj is None:
                self._digests[name] = "absent"
            else:
                raise InputError("cannot digest input %r" % name)
        return self._digests[name]


class PipelineResult:
    def __init__(self, mask, depth, record):
        self.mask = mask
        self.depth = depth
        self.record = record


def _stage_key(stage: str, cfg_payload, *digests: str) -> str:
    return digest_bytes(canonical_json([stage, cfg_payload,
                                        list(digests)]).encode())


def _filtered_flood(inputs: PipelineInputs, cfg: ConfigSpec,
                    cache: StageCache) -> Raster:
    model = SpeckleModel(inputs.looks)
    if cfg.filter.method == "external":
        in_digest = digest_file(cfg.filter.path)
    else:
        in_digest = inputs.digest("flood")
    key = _stage_key("filter", asdict(cfg.filter), in_digest,
                     canonical_json(inputs.looks))
    out, hit = cache.get_or_compute(
        key, "raster",
        lambda: apply_filter_config(inputs.flood, cfg.filter, model))
    log.info("stage=filter config=%s status=%s",
             cfg.filter.describe(), "cached" if hit else "computed")
    return out


def _filtered_reference(inputs: PipelineInputs, cfg: ConfigSpec,
                        cache: StageCache) -> Raster:
    if inputs.reference is None:
        raise InputError("change detection requires a reference image")
    model = SpeckleModel(inputs.looks)
    fcfg = cfg.filter
    if fcfg.method == "external":
        if inputs.external_reference_path:
            fcfg = FilterConfig("external",
                                path=inputs.external_reference_path)
            in_digest = digest_file(fcfg.path)
        else:
            # no externally despeckled reference supplied: fall back to the
            # raw reference image for the log-ratio
            log.info("stage=filter_ref config=%s status=fallback_unfiltered",
                     cfg.filter.describe())
            fcfg = FilterConfig("none")
            in_digest = inputs.digest("reference")
    else:
        in_digest = inputs.digest("reference")
    key = _stage_key("filter_ref", asdict(fcfg), in_digest,
                     canonical_json(inputs.looks))
    out, hit = cache.get_or_compute(
        key, "raster",
        lambda: apply_filter_config(inputs.reference, fcfg, model))
    log.info("stage=filter_ref config=%s status=%s",
             fcfg.describe(), "cached" if hit else "computed")
    return out


def run_pipeline(inputs: PipelineInputs, cfg: ConfigSpec,
                 cache: StageCache | None = None,
                 out_dir: str | None = None) -> PipelineResult:
    """Execute filter -> map -> morphology -> optional depth -> metrics.

    Failures inside any stage produce a failed MetricsRecord instead of an
    exception, so sweeps always run to completion. When ``out_dir`` is set
    the produced rasters land under out_dir/<config_id>/.
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
        filtered = _filtered_flood(inputs, cfg, cache)
        aux = MapperAux(
            reference=(_filtered_reference(inputs, cfg, cache)
                       if cfg.mapper.method == "change_detection" else None),
            permanent_water=inputs.permanent_water)
        map_digests = [digest_raster(filtered)]
        if aux.reference is not None:
            map_digests.append(digest_raster(aux.reference))
        if cfg.mapper.method == "active_contour":
            map_digests.append(inputs.digest("permanent_water"))
        if cfg.mapper.method == "external_mask":
            map_digests.append(digest_file(cfg.mapper.external_path))
        key = _stage_key("map", [asdict(cfg.mapper), asdict(cfg.morphology)],
                         *map_digests)
        mask, hit = cache.get_or_compute(
            key, "mask",
            lambda: apply_mapper_config(filtered, cfg.mapper, cfg.morphology,
                                        aux))
        log.info("stage=map config=%s status=%s",
                 cfg.mapper.describe(), "cached" if hit else "computed")
        rec.area_km2 = flooded_area_km2(mask)
        if inputs.reference_mask is not None:
            counts = confusion(mask, inputs.reference_mask,
                               inputs.exclusion if inputs.exclusion is not None
                               else inputs.permanent_water)
            rec.counts = counts
            rec.acc = accuracy(counts)
            rec.f1 = f1(counts)
        if cfg.depth is not None:
            if inputs.dem is None:
                raise InputError("depth estimation requires a DEM")
            dkey = _stage_key("depth", asdict(cfg.depth), digest_mask(mask),
                              inputs.digest("dem"),
                              inputs.digest("exclusion"),
                              canonical_json([list(s.vertices)
                                              for s in inputs.sections]))
            dfield, dhit = cache.get_or_compute(
                dkey, "depth",
                lambda: apply_depth_config(
                    mask, inputs.dem, cfg.depth,
                    DepthAux(inputs.exclusion, tuple(inputs.sections))).field)
            log.info("stage=depth config=%s status=%s",
                     cfg.depth.describe(), "cached" if dhit else "computed")
            if inputs.reference_depth is not None:
                rec.rmse_m = depth_rmse(dfield, inputs.reference_depth)
            elif inputs.watermarks is not None:
                pts = rmse_at_points(dfield, inputs.watermarks)
                rec.rmse_m = pts.rmse
                rec.skipped_points = pts.skipped
        rec.status = "ok"
    except FloodbenchError as exc:
        rec.status = "failed"
        rec.reason = str(exc)
        log.info("stage=pipeline config=%s status=failed reason=%s",
                 cfg.config_id, exc)
    rec.wall_ms = (time.perf_counter() - t0) * 1000.0
    if out_dir and mask is not None:
        cfg_dir = os.path.join(out_dir, cfg.config_id)
        write_mask(mask, os.path.join(cfg_dir, "mask.fbr"))
        if dfield is not None:
            write_raster(dfield.depth, os.path.join(cfg_dir, "depth.fbr"))
            write_raster(dfield.wse, os.path.join(cfg_dir, "wse.fbr"))
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

    Rows are appended in plan order through a single writer thread, and
    each result is released once its row is written.
    Reruns reuse the stage cache, so an interrupted sweep resumed with the
    same cache directory recomputes only missing stages.
    """
    plan.inputs.validate()
    os.makedirs(plan.out_dir, exist_ok=True)
    cache_dir = plan.cache_dir or os.environ.get(CACHE_ENV) \
        or os.path.join(plan.out_dir, "cache")
    cache = StageCache(cache_dir)
    manifest = os.path.join(plan.out_dir, "manifest.csv")
    out_dir = plan.out_dir if plan.write_outputs else None
    jobs = max(1, plan.jobs)
    with open(manifest, "w", newline="") as fh:
        fh.write(metrics.manifest_header_line() + "\n")
        if not plan.configs:
            return manifest
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = pool.map(
                lambda cfg: run_pipeline(plan.inputs, cfg, cache, out_dir),
                plan.configs)
            for result in results:
                metrics.append_manifest_row(fh, result.record)
                log.info("stage=record config=%s status=%s",
                         result.record.config_id, result.record.status)
    log.info("stage=sweep status=done records=%d cache_hits=%d "
             "cache_misses=%d", len(plan.configs), cache.hits, cache.misses)
    return manifest


def select_representative_maps(records, per_method: int = 10) -> dict:
    """Per mapper method, pick records at uniform F1 quantiles.

    Sorting is by (F1, config_id); the first and last picks are the
    method's minimum and maximum F1. Methods with at most ``per_method``
    scored records return all of them.
    """
    by_method: dict[str, list] = {}
    for rec in records:
        f1v = _rec_f1(rec)
        if f1v is None:
            continue
        by_method.setdefault(_rec_field(rec, "mapper_method"), []).append(rec)
    out = {}
    for method, recs in by_method.items():
        recs.sort(key=lambda r: (_rec_f1(r), _rec_field(r, "config_id")))
        n = len(recs)
        if n <= per_method:
            out[method] = list(recs)
            continue
        idx = sorted({int(round(i * (n - 1) / (per_method - 1)))
                      for i in range(per_method)})
        out[method] = [recs[i] for i in idx]
    return out


def _rec_field(rec, name: str):
    if isinstance(rec, dict):
        return rec.get(name)
    return getattr(rec, name)


def _rec_f1(rec):
    if isinstance(rec, dict):
        raw = rec.get("f1")
        if raw in (None, "") or rec.get("status") == "failed":
            return None
        return float(raw)
    if getattr(rec, "status", "ok") == "failed":
        return None
    return rec.f1


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

    def opt_path(key: str) -> str | None:
        return _plan_path(base, sec.get(key)) if sec.get(key) else None

    flood = read_raster(_plan_path(base, sec.get("flood")))
    inputs = PipelineInputs(
        flood=flood,
        reference=(read_raster(opt_path("reference"))
                   if sec.get("reference") else None),
        dem=read_raster(opt_path("dem")) if sec.get("dem") else None,
        reference_mask=(read_mask(opt_path("truth_mask"))
                        if sec.get("truth_mask") else None),
        permanent_water=(read_mask(opt_path("permanent_water"))
                         if sec.get("permanent_water") else None),
        exclusion=(read_mask(opt_path("exclusion"))
                   if sec.get("exclusion") else None),
        reference_depth=(read_raster(opt_path("reference_depth"))
                         if sec.get("reference_depth") else None),
        watermarks=(read_watermarks(opt_path("watermarks"))
                    if sec.get("watermarks") else None),
        sections=(tuple(read_cross_sections(opt_path("sections")))
                  if sec.get("sections") else ()),
        external_reference_path=opt_path("external_despeckled_reference"))

    looks = 1.0
    filter_methods = None
    if parser.has_section("filters"):
        fsec = parser["filters"]
        looks = fsec.getfloat("looks", fallback=1.0)
        if fsec.get("methods"):
            filter_methods = [m.strip() for m in
                              fsec.get("methods").split(",") if m.strip()]
    inputs.looks = looks

    external_despeckled = opt_path("external_despeckled")
    filters = enumerate_filters(
        external_path=external_despeckled,
        include_external=external_despeckled is not None)
    if external_despeckled is None:
        log.info("stage=plan status=no_external_despeckle "
                 "detail=filter space shrinks by 1")
    if filter_methods is not None:
        filters = [f for f in filters if f.method in filter_methods]

    mapper_methods = None
    if parser.has_section("mappers") and parser["mappers"].get("methods"):
        mapper_methods = [m.strip() for m in
                          parser["mappers"].get("methods").split(",")
                          if m.strip()]
    with_morph = parser.has_section("morphology") and \
        parser["morphology"].getboolean("enabled", fallback=False)
    cnn = opt_path("external_mask_cnn")
    rf = opt_path("external_mask_rf")
    mapper_morphs = enumerate_mappers(
        with_morphology=with_morph, cnn_path=cnn, rf_path=rf,
        include_external=cnn is not None or rf is not None)
    if cnn is None and rf is None:
        log.info("stage=plan status=no_external_masks "
                 "detail=mapper space shrinks by 2")
    if mapper_methods is not None:
        mapper_morphs = [(m, mo) for m, mo in mapper_morphs
                         if m.method in mapper_methods]

    depth_configs = None
    if parser.has_section("depth") and \
            parser["depth"].getboolean("enabled", fallback=False):
        depth_configs = enumerate_depth()
        dmeth = parser["depth"].get("methods")
        if dmeth:
            keep = [m.strip() for m in dmeth.split(",") if m.strip()]
            depth_configs = [d for d in depth_configs if d.method in keep]
        if not inputs.sections:
            depth_configs = [d for d in depth_configs
                             if d.method != "cross_section"]

    run_out = out_dir
    run_jobs = jobs
    cache_dir = None
    write_outputs = True
    if parser.has_section("run"):
        rsec = parser["run"]
        if run_out is None and rsec.get("out_dir"):
            run_out = _plan_path(base, rsec.get("out_dir"))
        if run_jobs is None:
            run_jobs = rsec.getint("jobs", fallback=1)
        if rsec.get("cache_dir"):
            cache_dir = _plan_path(base, rsec.get("cache_dir"))
        write_outputs = rsec.getboolean("write_outputs", fallback=True)
    if run_out is None:
        raise InputError("plan has no output directory (use [run] out_dir "
                         "or --out-dir)")
    configs = build_config_specs(filters, mapper_morphs, depth_configs)
    return SweepPlan(inputs, configs, run_out, run_jobs or 1, cache_dir,
                     write_outputs)
