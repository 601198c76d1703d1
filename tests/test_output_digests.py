"""Recorded sha256 digests of every stage output of a fixed small plan.

The acceptance criteria compare manifests, whose floats are printed with
``%.10g``, so a last-bit change in a mask, depth or WSE raster would pass
them. This test hashes the rasters themselves: every filtered raster
(``apply_filter_config``) and every mask, depth and WSE raster that
``run_pipeline`` returns for the plan below, on a 48 x 48 scene with an
exclusion strip. The digests are recorded in ``data/output_digests.json``
by ``data/record_output_digests.py``; a change that alters an output on
purpose re-records them and says why.
"""
import hashlib
import json
import os

from floodbench.ensemble import (ConfigSpec, PipelineInputs, StageCache,
                                 build_config_specs, enumerate_depth,
                                 enumerate_filters, enumerate_mappers,
                                 morphology_grid, run_pipeline)
from floodbench.mapping import ChanVeseParams, MapperConfig, MorphologyConfig
from floodbench.speckle import FilterConfig, SpeckleModel, apply_filter_config
from floodbench.synth import SceneSpec, generate_scene

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "data", "output_digests.json")

SCENE = SceneSpec(width=48, height=48, looks=8.0, seed=37,
                  channel_half_width=150.0, permanent_half_width=30.0,
                  shore_ramp_cells=4.0, texture_db=1.2,
                  exclusion_strip=(150.0, 250.0))

OFF = MorphologyConfig(False)
OTSU = MapperConfig("global_threshold", selector="otsu")
KI = MapperConfig("global_threshold", selector="ki")
LOCAL = MapperConfig("local_threshold", min_tile_side=100, ad_min=1.9,
                     bc_min=0.98, sr_min=0.05)
CHAN_VESE = MapperConfig("active_contour", chan_vese=ChanVeseParams(0.1))
CHANGE = MapperConfig("change_detection", selector="ki")


def plan() -> list[ConfigSpec]:
    """25 filters x 46 mappers, a 9-morphology sample, and the 18
    fwdet/flexth configs on 10 masks."""
    grid = build_config_specs(enumerate_filters(include_external=False),
                              enumerate_mappers(include_external=False))
    morph = build_config_specs(
        [FilterConfig("none"), FilterConfig("lee", k=1)],
        [(m, mo) for m in (OTSU, LOCAL, CHAN_VESE, CHANGE)
         for mo in morphology_grid()])
    depth_masks = [
        (FilterConfig("none"), OTSU, OFF),
        (FilterConfig("none"), KI, MorphologyConfig(True, 50, 10)),
        (FilterConfig("median", k=1), OTSU, OFF),
        (FilterConfig("lee", k=2), KI, OFF),
        (FilterConfig("frost", k=1, alpha=2.0), LOCAL, OFF),
        (FilterConfig("frost", k=1, alpha=1.0), CHAN_VESE, OFF),
        (FilterConfig("frost", k=2, alpha=2.0), CHAN_VESE,
         MorphologyConfig(True, 100, 50)),
        (FilterConfig("none"), CHANGE, OFF),
        (FilterConfig("median", k=2), CHANGE, MorphologyConfig(True, 10, 10)),
        (FilterConfig("lee", k=1), LOCAL, MorphologyConfig(True, 50, 50)),
    ]
    depths = [d for d in enumerate_depth() if d.method != "cross_section"]
    deep = [ConfigSpec(f, m, mo, d) for f, m, mo in depth_masks
            for d in depths]
    return grid + morph + deep


def _sha(obj) -> str:
    h = hashlib.sha256(json.dumps(
        [list(obj.geometry), getattr(obj, "nodata", None),
         str(obj.values.dtype)]).encode())
    h.update(obj.values.tobytes())
    return h.hexdigest()


def compute_digests() -> dict:
    """``filter:<describe>`` and ``config_id`` -> output digests."""
    scene = generate_scene(SCENE)
    inputs = PipelineInputs(
        flood=scene.speckled_intensity, reference=scene.reference_intensity,
        dem=scene.dem, reference_mask=scene.truth_mask,
        permanent_water=scene.permanent_water, exclusion=scene.exclusion,
        looks=SCENE.looks)
    out = {}
    model = SpeckleModel(SCENE.looks)
    for flt in enumerate_filters(include_external=False):
        out["filter:" + flt.describe()] = _sha(
            apply_filter_config(inputs.flood, flt, model))
    cache = StageCache()
    for cfg in plan():
        result = run_pipeline(inputs, cfg, cache)
        if result.mask is None:
            out[cfg.config_id] = {"failed": result.record.reason}
            continue
        entry = {"mask": _sha(result.mask)}
        if result.depth is not None:
            entry["depth"] = _sha(result.depth.depth)
            entry["wse"] = _sha(result.depth.wse)
        elif cfg.depth is not None:
            entry["failed"] = result.record.reason
        out[cfg.config_id] = entry
    return out


def test_outputs_match_recorded_digests():
    with open(DIGESTS_PATH) as fh:
        recorded = json.load(fh)
    found = compute_digests()
    assert found.keys() == recorded.keys()
    changed = sorted(k for k in recorded if found[k] != recorded[k])
    assert not changed, "%d outputs changed, first: %s = %r, recorded %r" % (
        len(changed), changed[0], found[changed[0]], recorded[changed[0]])
