"""The recorded output digests, with every output decoded from disk.

``test_output_digests.py`` runs its plan through a memory-only cache, so no
output there is rebuilt from a stored array. Here the same plan runs through
a directory-backed cache, then again through a fresh StageCache on that
directory, where every lookup is a hit decoded from its ``.npy`` entry. The
filtered rasters are fetched through the cache too. Both passes must match
``data/output_digests.json``.
"""
import json

from floodbench import ensemble
from floodbench.ensemble import PipelineInputs, StageCache, run_pipeline
from floodbench.synth import generate_scene

from test_output_digests import DIGESTS_PATH, SCENE, _sha, plan


def digests_through(cache: StageCache) -> dict:
    """The digests of test_output_digests.compute_digests, every output
    taken from ``cache``."""
    scene = generate_scene(SCENE)
    inputs = PipelineInputs(
        flood=scene.speckled_intensity, reference=scene.reference_intensity,
        dem=scene.dem, reference_mask=scene.truth_mask,
        permanent_water=scene.permanent_water, exclusion=scene.exclusion,
        looks=SCENE.looks)
    out = {}
    for flt in ensemble.enumerate_filters(include_external=False):
        out["filter:" + flt.describe()] = _sha(
            ensemble._filtered(inputs, flt, cache))
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


def test_outputs_decoded_from_disk_match_recorded_digests(tmp_path):
    with open(DIGESTS_PATH) as fh:
        recorded = json.load(fh)
    cache_dir = str(tmp_path / "cache")
    for cache in (StageCache(cache_dir), StageCache(cache_dir)):
        found = digests_through(cache)
        assert found.keys() == recorded.keys()
        changed = sorted(k for k in recorded if found[k] != recorded[k])
        assert not changed, "%d outputs changed, first: %s = %r" % (
            len(changed), changed[0], found[changed[0]])
    # the second pass computed nothing: every output came from disk
    assert cache.misses == 0 and cache.hits > 0
