"""Seeded scenes and sweep plans for the benchmark workloads.

Every workload sweeps the 128 x 128 README scene: its terrain, flood and
backscatter texture are fixed, and the speckle of the flood and reference
images comes in ``DRAWS`` seeded draws, the way two acquisitions of one
valley differ. Every run sweeps all the draws, the benchmark's ``--seed``
picking which comes first, because the work of a sweep depends on the
draw (depth128 does half its depth work on a draw where Otsu and KI give
one mask); draw 0 is the README scene byte for byte. digests.json holds
each workload's manifest digest for every draw, so every run checks its
outputs against recorded values. The program only ever sees the files
written here.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from floodbench.raster import write_raster
from floodbench.synth import (SceneSpec, apply_speckle, generate_scene,
                              render_backscatter, write_scene)

# the README quick-start scene seed; draw v takes its speckle from
# README_SEED + 2 * v + 1 (flood) and + 2 (reference)
README_SEED = 37
DRAWS = 2

INPUTS = """[inputs]
flood = scene/speckled_intensity.fbr
reference = scene/reference_intensity.fbr
dem = scene/dem.fbr
truth_mask = scene/truth_mask.fbr
permanent_water = scene/permanent_water.fbr
external_despeckled = scene/clean_backscatter.fbr
external_despeckled_reference = scene/reference_intensity.fbr
external_mask_cnn = scene/truth_mask.fbr
external_mask_rf = scene/truth_mask.fbr
"""


@dataclass(frozen=True)
class Workload:
    name: str
    configs: int              # manifest rows one pass must write
    jobs: int
    sections: str             # plan text after the [inputs] section
    extra_inputs: str = ""    # [inputs] lines beyond INPUTS
    exclusion_strip: tuple | None = None
    nodata_border: int = 0    # cells of nodata around the SAR rasters
    warm_passes: int = 1      # per sample


# Why these three: grid128 is the README plan cut to the cheap filters,
# where mapping, cache I/O, hashing and output writes dominate and depth
# does no work. depth128 is dominated by FwDET/FLEXTH (with exclusion
# growth) and writes no outputs. nodata128 is the only workload that
# reaches the nodata paths of the window filters; its warm pass takes a
# fifth of a second, so a sample makes five. The plans are cut so that
# a 40 s run holds several samples of each draw. All run one worker
# (jobs = 1): on two shared cores a second worker measured the host's
# scheduler (grid128 was no faster with two, and its warm times spread
# twice as wide).
WORKLOADS = {w.name: w for w in (
    Workload(
        "grid128", configs=5 * 48, jobs=1,
        sections="""
[filters]
looks = 8
methods = none,lee,external

[morphology]
enabled = false

[run]
jobs = 1
"""),
    Workload(
        "depth128", configs=18 * 18, jobs=1,
        sections="""
[filters]
looks = 8
methods = none

[mappers]
methods = global_threshold

[morphology]
enabled = true

[depth]
enabled = true
methods = fwdet,flexth

[run]
jobs = 1
write_outputs = false
""",
        extra_inputs="exclusion = scene/exclusion.fbr\n"
                     "reference_depth = scene/truth_depth.fbr\n",
        exclusion_strip=(400.0, 600.0),),
    Workload(
        "nodata128", configs=26 * 2, jobs=1,
        sections="""
[filters]
looks = 8

[mappers]
methods = global_threshold

[morphology]
enabled = false

[run]
jobs = 1
""",
        nodata_border=4, warm_passes=5),
)}


def recorded_digests() -> dict:
    """Workload name -> the manifest digest of each draw (digests.json,
    written by record_digests.py)."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "digests.json")) as fh:
        return json.load(fh)


def seeded_scene(workload: Workload, draw: int):
    """The README scene with speckle draw ``draw``."""
    seed = README_SEED + 2 * draw
    spec = SceneSpec(width=128, height=128, looks=8, seed=README_SEED,
                     permanent_half_width=60, shore_ramp_cells=8,
                     texture_db=1.2, exclusion_strip=workload.exclusion_strip)
    base = generate_scene(spec)
    # the same draws generate_scene makes from spec.seed + 1 and + 2
    reference = render_backscatter(base.permanent_water, spec)
    return replace(
        base,
        speckled_intensity=apply_speckle(base.clean_backscatter, spec.looks,
                                         seed + 1),
        reference_intensity=apply_speckle(reference, spec.looks, seed + 2))


def _with_border(raster, cells: int):
    values = np.array(raster.values)
    values[:cells] = raster.nodata
    values[-cells:] = raster.nodata
    values[:, :cells] = raster.nodata
    values[:, -cells:] = raster.nodata
    return raster.like(values)


def build(workload: Workload, draw: int, directory: str) -> str:
    """Write the workload's scene of speckle draw ``draw`` and its plan
    under ``directory``; return the plan path."""
    scene = seeded_scene(workload, draw)
    scene_dir = os.path.join(directory, "scene")
    write_scene(scene, scene_dir, ext="fbr")
    if workload.nodata_border:
        # SceneSpec has no nodata option, so the border is cut in here.
        # The DEM stays finite: dem_slope rejects nodata.
        for name in ("speckled_intensity", "reference_intensity",
                     "clean_backscatter"):
            write_raster(_with_border(getattr(scene, name),
                                      workload.nodata_border),
                         os.path.join(scene_dir, name + ".fbr"))
    plan = os.path.join(directory, "plan.cfg")
    with open(plan, "w") as fh:
        fh.write(INPUTS + workload.extra_inputs + workload.sections)
    return plan
