"""Synthetic valley scenes with analytic ground truth.

A scene is a tilted valley DEM with a parabolic channel, a flat-water
flood truth derived by 4-connected fill below a prescribed water surface
elevation, a two-class backscatter render in linear units (water dark),
and Gamma-speckled intensity images for the flood and a non-flood
reference date. Everything is deterministic given the spec and its seed.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .depth import DepthField
from .errors import InputError
from .raster import (BinaryMask, DRY, FLOODED, Raster, mask_like,
                     write_mask, write_raster)

DEFAULT_NODATA = -9999.0


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of one synthetic valley scene.

    Elevations are in meters relative to the floodplain at x = 0; the
    channel runs along x (west to east) at mid-height. ``wse`` is the true
    flat water surface elevation of the flood. ``permanent_half_width``
    (meters, 0 disables) carves a channel that is wet in the reference
    image too; ``exclusion_strip`` is an optional (x0, x1) band in meters
    flagged as unreliable observation for expansion tests.
    """

    width: int = 128
    height: int = 128
    cell_size: float = 10.0
    longitudinal_slope: float = 0.001
    channel_depth: float = 6.0
    channel_half_width: float = 300.0
    noise_amplitude: float = 0.0
    wse: float = -1.0
    water_db: float = -18.0
    land_db: float = -8.0
    looks: float = 4.0
    seed: int = 0
    permanent_half_width: float = 0.0
    exclusion_strip: tuple | None = None
    shore_ramp_cells: float = 0.0
    texture_db: float = 0.0

    def __post_init__(self):
        if self.width < 4 or self.height < 4:
            raise InputError("scene must be at least 4x4")
        if not self.cell_size > 0:
            raise InputError("non-positive cell size")
        if not self.looks > 0:
            raise InputError("looks must be positive")
        if not self.water_db < self.land_db:
            raise InputError("water must be darker than land "
                             "(water_db < land_db)")
        if self.channel_half_width <= 0 or self.channel_depth < 0:
            raise InputError("channel profile must be positive")


@dataclass(frozen=True)
class SyntheticScene:
    """A generated scene bundle: truth plus observation-like rasters."""

    spec: SceneSpec
    dem: Raster
    truth_mask: BinaryMask
    truth_depth: DepthField
    clean_backscatter: Raster
    speckled_intensity: Raster
    reference_intensity: Raster
    permanent_water: BinaryMask | None = None
    exclusion: BinaryMask | None = None


def _cross_distance(spec: SceneSpec) -> np.ndarray:
    rows = np.arange(spec.height, dtype=np.float64)
    center = (spec.height - 1) / 2.0
    return np.abs(rows - center)[:, None] * spec.cell_size \
        * np.ones((1, spec.width))


def generate_dem(spec: SceneSpec) -> Raster:
    """Tilted plane plus a parabolic channel plus seeded smooth noise."""
    d = _cross_distance(spec)
    rel = np.minimum(d / spec.channel_half_width, 1.0)
    cross = spec.channel_depth * (rel * rel - 1.0)
    x = (np.arange(spec.width, dtype=np.float64) + 0.5) * spec.cell_size
    tilt = spec.longitudinal_slope * x[None, :]
    z = tilt + cross
    if spec.noise_amplitude > 0:
        rng = np.random.default_rng(spec.seed)
        raw = rng.standard_normal((spec.height, spec.width))
        smooth = ndimage.uniform_filter(raw, size=9, mode="reflect")
        sd = smooth.std()
        if sd > 0:
            z = z + spec.noise_amplitude * smooth / sd
    return Raster(spec.width, spec.height, spec.cell_size, 0.0, 0.0,
                  DEFAULT_NODATA, z)


def seed_cell(spec: SceneSpec) -> tuple[int, int]:
    """Channel-bottom cell at the upstream (x = 0) end."""
    return (spec.height - 1) // 2, 0


def flat_fill_truth(dem: Raster, wse: float,
                    seed: tuple[int, int]) -> tuple[BinaryMask, Raster]:
    """Truth mask and depth: 4-connected fill of {z < wse} from the seed."""
    below = dem.values < wse
    if not below[seed]:
        raise InputError("seed cell sits at or above the water surface")
    labels, _ = ndimage.label(below,
                              structure=ndimage.generate_binary_structure(2, 1))
    region = labels == labels[seed]
    mask = mask_like(dem, np.where(region, FLOODED, DRY))
    depth = np.where(region, wse - dem.values, dem.nodata)
    return mask, dem.like(depth)


def render_backscatter(water: BinaryMask, spec: SceneSpec) -> Raster:
    """Two-class linear backscatter; water cells are the dark class.

    ``shore_ramp_cells`` widens the wet/dry step into a linear transition
    of roughly that many cells, mimicking the gradual shorelines of real
    floodplains.
    """
    r_water = 10.0 ** (spec.water_db / 10.0)
    r_land = 10.0 ** (spec.land_db / 10.0)
    wet = water.values == FLOODED
    out = np.where(wet, r_water, r_land)
    if spec.shore_ramp_cells > 0 and wet.any() and not wet.all():
        dist_to_water = ndimage.distance_transform_edt(~wet)
        dist_to_land = ndimage.distance_transform_edt(wet)
        signed = dist_to_water - dist_to_land
        frac_land = np.clip(0.5 + signed / spec.shore_ramp_cells, 0.0, 1.0)
        out = r_water + frac_land * (r_land - r_water)
    if spec.texture_db > 0:
        # static terrain texture shared by every render of the same spec,
        # so it cancels in flood/reference log-ratios
        out = out * 10.0 ** (_texture_field(spec) / 10.0)
    return Raster(spec.width, spec.height, spec.cell_size, 0.0, 0.0,
                  DEFAULT_NODATA, out)


def _texture_field(spec: SceneSpec) -> np.ndarray:
    rng = np.random.default_rng(spec.seed + 7919)
    raw = rng.standard_normal((spec.height, spec.width))
    smooth = ndimage.uniform_filter(raw, size=7, mode="reflect")
    sd = smooth.std()
    if sd == 0:
        return np.zeros((spec.height, spec.width))
    return spec.texture_db * smooth / sd


def apply_speckle(backscatter: Raster, looks: float, seed: int) -> Raster:
    """Multiply by i.i.d. unit-mean Gamma noise with variance 1/looks."""
    if not looks > 0:
        raise InputError("looks must be positive")
    rng = np.random.default_rng(seed)
    s = rng.gamma(shape=looks, scale=1.0 / looks,
                  size=backscatter.values.shape)
    fin = backscatter.finite
    out = np.where(fin, backscatter.values * s, backscatter.nodata)
    return backscatter.like(out)


def generate_scene(spec: SceneSpec) -> SyntheticScene:
    dem = generate_dem(spec)
    truth_mask, truth_depth = flat_fill_truth(dem, spec.wse, seed_cell(spec))

    permanent = None
    if spec.permanent_half_width > 0:
        d = _cross_distance(spec)
        perm = d < spec.permanent_half_width
        permanent = mask_like(dem, np.where(perm, FLOODED, DRY))

    wet_flood = truth_mask.values == FLOODED
    if permanent is not None:
        wet_flood = wet_flood | (permanent.values == FLOODED)
    flood_water = mask_like(dem, np.where(wet_flood, FLOODED, DRY))
    clean = render_backscatter(flood_water, spec)
    speckled = apply_speckle(clean, spec.looks, spec.seed + 1)

    ref_water = permanent if permanent is not None else \
        mask_like(dem, np.zeros(dem.values.shape, dtype=np.uint8))
    ref_clean = render_backscatter(ref_water, spec)
    reference = apply_speckle(ref_clean, spec.looks, spec.seed + 2)

    exclusion = None
    if spec.exclusion_strip is not None:
        x0, x1 = spec.exclusion_strip
        x = (np.arange(spec.width, dtype=np.float64) + 0.5) * spec.cell_size
        band = (x >= x0) & (x <= x1)
        excl = np.zeros(dem.values.shape, dtype=bool) | band[None, :]
        exclusion = mask_like(dem, np.where(excl, FLOODED, DRY))

    wse_vals = np.where(truth_mask.values == FLOODED, spec.wse, dem.nodata)
    field = DepthField(truth_depth, dem.like(wse_vals))
    return SyntheticScene(spec, dem, truth_mask, field, clean, speckled,
                          reference, permanent, exclusion)


SCENE_FILES = ("dem", "truth_mask", "truth_depth", "clean_backscatter",
               "speckled_intensity", "reference_intensity")


def write_scene(scene: SyntheticScene, out_dir: str, ext: str = "asc") -> list[str]:
    """Write the six core scene rasters (plus optional masks) to a directory."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    def emit(name, writer, obj):
        path = os.path.join(out_dir, "%s.%s" % (name, ext))
        writer(obj, path)
        paths.append(path)

    emit("dem", write_raster, scene.dem)
    emit("truth_mask", write_mask, scene.truth_mask)
    emit("truth_depth", write_raster, scene.truth_depth.depth)
    emit("clean_backscatter", write_raster, scene.clean_backscatter)
    emit("speckled_intensity", write_raster, scene.speckled_intensity)
    emit("reference_intensity", write_raster, scene.reference_intensity)
    if scene.permanent_water is not None:
        emit("permanent_water", write_mask, scene.permanent_water)
    if scene.exclusion is not None:
        emit("exclusion", write_mask, scene.exclusion)
    return paths


def read_scene_spec(path: str) -> SceneSpec:
    """Load a SceneSpec from a sectioned plain-text file ([scene] section)."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except configparser.Error as exc:
        raise InputError("bad scene spec %s: %s" % (path, exc)) from exc
    if not parser.has_section("scene"):
        raise InputError("scene spec %s has no [scene] section" % path)
    sec = parser["scene"]
    kwargs = {}
    ints = {"width", "height", "seed"}
    floats = {"cell_size", "longitudinal_slope", "channel_depth",
              "channel_half_width", "noise_amplitude", "wse", "water_db",
              "land_db", "looks", "permanent_half_width",
              "shore_ramp_cells", "texture_db"}
    try:
        for key in sec:
            if key in ints:
                kwargs[key] = sec.getint(key)
            elif key in floats:
                kwargs[key] = sec.getfloat(key)
            elif key == "exclusion_strip":
                parts = sec.get(key).split(",")
                if len(parts) != 2:
                    raise InputError("exclusion_strip must be 'x0,x1'")
                kwargs[key] = (float(parts[0]), float(parts[1]))
            else:
                raise InputError("unknown scene key %r" % key)
    except ValueError as exc:
        raise InputError("bad scene value in %s: %s" % (path, exc)) from exc
    return SceneSpec(**kwargs)
