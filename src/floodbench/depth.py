"""Water-depth estimation from a flood mask and a DEM.

Three estimators are provided: nearest-boundary flat-water assignment with
iterative smoothing, inverse-distance weighting of the K nearest boundary
elevations with optional growth into exclusion areas, and a per-transect
flat-surface cross-section analysis. Depth is water surface elevation minus
terrain, clamped non-negative, and is nodata off the flooded support.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import ndimage

from .errors import DegenerateError, InputError
from .raster import (BinaryMask, DRY, FLOODED, JsonParams, Raster,
                     nearest_table, require_same_grid)

DEPTH_METHODS = ("fwdet", "flexth", "cross_section")
TABLE_SLOPE = (None, 5.0, 10.0)
TABLE_SMOOTHING = (3, 5, 10)
TABLE_NEIGHBORS = (5, 10, 20)


@dataclass(frozen=True)
class DepthConfig(JsonParams):
    """One water-depth estimation configuration."""

    method: str
    slope_threshold: float | None = None
    smoothing_iterations: int | None = None
    max_neighbors: int | None = None

    def __post_init__(self):
        if self.method not in DEPTH_METHODS:
            raise InputError("unknown depth method %r" % self.method)
        if self.method == "fwdet":
            if self.smoothing_iterations is None or self.smoothing_iterations < 0:
                raise InputError("fwdet requires smoothing iterations")
            if self.max_neighbors is not None:
                raise InputError("fwdet takes no neighbor count")
        elif self.method == "flexth":
            if self.max_neighbors is None or self.max_neighbors < 1:
                raise InputError("flexth requires a positive neighbor count")
            if self.smoothing_iterations is not None:
                raise InputError("flexth takes no smoothing iterations")
        else:
            if self.smoothing_iterations is not None \
                    or self.max_neighbors is not None \
                    or self.slope_threshold is not None:
                raise InputError("cross_section takes no hyperparameters")

    def describe(self) -> str:
        if self.method == "fwdet":
            return "fwdet(slope=%s,smooth=%d)" % (self.slope_threshold,
                                                  self.smoothing_iterations)
        if self.method == "flexth":
            return "flexth(slope=%s,k=%d)" % (self.slope_threshold,
                                              self.max_neighbors)
        return "cross_section"


@dataclass(frozen=True)
class BoundarySet:
    """Flood-boundary cells with their DEM elevations.

    Cells are flooded with at least one dry 4-neighbor, listed in row-major
    order, optionally filtered to a maximum percent slope. FwDET and FLEXTH
    pass them straight to ``raster.nearest_table``, whose (d², row, col)
    ranking relies on that order.
    """

    cells: np.ndarray       # (B, 2) int rows/cols
    elevations: np.ndarray  # (B,) float64
    slope_threshold: float | None


@dataclass(frozen=True)
class DepthField:
    """Water depth raster plus its companion water-surface elevation.

    ``wse`` is the estimator's flat or interpolated water surface before
    any depth smoothing; depth is nodata exactly where the mask was not
    flooded.
    """

    depth: Raster
    wse: Raster

    def __post_init__(self):
        require_same_grid(self.depth, self.wse, "depth and WSE rasters")


def _require_full_dem(dem: Raster) -> None:
    """Every estimator reads the DEM at flooded and boundary cells, so a
    nodata cell (a huge or NaN elevation) would corrupt its depths."""
    if not dem.finite.all():
        raise InputError("DEM has nodata cells")


def dem_slope(dem: Raster) -> Raster:
    """Percent slope magnitude from central differences.

    Border cells use one-sided differences. The DEM must be fully finite.
    """
    _require_full_dem(dem)
    gy, gx = np.gradient(dem.values, dem.cell_size)
    return dem.like(100.0 * np.hypot(gx, gy))


def extract_boundary(mask: BinaryMask, dem: Raster,
                     slope_threshold: float | None = None) -> BoundarySet:
    """Flooded cells with a dry 4-neighbor, optionally slope filtered; the
    DEM must be fully finite."""
    require_same_grid(mask, dem, "mask and DEM")
    _require_full_dem(dem)
    fl = mask.values == FLOODED
    if not fl.any():
        raise DegenerateError("empty flood")
    dry = mask.values == DRY
    edge = np.zeros(fl.shape, dtype=bool)
    edge[:, :-1] |= fl[:, :-1] & dry[:, 1:]
    edge[:, 1:] |= fl[:, 1:] & dry[:, :-1]
    edge[:-1, :] |= fl[:-1, :] & dry[1:, :]
    edge[1:, :] |= fl[1:, :] & dry[:-1, :]
    cells = np.argwhere(edge)
    if cells.shape[0] == 0:
        raise DegenerateError("flood has no dry-adjacent boundary")
    if slope_threshold is not None:
        slopes = dem_slope(dem).values[cells[:, 0], cells[:, 1]]
        keep = slopes <= slope_threshold
        cells = cells[keep]
        if cells.shape[0] == 0:
            raise DegenerateError("empty boundary after slope filtering")
    elev = dem.values[cells[:, 0], cells[:, 1]]
    return BoundarySet(cells, elev, slope_threshold)


def _field_from_wse(dem: Raster, fl: np.ndarray, wse_cells: np.ndarray,
                    cells: np.ndarray) -> DepthField:
    wse = np.full(dem.values.shape, dem.nodata)
    wse[cells[:, 0], cells[:, 1]] = wse_cells
    depth = np.full(dem.values.shape, dem.nodata)
    depth[fl] = np.maximum(wse[fl] - dem.values[fl], 0.0)
    return DepthField(dem.like(depth), dem.like(wse))


def _surface(mask: BinaryMask, dem: Raster, slope_threshold: float | None,
             k: int, near) -> DepthField:
    """Inverse-distance weighting of the k nearest boundary elevations.

    The k nearest boundary cells of every flooded cell are ranked by
    (squared distance, row, col) and found exactly (all boundary cells
    when k exceeds the boundary size) by ``near(boundary cells, flooded
    cells, k)``. Distances are Euclidean in cells with a floor of one
    cell; weights are 1/d normalized over the k neighbors, summed nearest
    first. At k = 1 the one weight is exactly 1.0, so the surface is the
    nearest boundary cell's elevation.
    """
    boundary = extract_boundary(mask, dem, slope_threshold)
    fl = mask.values == FLOODED
    cells = np.argwhere(fl)
    src = boundary.cells
    idx, d2 = near(src, cells, min(k, src.shape[0]))
    w = 1.0 / np.maximum(np.sqrt(d2.astype(np.float64)), 1.0)
    wn = w / w.sum(axis=1, keepdims=True)
    wse_cells = np.sum(wn * boundary.elevations[idx], axis=1)
    return _field_from_wse(dem, fl, wse_cells, cells)


def fwdet(mask: BinaryMask, dem: Raster, cfg: DepthConfig,
          near=nearest_table) -> DepthField:
    """Nearest-boundary flat-water depth with 3x3 smoothing passes.

    Every flooded cell takes the DEM elevation of its nearest boundary
    cell as the water surface (ties toward the lowest row, then column):
    the K = 1 surface of FLEXTH. Depth is clamped non-negative and then
    smoothed ``cfg.smoothing_iterations`` times by a 3x3 mean over
    flooded cells only, re-clamping after each pass. The reported WSE is
    the pre-smoothing surface. The nearest cells come from
    ``near(boundary cells, flooded cells, 1)``, by default
    ``raster.nearest_table``: a distance transform with a lattice tie
    repair. A sweep passes a ``near`` that shares one table among the
    configs that query the same boundary.
    """
    field = _surface(mask, dem, cfg.slope_threshold, 1, near)
    fl = mask.values == FLOODED
    depth = np.where(fl, field.depth.values, 0.0)
    smoothed = _smooth_depth(depth, fl, cfg.smoothing_iterations or 0)
    out = np.full(dem.values.shape, dem.nodata)
    out[fl] = smoothed[fl]
    return DepthField(dem.like(out), field.wse)


def _smooth_depth(depth: np.ndarray, fl: np.ndarray, iterations: int) -> np.ndarray:
    kernel = np.ones((3, 3))
    flc = fl.astype(np.float64)
    den = ndimage.correlate(flc, kernel, mode="constant", cval=0.0)
    out = depth
    for _ in range(iterations):
        num = ndimage.correlate(np.where(fl, out, 0.0), kernel,
                                mode="constant", cval=0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
        out = np.where(fl, np.maximum(avg, 0.0), out)
    return out


def flexth(mask: BinaryMask, dem: Raster, cfg: DepthConfig,
           exclusion: BinaryMask | None = None,
           near=nearest_table) -> DepthField:
    """Inverse-distance weighting of the K = ``cfg.max_neighbors`` nearest
    boundary elevations (``_surface``).

    ``near`` defaults to ``raster.nearest_table``'s k-d tree query. A
    sweep passes a ``near`` that reads the K nearest as the first K
    columns of one table shared by the configs that query the same
    boundary. When an exclusion mask is given, the flood first grows
    through every exclusion cell 4-connected to it, and the grown cells
    receive interpolated surfaces like any other flooded cell.
    """
    work = mask if exclusion is None else expand_into_exclusion(mask, exclusion)
    return _surface(work, dem, cfg.slope_threshold, cfg.max_neighbors, near)


def expand_into_exclusion(mask: BinaryMask, exclusion: BinaryMask) -> BinaryMask:
    """Flood every exclusion cell 4-connected to the flood through
    exclusion cells: the components of flood | exclusion (one 4-connected
    labelling) that hold a flooded cell."""
    require_same_grid(mask, exclusion, "mask and exclusion mask")
    fl = mask.values == FLOODED
    labels, n = ndimage.label(fl | (exclusion.values == FLOODED))
    touches = np.zeros(n + 1, dtype=bool)
    touches[labels[fl]] = True
    out = np.array(mask.values)
    out[touches[labels]] = FLOODED
    return mask.like(out)


# ---------------------------------------------------------------------------
# cross sections


@dataclass(frozen=True)
class CrossSection:
    """Ordered polyline of map coordinates defining one transect."""

    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise InputError("cross section needs at least two vertices")


class CrossSectionResult(NamedTuple):
    chain: np.ndarray        # (M, 2) sampled grid cells along the transect
    left_bank: tuple         # outermost flooded cell from the start
    right_bank: tuple        # outermost flooded cell from the end
    wse: float
    depth: np.ndarray        # (M,) depth on flooded chain cells, NaN elsewhere


def sample_chain(section: CrossSection, grid: Raster) -> np.ndarray:
    """Grid cells traversed by the polyline, sampled at half-cell steps."""
    cells: list[tuple[int, int]] = []
    verts = section.vertices
    step = grid.cell_size / 2.0
    for (x0, y0), (x1, y1) in zip(verts[:-1], verts[1:]):
        length = float(np.hypot(x1 - x0, y1 - y0))
        n = max(int(np.ceil(length / step)), 1)
        for t in np.linspace(0.0, 1.0, n + 1):
            cell = grid.cell_of(x0 + t * (x1 - x0), y0 + t * (y1 - y0))
            if cell is not None and (not cells or cells[-1] != cell):
                cells.append(cell)
    if not cells:
        raise InputError("cross section lies outside the raster")
    return np.array(cells, dtype=np.int64)


def cross_section_depth(mask: BinaryMask, dem: Raster,
                        section: CrossSection) -> CrossSectionResult:
    """Flat-surface depth along one transect from its two bank elevations.

    The banks are the outermost flooded cells along the sampled chain; the
    section WSE is the mean of their DEM elevations. A chain with no
    flooded cell misses the flood; a flood reaching either chain end has
    no bank there and the section is unbounded. The DEM must be fully
    finite.
    """
    require_same_grid(mask, dem, "mask and DEM")
    _require_full_dem(dem)
    chain = sample_chain(section, dem)
    codes = mask.values[chain[:, 0], chain[:, 1]]
    flooded = np.nonzero(codes == FLOODED)[0]
    if flooded.size == 0:
        raise DegenerateError("section misses flood")
    a, b = int(flooded[0]), int(flooded[-1])
    if a == 0 or b == chain.shape[0] - 1:
        raise DegenerateError("unbounded section")
    left = (int(chain[a, 0]), int(chain[a, 1]))
    right = (int(chain[b, 0]), int(chain[b, 1]))
    wse = 0.5 * (float(dem.values[left]) + float(dem.values[right]))
    z = dem.values[chain[:, 0], chain[:, 1]]
    depth = np.where(codes == FLOODED, np.maximum(wse - z, 0.0), np.nan)
    return CrossSectionResult(chain, left, right, wse, depth)


def read_cross_sections(path: str) -> list[CrossSection]:
    """Parse a sections file: one polyline per line, 'x,y; x,y; ...'."""
    sections = []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        verts = []
        for pair in line.split(";"):
            parts = pair.split(",")
            if len(parts) != 2:
                raise InputError("bad vertex %r on line %d of %s"
                                 % (pair.strip(), ln, path))
            try:
                verts.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise InputError("bad vertex on line %d of %s: %s"
                                 % (ln, path, exc)) from exc
        sections.append(CrossSection(tuple(verts)))
    if not sections:
        raise InputError("no cross sections in %s" % path)
    return sections


# ---------------------------------------------------------------------------
# dispatch


@dataclass(frozen=True)
class DepthAux:
    """Side inputs of the depth estimators. ``near(src, qry, k)`` gives
    FwDET and FLEXTH their nearest-boundary tables."""

    exclusion: BinaryMask | None = None
    sections: tuple = ()
    near: Callable = nearest_table


class DepthOutput(NamedTuple):
    field: DepthField
    sections: list | None


def apply_depth_config(mask: BinaryMask, dem: Raster, cfg: DepthConfig,
                       aux: DepthAux | None = None) -> DepthOutput:
    """Run one depth estimator; cross-section output is a sparse field."""
    aux = aux or DepthAux()
    if cfg.method == "fwdet":
        return DepthOutput(fwdet(mask, dem, cfg, aux.near), None)
    if cfg.method == "flexth":
        return DepthOutput(flexth(mask, dem, cfg, aux.exclusion, aux.near),
                           None)
    if cfg.method == "cross_section":
        if not aux.sections:
            raise InputError("cross_section requires section polylines")
        results = [cross_section_depth(mask, dem, s) for s in aux.sections]
        depth = np.full(dem.values.shape, dem.nodata)
        wse = np.full(dem.values.shape, dem.nodata)
        for res in results:
            on = ~np.isnan(res.depth)
            rr, cc = res.chain[on, 0], res.chain[on, 1]
            depth[rr, cc] = res.depth[on]
            wse[rr, cc] = res.wse
        field = DepthField(dem.like(depth), dem.like(wse))
        return DepthOutput(field, results)
    raise InputError("unknown depth method %r" % cfg.method)
