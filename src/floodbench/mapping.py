"""Flood-extent extraction: thresholding, active contour, change detection,
and morphological post-processing.

All statistical mapping operates on dB-converted images (10*log10 of the
linear intensity, floored at 1e-10). Water appears dark, so flooded cells
are those at or below the selected threshold.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage
from scipy.special import ndtr

from .errors import DegenerateError, InputError
from .raster import (BinaryMask, DRY, FLOODED, JsonParams, MASK_NODATA,
                     Raster, label_array, mask_like, read_mask,
                     require_same_grid)

log = logging.getLogger("floodbench")

DB_FLOOR = 1e-10
NBINS = 256
EM_MAX_ITER = 50
EM_TOL = 1e-6
EM_MIN_SAMPLES = 50

MAPPER_METHODS = ("global_threshold", "local_threshold", "active_contour",
                  "change_detection", "external_mask")
SELECTORS = ("otsu", "ki")

TABLE_MIN_TILE = (100, 200)
TABLE_AD = (1.9, 2.0, 2.1)
TABLE_BC = (0.98, 0.99)
TABLE_SR = (0.05, 0.1, 0.15)
TABLE_CV_ALPHA = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
TABLE_MORPH = (10, 50, 100)


def to_db(raster: Raster) -> Raster:
    """Convert linear intensity to decibels, flooring at 1e-10 linear."""
    fin = raster.finite
    v = 10.0 * np.log10(np.maximum(np.where(fin, raster.values, 1.0),
                                   DB_FLOOR))
    return raster.like(np.where(fin, v, raster.nodata))


# ---------------------------------------------------------------------------
# histograms and global threshold selection


@dataclass(frozen=True)
class Histogram:
    """256 uniform bins spanning [min, max] of the originating sample."""

    edges: np.ndarray   # (NBINS + 1,)
    counts: np.ndarray  # (NBINS,) int64
    n: int

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def build_histogram(values: np.ndarray) -> Histogram:
    sample = np.asarray(values, dtype=np.float64).ravel()
    sample = sample[np.isfinite(sample)]
    if sample.size < 2:
        raise InputError("histogram needs at least 2 values")
    lo, hi = float(sample.min()), float(sample.max())
    if lo == hi:
        raise InputError("constant sample has no histogram support")
    counts, edges = np.histogram(sample, bins=NBINS, range=(lo, hi))
    counts = counts.astype(np.int64)
    counts.flags.writeable = False
    edges.flags.writeable = False
    return Histogram(edges, counts, int(sample.size))


class TwoClassSplit(NamedTuple):
    """A threshold with the class statistics at the optimal cut.

    The foreground (flooded) class is the low-value side.
    """

    threshold: float
    weight_f: float
    weight_b: float
    mean_f: float
    mean_b: float
    std_f: float
    std_b: float


def _cut_stats(hist: Histogram):
    c = hist.counts.astype(np.float64)
    x = hist.centers
    cw = np.cumsum(c)
    cm = np.cumsum(c * x)
    cs = np.cumsum(c * x * x)
    total = cw[-1]
    nf = cw[:-1]
    nb = total - nf
    valid = (nf > 0) & (nb > 0)
    safe_f = np.where(nf > 0, nf, 1.0)
    safe_b = np.where(nb > 0, nb, 1.0)
    mu_f = cm[:-1] / safe_f
    mu_b = (cm[-1] - cm[:-1]) / safe_b
    var_f = np.maximum(cs[:-1] / safe_f - mu_f * mu_f, 0.0)
    var_b = np.maximum((cs[-1] - cs[:-1]) / safe_b - mu_b * mu_b, 0.0)
    return total, nf / total, nb / total, mu_f, mu_b, var_f, var_b, valid


def _split_at(hist: Histogram, j: int, stats) -> TwoClassSplit:
    _, wf, wb, mu_f, mu_b, var_f, var_b, _ = stats
    return TwoClassSplit(float(hist.edges[j + 1]), float(wf[j]), float(wb[j]),
                         float(mu_f[j]), float(mu_b[j]),
                         float(math.sqrt(var_f[j])), float(math.sqrt(var_b[j])))


# cuts inside an empty histogram gap give mathematically equal objectives
# that differ only by accumulation noise; treat them as ties and take the
# lowest threshold
_TIE_REL = 1e-9


def otsu_threshold(hist: Histogram) -> TwoClassSplit:
    """Exhaustive scan for the cut maximizing the between-class variance.

    The objective is w_f*w_b*(mu_f - mu_b)^2 over all 255 bin-edge cuts;
    ties break toward the lower threshold.
    """
    stats = _cut_stats(hist)
    _, wf, wb, mu_f, mu_b, _, _, valid = stats
    if not valid.any():
        raise DegenerateError("no valid cut: all mass in one histogram bin")
    sigma_b2 = wf * wb * (mu_f - mu_b) ** 2
    obj = np.where(valid, sigma_b2, -np.inf)
    best = float(obj.max())
    j = int(np.argmax(obj >= best - _TIE_REL * max(abs(best), 1e-300)))
    return _split_at(hist, j, stats)


def ki_threshold(hist: Histogram) -> TwoClassSplit:
    """Minimum-error threshold via the Kittler-Illingworth cost.

    J = 1 + 2*(w_f*log(s_f) + w_b*log(s_b)) - 2*(w_f*log(w_f) + w_b*log(w_b)),
    with standard deviations floored at 1e-6 and weights floored at 1e-9
    inside the logarithms. Ties break toward the lower threshold.
    """
    stats = _cut_stats(hist)
    _, wf, wb, _, _, var_f, var_b, valid = stats
    if not valid.any():
        raise DegenerateError("no valid cut: all mass in one histogram bin")
    sf = np.maximum(np.sqrt(var_f), 1e-6)
    sb = np.maximum(np.sqrt(var_b), 1e-6)
    lwf = np.log(np.maximum(wf, 1e-9))
    lwb = np.log(np.maximum(wb, 1e-9))
    cost = 1.0 + 2.0 * (wf * np.log(sf) + wb * np.log(sb)) \
        - 2.0 * (wf * lwf + wb * lwb)
    obj = np.where(valid, cost, np.inf)
    best = float(obj.min())
    j = int(np.argmax(obj <= best + _TIE_REL * max(abs(best), 1e-300)))
    return _split_at(hist, j, stats)


def select_threshold(hist: Histogram, selector: str) -> TwoClassSplit:
    if selector == "otsu":
        return otsu_threshold(hist)
    if selector == "ki":
        return ki_threshold(hist)
    raise InputError("unknown threshold selector %r" % selector)


def global_threshold_map(raster_db: Raster, selector: str) -> BinaryMask:
    """Threshold a dB image globally; flooded cells lie at or below the cut."""
    fin = raster_db.finite
    split = select_threshold(build_histogram(raster_db.values[fin]), selector)
    return threshold_mask(raster_db, split.threshold)


def threshold_mask(raster_db: Raster, threshold: float) -> BinaryMask:
    fin = raster_db.finite
    out = np.where(fin, np.where(raster_db.values <= threshold,
                                 FLOODED, DRY), MASK_NODATA)
    return mask_like(raster_db, out)


# ---------------------------------------------------------------------------
# quad-tree tiling and bimodality statistics


class Tile(NamedTuple):
    row0: int
    col0: int
    height: int
    width: int
    leaf: bool


def quadtree_tiles(raster: Raster, min_side: int) -> list[Tile]:
    """Recursive 4-way decomposition down to a minimum tile side.

    A tile splits only when all four children keep both sides at or above
    ``min_side``; remainder rows/columns go to the last child. The returned
    list holds every tile at every level (ancestors first), with leaves
    flagged.
    """
    if min_side < 2:
        raise InputError("minimum tile side must be at least 2")
    tiles: list[Tile] = []

    def visit(r0: int, c0: int, h: int, w: int) -> None:
        splittable = (h // 2) >= min_side and (w // 2) >= min_side
        tiles.append(Tile(r0, c0, h, w, not splittable))
        if not splittable:
            return
        h1, w1 = h // 2, w // 2
        visit(r0, c0, h1, w1)
        visit(r0, c0 + w1, h1, w - w1)
        visit(r0 + h1, c0, h - h1, w1)
        visit(r0 + h1, c0 + w1, h - h1, w - w1)

    visit(0, 0, raster.height, raster.width)
    return tiles


class GaussianComponent(NamedTuple):
    weight: float
    mean: float
    std: float


class BimodalityScores(NamedTuple):
    ashman_d: float
    bhattacharyya: float
    surface_ratio: float


def bhattacharyya_coefficient(p: np.ndarray, q: np.ndarray) -> float:
    """Overlap of two discrete distributions, sum of sqrt(p_i * q_i)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise InputError("histograms must share binning")
    return float(np.minimum(np.sum(np.sqrt(p * q)), 1.0))


def _mixture_bin_mass(hist: Histogram, comps) -> np.ndarray:
    q = np.zeros(NBINS)
    for w, mu, sd in comps:
        z = (hist.edges - mu) / max(sd, 1e-300)
        q += w * np.diff(ndtr(z))
    total = q.sum()
    return q / total if total > 0 else q


_DEGENERATE_SCORES = BimodalityScores(0.0, 0.0, 0.0)


def fit_two_gaussians(values: np.ndarray,
                      max_iter: int = EM_MAX_ITER,
                      tol: float = EM_TOL):
    """Fit a two-component Gaussian mixture by EM and score its bimodality.

    Initialization comes from the moments of the Otsu split of the sample
    histogram. Returns (components, BimodalityScores) with components
    ordered by ascending mean. A degenerate fit (collapsing sigma, empty
    class) reports non-bimodal scores of zero.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    x = x[np.isfinite(x)]
    if x.size < EM_MIN_SAMPLES:
        raise InputError("mixture fit needs at least %d samples"
                         % EM_MIN_SAMPLES)
    try:
        hist = build_histogram(x)
        split = otsu_threshold(hist)
    except (InputError, DegenerateError):
        comp = GaussianComponent(1.0, float(x.mean()), float(x.std()))
        return (comp, comp), _DEGENERATE_SCORES
    span = float(x.max() - x.min())
    floor = max(span, 1.0) * 1e-9
    lo = x[x <= split.threshold]
    hi = x[x > split.threshold]
    if lo.size == 0 or hi.size == 0:
        comp = GaussianComponent(1.0, float(x.mean()), float(x.std()))
        return (comp, comp), _DEGENERATE_SCORES
    w1, mu1, s1 = lo.size / x.size, float(lo.mean()), max(float(lo.std()), floor)
    w2, mu2, s2 = hi.size / x.size, float(hi.mean()), max(float(hi.std()), floor)

    def npdf(mu, sd):
        return np.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))

    ll_prev = -np.inf
    degenerate = False
    for _ in range(max_iter):
        p1 = w1 * npdf(mu1, s1)
        p2 = w2 * npdf(mu2, s2)
        tot = p1 + p2
        tiny = tot <= 0
        if tiny.any():
            tot = np.where(tiny, 1e-300, tot)
        r1 = p1 / tot
        ll = float(np.sum(np.log(tot)))
        if abs(ll - ll_prev) < tol:
            break
        ll_prev = ll
        n1 = r1.sum()
        n2 = x.size - n1
        if n1 <= 0 or n2 <= 0:
            degenerate = True
            break
        w1, w2 = n1 / x.size, n2 / x.size
        mu1 = float(np.sum(r1 * x) / n1)
        mu2 = float(np.sum((1.0 - r1) * x) / n2)
        s1 = math.sqrt(max(float(np.sum(r1 * (x - mu1) ** 2) / n1), 0.0))
        s2 = math.sqrt(max(float(np.sum((1.0 - r1) * (x - mu2) ** 2) / n2), 0.0))
        if s1 < floor or s2 < floor:
            degenerate = True
            break

    comps = sorted([GaussianComponent(w1, mu1, s1),
                    GaussianComponent(w2, mu2, s2)], key=lambda c: c.mean)
    if degenerate:
        return tuple(comps), _DEGENERATE_SCORES
    c1, c2 = comps
    ad = abs(c1.mean - c2.mean) / math.sqrt(0.5 * (c1.std ** 2 + c2.std ** 2))
    p = hist.counts / hist.n
    q = _mixture_bin_mass(hist, comps)
    bc = bhattacharyya_coefficient(p, q)
    p1 = c1.weight * npdf(c1.mean, c1.std)
    p2 = c2.weight * npdf(c2.mean, c2.std)
    n_low = int(np.count_nonzero(p1 >= p2))
    smaller = min(n_low, x.size - n_low)
    sr = smaller / x.size
    return (c1, c2), BimodalityScores(float(ad), bc, float(sr))


# ---------------------------------------------------------------------------
# configurations


@dataclass(frozen=True)
class ChanVeseParams:
    """Active-contour energy weights and stopping rule.

    alpha scales the contour-smoothness penalty; the data weights are the
    fixed lambda1 = 2 > lambda2 = 1 so the low-intensity class is favored
    as foreground, and the area weight nu is 0.
    """

    alpha: float
    nu: float = 0.0
    lambda1: float = 2.0
    lambda2: float = 1.0
    max_iterations: int = 500
    tolerance: float = 1e-4

    def __post_init__(self):
        if self.alpha < 0:
            raise InputError("contour smoothness must be non-negative")
        if not self.lambda1 > self.lambda2 > 0:
            raise InputError("data weights must satisfy lambda1 > lambda2 > 0")
        if self.max_iterations < 1:
            raise InputError("iteration cap must be positive")


@dataclass(frozen=True)
class MorphologyConfig(JsonParams):
    """Hole filling then small-patch removal, both in pixel areas. An area
    of 0 skips its step (no component has 0 cells); enabled morphology
    needs at least one positive area."""

    enabled: bool = False
    fill_holes_max: int = 0
    remove_patches_max: int = 0

    def __post_init__(self):
        areas = (self.fill_holes_max, self.remove_patches_max)
        if self.enabled and (min(areas) < 0 or max(areas) == 0):
            raise InputError("morphology areas must be non-negative, and "
                             "one positive, when enabled")

    def describe(self) -> str:
        if not self.enabled:
            return "off"
        return "fill=%d,remove=%d" % (self.fill_holes_max,
                                      self.remove_patches_max)


@dataclass(frozen=True)
class MapperConfig(JsonParams):
    """One flood-mapping configuration (fields present per method)."""

    method: str
    selector: str | None = None
    min_tile_side: int | None = None
    ad_min: float | None = None
    bc_min: float | None = None
    sr_min: float | None = None
    chan_vese: ChanVeseParams | None = None
    external_path: str | None = None
    external_label: str | None = None

    def __post_init__(self):
        if self.method not in MAPPER_METHODS:
            raise InputError("unknown mapper method %r" % self.method)
        if self.method in ("global_threshold", "change_detection"):
            if self.selector not in SELECTORS:
                raise InputError("%s requires a threshold selector"
                                 % self.method)
        if self.method == "local_threshold":
            if self.min_tile_side is None or self.ad_min is None \
                    or self.bc_min is None or self.sr_min is None:
                raise InputError("local thresholding requires tile size and "
                                 "AD/BC/SR acceptance thresholds")
        if self.method == "active_contour" and self.chan_vese is None:
            raise InputError("active contour requires Chan-Vese parameters")
        if self.method == "external_mask" and not self.external_label:
            raise InputError("external mask requires a model label")

    def describe(self) -> str:
        if self.method == "global_threshold":
            return "global(%s)" % self.selector
        if self.method == "local_threshold":
            return "local(tile=%d,ad=%g,bc=%g,sr=%g)" % (
                self.min_tile_side, self.ad_min, self.bc_min, self.sr_min)
        if self.method == "active_contour":
            return "chan_vese(alpha=%g)" % self.chan_vese.alpha
        if self.method == "change_detection":
            return "change(%s)" % self.selector
        return "external(%s)" % self.external_label


# ---------------------------------------------------------------------------
# local thresholding

def tile_scores(raster_db: Raster, min_side: int) -> np.ndarray:
    """Bimodality table of a dB image's quad-tree tiles at every level.

    One float64 row per tile: row0, col0, height, width, then the AD, BC
    and SR scores of its two-Gaussian fit. A tile with fewer than
    EM_MIN_SAMPLES finite cells, or whose fit is degenerate, scores zero.
    """
    fin = raster_db.finite
    v = raster_db.values
    tiles = quadtree_tiles(raster_db, min_side)
    table = np.zeros((len(tiles), 7))
    for row, tile in zip(table, tiles):
        rows = slice(tile.row0, tile.row0 + tile.height)
        cols = slice(tile.col0, tile.col0 + tile.width)
        good = v[rows, cols][fin[rows, cols]]
        row[:4] = tile[:4]
        if good.size >= EM_MIN_SAMPLES:
            row[4:] = fit_two_gaussians(good)[1]
    return table


def local_threshold_map(raster_db: Raster, cfg: MapperConfig,
                        scores: np.ndarray | None = None) -> BinaryMask:
    """Quad-tree tile selection, pooled KI threshold, global application.

    Tiles at every level are accepted when their two-Gaussian fit passes
    AD >= ad_min, BC >= bc_min, and SR >= sr_min. The union of accepted
    tile cells feeds one KI threshold that is applied to the whole image.
    ``scores`` is the image's ``tile_scores`` at ``cfg.min_tile_side``,
    computed here when not given.
    """
    if cfg.method != "local_threshold":
        raise InputError("config is not a local-threshold config")
    if scores is None:
        scores = tile_scores(raster_db, cfg.min_tile_side)
    fin = raster_db.finite
    v = raster_db.values
    passed = (scores[:, 4] >= cfg.ad_min) & (scores[:, 5] >= cfg.bc_min) \
        & (scores[:, 6] >= cfg.sr_min)
    accept = np.zeros(v.shape, dtype=bool)
    for r0, c0, h, w in scores[passed, :4].astype(np.int64):
        accept[r0:r0 + h, c0:c0 + w] = True
    pooled = v[accept & fin]
    if pooled.size == 0:
        raise DegenerateError("no bimodal tiles")
    try:
        split = ki_threshold(build_histogram(pooled))
    except (InputError, DegenerateError) as exc:
        raise DegenerateError("no bimodal tiles: %s" % exc) from exc
    return threshold_mask(raster_db, split.threshold)


# ---------------------------------------------------------------------------
# Chan-Vese active contour

_KERNEL8 = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.int64)
# update colors form a 2x2 tiling so no two same-color cells are 8-adjacent
_N_COLORS = 4


def perimeter8(labels: np.ndarray, valid: np.ndarray) -> int:
    """Count unordered 8-adjacent label-disagreeing pairs of valid cells."""
    total = 0
    for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
        a_r = slice(max(0, -dr), labels.shape[0] - max(0, dr))
        b_r = slice(max(0, dr), labels.shape[0] - max(0, -dr))
        a_c = slice(max(0, -dc), labels.shape[1] - max(0, dc))
        b_c = slice(max(0, dc), labels.shape[1] - max(0, -dc))
        diff = labels[a_r, a_c] != labels[b_r, b_c]
        both = valid[a_r, a_c] & valid[b_r, b_c]
        total += int(np.count_nonzero(diff & both))
    return total


def chan_vese_energy(values: np.ndarray, valid: np.ndarray,
                     labels: np.ndarray, c1: float, c2: float,
                     params: ChanVeseParams) -> float:
    """Discretized two-phase segmentation energy."""
    inside = valid & (labels == 1)
    outside = valid & (labels == 0)
    data = params.lambda1 * float(np.sum((values[inside] - c1) ** 2)) \
        + params.lambda2 * float(np.sum((values[outside] - c2) ** 2))
    return params.alpha * perimeter8(labels, valid) \
        + params.nu * float(np.count_nonzero(inside)) + data


class ChanVeseResult(NamedTuple):
    labels: np.ndarray
    energies: list
    iterations: int
    degenerate: bool


def chan_vese_segment(values: np.ndarray, valid: np.ndarray,
                      init: np.ndarray, params: ChanVeseParams) -> ChanVeseResult:
    """Minimize the discrete Chan-Vese energy by blockwise coordinate descent.

    Each sweep updates the class means, then the labels one interference-free
    color class at a time, so the energy never increases between sweeps.
    The orientation c1 < c2 (foreground dark) is enforced by swapping labels.
    """
    vals = np.where(valid, values, 0.0)
    labels = np.where(valid, init.astype(np.int8), 0)
    n_valid = int(np.count_nonzero(valid))
    if n_valid == 0:
        raise InputError("no valid cells to segment")
    if float(vals[valid].max() - vals[valid].min()) == 0.0:
        return ChanVeseResult(labels, [], 0, True)
    rows = np.arange(values.shape[0])[:, None]
    cols = np.arange(values.shape[1])[None, :]
    color = ((rows % 2) * 2 + (cols % 2))
    nb_valid = ndimage.correlate(valid.astype(np.int64), _KERNEL8,
                                 mode="constant", cval=0)
    energies: list[float] = []
    sweeps = 0
    for sweeps in range(1, params.max_iterations + 1):
        inside = valid & (labels == 1)
        outside = valid & (labels == 0)
        n_in = int(np.count_nonzero(inside))
        n_out = int(np.count_nonzero(outside))
        if n_in == 0 or n_out == 0:
            break
        c1 = float(vals[inside].mean())
        c2 = float(vals[outside].mean())
        if c1 > c2:
            labels = np.where(valid, 1 - labels, labels)
            c1, c2 = c2, c1
        prev = labels.copy()
        cost_in_data = params.lambda1 * (vals - c1) ** 2 + params.nu
        cost_out_data = params.lambda2 * (vals - c2) ** 2
        for col_id in range(_N_COLORS):
            nb_ones = ndimage.correlate((labels == 1).astype(np.int64),
                                        _KERNEL8, mode="constant", cval=0)
            cost_in = cost_in_data + params.alpha * (nb_valid - nb_ones)
            cost_out = cost_out_data + params.alpha * nb_ones
            take = (color == col_id) & valid
            labels = np.where(take, (cost_in < cost_out).astype(np.int8),
                              labels)
        energies.append(chan_vese_energy(vals, valid, labels, c1, c2, params))
        changed = int(np.count_nonzero(labels != prev))
        if changed / n_valid < params.tolerance:
            break
    return ChanVeseResult(labels, energies, sweeps, False)


def chan_vese_map(raster_db: Raster, init: BinaryMask,
                  params: ChanVeseParams) -> BinaryMask:
    """Segment a dB image with the Chan-Vese model seeded by an init mask."""
    require_same_grid(raster_db, init, "image and init mask")
    fin = raster_db.finite
    seed = (init.values == FLOODED) & fin
    n_fin = int(np.count_nonzero(fin))
    n_seed = int(np.count_nonzero(seed))
    if n_seed == 0 or n_seed == n_fin:
        raise InputError("init mask must be non-empty and non-full")
    result = chan_vese_segment(raster_db.values, fin, seed, params)
    if result.degenerate:
        log.info("stage=chan_vese status=degenerate "
                 "detail=constant image, returning the init mask")
    out = np.where(fin, result.labels.astype(np.uint8), MASK_NODATA)
    return mask_like(raster_db, out)


# ---------------------------------------------------------------------------
# change detection


def change_detection_map(flood_db: Raster, reference_db: Raster,
                         selector: str) -> BinaryMask:
    """Threshold the dB difference of a flood/reference image pair.

    The difference of dB images is the log-ratio of the linear pair, which
    cancels the multiplicative speckle factor in expectation. Flooded cells
    show a backscatter drop, so flagging happens at or below the threshold.
    """
    require_same_grid(flood_db, reference_db, "flood and reference images")
    fin = flood_db.finite & reference_db.finite
    r = np.where(fin, flood_db.values - reference_db.values, flood_db.nodata)
    try:
        split = select_threshold(build_histogram(r[fin]), selector)
    except (InputError, DegenerateError) as exc:
        raise DegenerateError("no change signal") from exc
    out = np.where(fin, np.where(r <= split.threshold, FLOODED, DRY),
                   MASK_NODATA)
    return mask_like(flood_db, out)


# ---------------------------------------------------------------------------
# morphology


def fill_holes(mask: BinaryMask, max_area: int) -> BinaryMask:
    """Flood dry 4-connected pockets of at most max_area pixels.

    Components touching the raster border are the exterior and never fill.
    """
    if max_area < 0:
        raise InputError("hole area must be non-negative")
    dry = mask.values == DRY
    lab = label_array(dry, connectivity=4)
    if not lab.sizes:
        return mask.like(mask.values)
    border = np.unique(np.concatenate([
        lab.labels[0, :], lab.labels[-1, :],
        lab.labels[:, 0], lab.labels[:, -1]]))
    n = max(lab.sizes)
    fill = np.zeros(n + 1, dtype=bool)
    for label, size in lab.sizes.items():
        fill[label] = size <= max_area
    fill[border[border > 0]] = False
    fill[0] = False
    out = np.where(fill[lab.labels], FLOODED, mask.values)
    return mask.like(out)


def remove_patches(mask: BinaryMask, max_area: int) -> BinaryMask:
    """Dry out 8-connected flooded patches of at most max_area pixels."""
    if max_area < 0:
        raise InputError("patch area must be non-negative")
    lab = label_array(mask.values == FLOODED, connectivity=8)
    if not lab.sizes:
        return mask.like(mask.values)
    n = max(lab.sizes)
    drop = np.zeros(n + 1, dtype=bool)
    for label, size in lab.sizes.items():
        drop[label] = size <= max_area
    drop[0] = False
    out = np.where(drop[lab.labels], DRY, mask.values)
    return mask.like(out)


def apply_morphology(mask: BinaryMask, morph: MorphologyConfig) -> BinaryMask:
    if not morph.enabled:
        return mask
    return remove_patches(fill_holes(mask, morph.fill_holes_max),
                          morph.remove_patches_max)


# ---------------------------------------------------------------------------
# dispatch


@dataclass(frozen=True)
class MapperAux:
    """Side inputs a mapper may need: linear-intensity or mask grids, and
    the local-threshold tile table of the image's dB conversion."""

    reference: Raster | None = None
    permanent_water: BinaryMask | None = None
    tile_scores: np.ndarray | None = None


def apply_mapper_config(image: Raster, cfg: MapperConfig,
                        morph: MorphologyConfig,
                        aux: MapperAux | None = None) -> BinaryMask:
    """Run one mapper on a linear-intensity image, then morphology.

    Converts to dB internally for the statistical methods. Morphology
    applies hole filling first, then patch removal.
    """
    aux = aux or MapperAux()
    if cfg.method == "global_threshold":
        mask = global_threshold_map(to_db(image), cfg.selector)
    elif cfg.method == "local_threshold":
        mask = local_threshold_map(to_db(image), cfg, aux.tile_scores)
    elif cfg.method == "active_contour":
        if aux.permanent_water is None:
            raise InputError("active contour requires a permanent-water "
                             "init mask")
        mask = chan_vese_map(to_db(image), aux.permanent_water, cfg.chan_vese)
    elif cfg.method == "change_detection":
        if aux.reference is None:
            raise InputError("change detection requires a reference image")
        mask = change_detection_map(to_db(image), to_db(aux.reference),
                                    cfg.selector)
    elif cfg.method == "external_mask":
        if not cfg.external_path:
            raise InputError("external mask config has no file path")
        mask = read_mask(cfg.external_path, reference=image)
    else:
        raise InputError("unknown mapper method %r" % cfg.method)
    return apply_morphology(mask, morph)
