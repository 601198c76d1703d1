"""Speckle filtering of linear-intensity SAR rasters.

The observed intensity is modeled as the true backscatter times a
unit-mean multiplicative noise term whose variance is the reciprocal of
the number of looks. All filters operate on linear intensities, preserve
geometry and nodata placement, and return freshly allocated rasters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import DegenerateError, GeometryError, InputError
from .raster import (BinaryMask, FLOODED, Raster, local_stats, read_raster,
                     require_intensity, require_same_grid)

TABLE_WINDOW_SIDES = (3, 5, 7)
TABLE_XI = (0.7, 0.8, 0.9)
TABLE_ALPHA = (1.0, 2.0, 3.0)

FILTER_METHODS = ("none", "median", "lee", "lee_sigma", "frost", "external")


@dataclass(frozen=True)
class SpeckleModel:
    """Unit-mean multiplicative noise with variance 1/looks."""

    looks: float = 1.0

    def __post_init__(self):
        if not self.looks > 0:
            raise InputError("number of looks must be positive")

    @property
    def mean_s(self) -> float:
        return 1.0

    @property
    def var_s(self) -> float:
        return 0.0 if math.isinf(self.looks) else 1.0 / self.looks


@dataclass(frozen=True)
class FilterConfig:
    """One speckle-filtering configuration.

    Parameters must be present exactly when the method requires them:
    ``k`` (window half-size) for median/lee/lee_sigma/frost, ``xi`` for
    lee_sigma, ``alpha`` for frost, ``path`` for external. Window sides are
    restricted to the standard {3, 5, 7} grid unless ``any_window`` is set.
    """

    method: str
    k: int | None = None
    xi: float | None = None
    alpha: float | None = None
    path: str | None = None
    any_window: bool = False

    def __post_init__(self):
        if self.method not in FILTER_METHODS:
            raise InputError("unknown filter method %r" % self.method)
        needs_k = self.method in ("median", "lee", "lee_sigma", "frost")
        if needs_k:
            if self.k is None:
                raise InputError("%s filter requires a window size" % self.method)
            side = 2 * self.k + 1
            if not self.any_window and side not in TABLE_WINDOW_SIDES:
                raise InputError("window side %d outside the standard grid %r"
                                 % (side, TABLE_WINDOW_SIDES))
        elif self.k is not None:
            raise InputError("%s filter takes no window size" % self.method)
        if self.method == "lee_sigma":
            if self.xi is None:
                raise InputError("lee_sigma requires xi")
            if not self.any_window and self.xi not in TABLE_XI:
                raise InputError("xi %r outside the standard grid" % self.xi)
            if not 0 < self.xi <= 1:
                raise InputError("xi must lie in (0, 1]")
        elif self.xi is not None:
            raise InputError("xi only applies to lee_sigma")
        if self.method == "frost":
            if self.alpha is None:
                raise InputError("frost requires a damping factor")
            if not self.any_window and self.alpha not in TABLE_ALPHA:
                raise InputError("alpha %r outside the standard grid" % self.alpha)
            if not self.alpha > 0:
                raise InputError("damping factor must be positive")
        elif self.alpha is not None:
            raise InputError("alpha only applies to frost")
        if self.method == "external" and not self.path:
            raise InputError("external filter requires a raster path")
        if self.method != "external" and self.path is not None:
            raise InputError("path only applies to the external method")

    def describe(self) -> str:
        if self.method in ("median", "lee"):
            return "%s(w=%d)" % (self.method, 2 * self.k + 1)
        if self.method == "lee_sigma":
            return "lee_sigma(w=%d,xi=%g)" % (2 * self.k + 1, self.xi)
        if self.method == "frost":
            return "frost(w=%d,alpha=%g)" % (2 * self.k + 1, self.alpha)
        if self.method == "external":
            return "external(%s)" % self.path
        return "none"


# rows of windows sorted at once; bounds the working set to
# _ROW_CHUNK * width * side^2 samples
_ROW_CHUNK = 64


def _sorted_windows(raster: Raster, k: int):
    """Yield (rows, sorted, windows, n) for each chunk of _ROW_CHUNK rows.

    ``windows`` holds each cell's reflect-padded (2k+1)^2 window in
    row-major order with nodata as NaN, ``sorted`` the same windows sorted
    ascending with NaN last, and ``n`` each window's count of valid
    members, 0 at a nodata center. Rows of the 2-D arrays are the cells of
    ``rows`` in row-major order.
    """
    side = 2 * k + 1
    nw = side * side
    fin = raster.finite
    padded = np.pad(np.where(fin, raster.values, np.nan), k, mode="symmetric")
    view = np.lib.stride_tricks.sliding_window_view(padded, (side, side))
    valid = ndimage.uniform_filter(fin.astype(np.float64), size=side,
                                   mode="reflect")
    counts = np.where(fin, np.rint(valid * nw), 0).astype(np.intp)
    h = fin.shape[0]
    for lo in range(0, h, _ROW_CHUNK):
        rows = slice(lo, min(lo + _ROW_CHUNK, h))
        win = view[rows].reshape(-1, nw)
        yield rows, np.sort(win, axis=1), win, counts[rows].reshape(-1)


def median_filter(raster: Raster, k: int) -> Raster:
    """Replace each cell by the median of its reflected window.

    Nodata cells are dropped from the window sample; an even surviving
    count takes the mean of the two central order statistics. A nodata
    center gives nodata.
    """
    if k < 0:
        raise InputError("window half-size must be non-negative")
    if k == 0:
        return raster.like(raster.values)
    out = np.full(raster.values.shape, raster.nodata)
    for rows, srt, _, n in _sorted_windows(raster, k):
        cell = np.arange(n.size)
        # odd n averages the middle sample with itself, which is exact
        med = (srt[cell, (n - 1) // 2] + srt[cell, n // 2]) / 2
        block = out[rows].reshape(-1)
        block[:] = np.where(n > 0, med, raster.nodata)
    return raster.like(out)


def lee_filter(raster: Raster, k: int, model: SpeckleModel) -> Raster:
    """Minimum mean-square estimate of the backscatter from local statistics.

    The estimate is mean + g*(I - mean) with gain g = Var(R)/Var(I) and
    Var(R) = (Var(I) - mean^2*var_S) / (var_S + 1), clamped to [0, 1].
    Cells whose window variance is zero return the window mean. With
    var_S = 0 the formula reduces to the identity and the input is
    returned unchanged.
    """
    if k < 0:
        raise InputError("window half-size must be non-negative")
    var_s = model.var_s
    if var_s == 0.0:
        return raster.like(raster.values)
    mean_r, var_r = local_stats(raster, k)
    fin = raster.finite
    mean = mean_r.values
    var = var_r.values
    with np.errstate(invalid="ignore", divide="ignore"):
        var_true = (var - mean * mean * var_s) / (var_s + 1.0)
        gain = np.where(var > 0, var_true / np.where(var > 0, var, 1.0), 0.0)
    gain = np.clip(gain, 0.0, 1.0)
    out = mean + gain * (raster.values - mean)
    out = np.where(fin, out, raster.nodata)
    return raster.like(out)


def _sigma_select(s: np.ndarray, rank: np.ndarray, xi: float) -> np.ndarray:
    """Vectorized improved-sigma interval selection.

    ``s`` is (P, n) with the n valid window samples of each pixel sorted
    ascending, and ``rank`` counts the samples below each center value.
    For each pixel, the contiguous run of m = ceil(xi*n) sorted samples
    whose mean is closest to the full window mean is selected; ties prefer
    a run covering the center value's rank, then the lowest run start.
    Returns the selected run means.
    """
    p, n = s.shape
    m = min(max(int(math.ceil(xi * n)), 1), n)
    runs = n - m + 1
    csum = np.zeros((p, n + 1))
    np.cumsum(s, axis=1, out=csum[:, 1:])
    run_mean = (csum[:, m:m + runs] - csum[:, :runs]) / m
    full_mean = csum[:, n] / n
    score = np.abs(run_mean - full_mean[:, None])
    best = score.min(axis=1)
    tied = score == best[:, None]
    starts = np.arange(runs)[None, :]
    covers = (starts <= rank[:, None]) & (rank[:, None] <= starts + m - 1)
    preferred = tied & covers
    has_pref = preferred.any(axis=1)
    j = np.where(has_pref, preferred.argmax(axis=1), tied.argmax(axis=1))
    return run_mean[np.arange(p), j]


def lee_sigma_filter(raster: Raster, k: int, xi: float) -> Raster:
    """Mean of the sigma-interval sample of each reflected window.

    The interval is the contiguous run of the sorted window sample holding
    a fraction xi of the pixels whose mean best matches the full window
    mean. The center pixel is always part of the candidate sample.

    Nodata cells are dropped from the window sample, and xi applies to the
    count n of valid members (the run holds ceil(xi*n) of them). A nodata
    center gives nodata.
    """
    if k < 0:
        raise InputError("window half-size must be non-negative")
    if not 0 < xi <= 1:
        raise InputError("xi must lie in (0, 1]")
    if k == 0:
        return raster.like(raster.values)
    out = np.full(raster.values.shape, raster.nodata)
    for rows, srt, win, count in _sorted_windows(raster, k):
        center = win[:, win.shape[1] // 2]
        # NaN never compares less, so the rank counts valid members only
        rank = np.sum(win < center[:, None], axis=1)
        block = out[rows].reshape(-1)
        for n in np.flatnonzero(np.bincount(count)[1:]) + 1:
            sel = count == n
            # a group spanning the chunk (every all-finite raster) slices
            # the sorted block; gathering it would copy the whole block
            if sel.all():
                block[:] = _sigma_select(srt[:, :n], rank, xi)
            else:
                idx = np.flatnonzero(sel)
                block[idx] = _sigma_select(srt[idx, :n], rank[idx], xi)
    return raster.like(out)


def frost_filter(raster: Raster, k: int, alpha: float) -> Raster:
    """Exponentially distance-weighted window mean, e^(-alpha*d) weights.

    d is the Euclidean offset of each window member from the center, in
    pixels. Nodata members get weight 0 and the weights are renormalized
    over the valid members (a normalized convolution: the correlation of
    the zero-filled values over the correlation of the valid mask). A
    nodata center gives nodata.
    """
    if k < 0:
        raise InputError("window half-size must be non-negative")
    if not alpha > 0:
        raise InputError("damping factor must be positive")
    off = np.arange(-k, k + 1, dtype=np.float64)
    dist = np.hypot(off[:, None], off[None, :])
    weights = np.exp(-alpha * dist)
    fin = raster.finite
    num = ndimage.correlate(np.where(fin, raster.values, 0.0), weights,
                            mode="reflect")
    den = ndimage.correlate(fin.astype(np.float64), weights, mode="reflect")
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(fin, num / den, raster.nodata)
    return raster.like(out)


def enl(raster: Raster, region: BinaryMask) -> float:
    """Equivalent number of looks (mean^2 / variance) over a region.

    The region should be quasi-homogeneous; a constant region has no
    defined ENL and raises DegenerateError.
    """
    require_same_grid(raster, region, "raster and ENL region")
    sel = (region.values == FLOODED) & raster.finite
    vals = raster.values[sel]
    if vals.size < 2:
        raise InputError("ENL region needs at least 2 finite pixels")
    mean = float(vals.mean())
    var = float(vals.var())
    if var == 0.0:
        raise DegenerateError("degenerate homogeneous region")
    return mean * mean / var


def apply_filter_config(raster: Raster, config: FilterConfig,
                        model: SpeckleModel | None = None) -> Raster:
    """Dispatch a filter configuration against a linear-intensity raster."""
    require_intensity(raster)
    model = model or SpeckleModel()
    if config.method == "none":
        return raster
    if config.method == "median":
        return median_filter(raster, config.k)
    if config.method == "lee":
        return lee_filter(raster, config.k, model)
    if config.method == "lee_sigma":
        return lee_sigma_filter(raster, config.k, config.xi)
    if config.method == "frost":
        return frost_filter(raster, config.k, config.alpha)
    if config.method == "external":
        ext = read_raster(config.path)
        if ext.geometry != raster.geometry:
            raise GeometryError(
                "external raster geometry mismatch: %r vs %r"
                % (ext.geometry, raster.geometry))
        require_intensity(ext)
        return ext
    raise InputError("unknown filter method %r" % config.method)
