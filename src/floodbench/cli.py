"""Command-line surface: despeckle, mapflood, depth, metrics, sweep, synth,
and enumerate subcommands.

Exit codes: 0 success, 2 usage or input error, 3 method degeneracy. All
file outputs are written atomically; diagnostics go to stderr as
structured stage=... config=... status=... lines.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .depth import (DepthAux, DepthConfig, DepthField, apply_depth_config,
                    read_cross_sections)
from .ensemble import (enumerate_depth, enumerate_filters, enumerate_mappers,
                       read_sweep_plan, sweep)
from .errors import DegenerateError, FloodbenchError, InputError
from .mapping import (ChanVeseParams, MapperAux, MapperConfig,
                      MorphologyConfig, apply_mapper_config)
from .metrics import (MetricsRecord, accuracy, append_manifest_row, confusion,
                      depth_rmse, f1, flooded_area_km2, manifest_header_line,
                      read_watermarks, rmse_at_points)
from .raster import (atomic_write_bytes, read_mask, read_raster, write_mask,
                     write_raster)
from .speckle import FilterConfig, SpeckleModel, apply_filter_config
from .synth import generate_scene, read_scene_spec, write_scene

log = logging.getLogger("floodbench")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floodbench",
        description="SAR flood-mapping and water-depth estimation toolbox")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="emit stage diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("despeckle", help="apply one speckle filter")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", required=True,
                   choices=["none", "median", "lee", "lee_sigma", "frost",
                            "external"])
    p.add_argument("--window", type=int, help="window side (3, 5, or 7)")
    p.add_argument("--xi", type=float, help="cumulative probability "
                                            "(lee_sigma)")
    p.add_argument("--alpha", type=float, help="damping factor (frost)")
    p.add_argument("--looks", type=float, default=1.0)
    p.add_argument("--external", help="pre-despeckled raster path")

    p = sub.add_parser("mapflood", help="extract a flood map")
    p.add_argument("--in", dest="infile", required=True,
                   help="linear-intensity raster")
    p.add_argument("--out", required=True)
    p.add_argument("--method", required=True,
                   choices=["global_threshold", "local_threshold",
                            "active_contour", "change_detection",
                            "external_mask"])
    p.add_argument("--selector", choices=["otsu", "ki"], default="otsu")
    p.add_argument("--ref", help="reference image (change detection)")
    p.add_argument("--init-mask", dest="init_mask",
                   help="permanent-water mask (active contour)")
    p.add_argument("--min-tile", dest="min_tile", type=int, default=100)
    p.add_argument("--ad", type=float, default=2.0)
    p.add_argument("--bc", type=float, default=0.99)
    p.add_argument("--sr", type=float, default=0.10)
    p.add_argument("--alpha", type=float, default=0.1,
                   help="contour smoothness (active contour)")
    p.add_argument("--external", help="external classifier mask path")
    p.add_argument("--fill-holes", dest="fill_holes", type=int, default=0)
    p.add_argument("--remove-patches", dest="remove_patches", type=int,
                   default=0)

    p = sub.add_parser("depth", help="estimate water depth")
    p.add_argument("--mask", required=True)
    p.add_argument("--dem", required=True)
    p.add_argument("--method", required=True,
                   choices=["fwdet", "flexth", "cross_section"])
    p.add_argument("--slope-threshold", dest="slope", type=float)
    p.add_argument("--smoothing", type=int, default=3)
    p.add_argument("--neighbors", type=int, default=10)
    p.add_argument("--exclusion")
    p.add_argument("--sections", help="cross-section polylines file")
    p.add_argument("--out", required=True,
                   help="output path prefix (writes <out>_depth/_wse)")

    p = sub.add_parser("metrics", help="score a flood map or depth field")
    p.add_argument("--pred", required=True, help="predicted flood mask")
    p.add_argument("--ref", required=True, help="reference flood mask")
    p.add_argument("--exclude", help="permanent-water exclusion mask")
    p.add_argument("--pred-depth", dest="pred_depth")
    p.add_argument("--pred-wse", dest="pred_wse")
    p.add_argument("--ref-depth", dest="ref_depth")
    p.add_argument("--watermarks")
    p.add_argument("--out-csv", dest="out_csv")

    p = sub.add_parser("sweep", help="run a configuration sweep")
    p.add_argument("--plan", required=True)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--jobs", type=int)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--format", choices=["asc", "fbr"], default="asc")

    p = sub.add_parser("enumerate", help="list a configuration space")
    p.add_argument("--space", required=True,
                   choices=["filters", "mappers", "mappers-morph", "depth"])
    return parser


def _half(window: int | None, method: str) -> int | None:
    if window is None:
        return None
    if window < 1 or window % 2 == 0:
        raise InputError("%s window side must be odd and positive" % method)
    return window // 2


def cmd_despeckle(args) -> int:
    raster = read_raster(args.infile)
    cfg = FilterConfig(args.method, k=_half(args.window, args.method),
                       xi=args.xi, alpha=args.alpha, path=args.external)
    out = apply_filter_config(raster, cfg, SpeckleModel(args.looks))
    write_raster(out, args.out)
    log.info("stage=despeckle config=%s status=written out=%s",
             cfg.describe(), args.out)
    return EXIT_OK


def cmd_mapflood(args) -> int:
    image = read_raster(args.infile)
    cv = ChanVeseParams(alpha=args.alpha) if args.method == "active_contour" \
        else None
    cfg = MapperConfig(
        args.method,
        selector=(args.selector if args.method in ("global_threshold",
                                                   "change_detection")
                  else None),
        min_tile_side=args.min_tile if args.method == "local_threshold" else None,
        ad_min=args.ad if args.method == "local_threshold" else None,
        bc_min=args.bc if args.method == "local_threshold" else None,
        sr_min=args.sr if args.method == "local_threshold" else None,
        chan_vese=cv,
        external_path=args.external if args.method == "external_mask" else None,
        external_label="cli" if args.method == "external_mask" else None)
    if args.method == "change_detection" and not args.ref:
        raise InputError("change detection requires --ref")
    if args.method == "active_contour" and not args.init_mask:
        raise InputError("active contour requires --init-mask")
    aux = MapperAux(
        reference=read_raster(args.ref) if args.ref else None,
        permanent_water=(read_mask(args.init_mask, reference=image)
                         if args.init_mask else None))
    morph = MorphologyConfig(args.fill_holes != 0 or args.remove_patches != 0,
                             args.fill_holes, args.remove_patches)
    mask = apply_mapper_config(image, cfg, morph, aux)
    write_mask(mask, args.out)
    log.info("stage=mapflood config=%s status=written flooded=%d out=%s",
             cfg.describe(), mask.flooded_count(), args.out)
    return EXIT_OK


def cmd_depth(args) -> int:
    mask = read_mask(args.mask)
    dem = read_raster(args.dem)
    if args.method == "cross_section" and not args.sections:
        raise InputError("cross_section requires --sections")
    cfg = DepthConfig(
        args.method,
        slope_threshold=args.slope,
        smoothing_iterations=args.smoothing if args.method == "fwdet" else None,
        max_neighbors=args.neighbors if args.method == "flexth" else None)
    aux = DepthAux(
        exclusion=(read_mask(args.exclusion, reference=dem)
                   if args.exclusion else None),
        sections=(tuple(read_cross_sections(args.sections))
                  if args.sections else ()))
    out = apply_depth_config(mask, dem, cfg, aux)
    ext = os.path.splitext(args.out)[1] or ".asc"
    stem = args.out[:-len(ext)] if args.out.endswith(ext) else args.out
    write_raster(out.field.depth, stem + "_depth" + ext)
    write_raster(out.field.wse, stem + "_wse" + ext)
    if out.sections is not None:
        lines = ["section,wse_m,mean_depth_m,cells"]
        for i, res in enumerate(out.sections):
            wet = res.depth[~np.isnan(res.depth)]
            lines.append("%d,%.6g,%.6g,%d"
                         % (i, res.wse, float(wet.mean()), wet.size))
        atomic_write_bytes(stem + "_sections.csv",
                           ("\n".join(lines) + "\n").encode())
    log.info("stage=depth config=%s status=written out=%s",
             cfg.describe(), stem)
    return EXIT_OK


def cmd_metrics(args) -> int:
    pred = read_mask(args.pred)
    ref = read_mask(args.ref, reference=pred)
    exclude = read_mask(args.exclude, reference=pred) if args.exclude else None
    counts = confusion(pred, ref, exclude)
    rec = MetricsRecord(config_id="cli", mapper_method="cli",
                        acc=accuracy(counts), f1=f1(counts),
                        area_km2=flooded_area_km2(pred))
    if args.pred_depth:
        dep = read_raster(args.pred_depth)
        wse = read_raster(args.pred_wse) if args.pred_wse else dep
        field = DepthField(dep, wse)
        if args.ref_depth:
            rec.rmse_m = depth_rmse(field, read_raster(args.ref_depth))
        if args.watermarks:
            pts = rmse_at_points(field, read_watermarks(args.watermarks))
            if rec.rmse_m is None:
                rec.rmse_m = pts.rmse
            rec.skipped_points = pts.skipped
    print("acc=%.6f f1=%.6f area_km2=%.6f rmse_m=%s"
          % (rec.acc, rec.f1, rec.area_km2,
             "%.6f" % rec.rmse_m if rec.rmse_m is not None else "n/a"))
    if args.out_csv:
        exists = os.path.exists(args.out_csv)
        with open(args.out_csv, "a", newline="") as fh:
            if not exists:
                fh.write(manifest_header_line() + "\n")
            append_manifest_row(fh, rec)
    return EXIT_OK


def cmd_sweep(args) -> int:
    plan = read_sweep_plan(args.plan, out_dir=args.out_dir, jobs=args.jobs)
    manifest = sweep(plan)
    print(manifest)
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = read_scene_spec(args.spec)
    scene = generate_scene(spec)
    paths = write_scene(scene, args.out_dir, ext=args.format)
    for path in paths:
        print(path)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.space == "filters":
        for cfg in enumerate_filters():
            print(cfg.describe())
    elif args.space in ("mappers", "mappers-morph"):
        pairs = enumerate_mappers(with_morphology=args.space == "mappers-morph")
        for mapper, morph in pairs:
            print("%s | morph=%s" % (mapper.describe(), morph.describe()))
    else:
        for cfg in enumerate_depth():
            print(cfg.describe())
    return EXIT_OK


_COMMANDS = {
    "despeckle": cmd_despeckle,
    "mapflood": cmd_mapflood,
    "depth": cmd_depth,
    "metrics": cmd_metrics,
    "sweep": cmd_sweep,
    "synth": cmd_synth,
    "enumerate": cmd_enumerate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        return _COMMANDS[args.command](args)
    except DegenerateError as exc:
        print("floodbench %s: %s" % (args.command, exc), file=sys.stderr)
        return EXIT_DEGENERATE
    except FloodbenchError as exc:
        print("floodbench %s: %s" % (args.command, exc), file=sys.stderr)
        return EXIT_USAGE
    finally:
        log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
