"""floodbench: SAR flood-mapping workflow with enumerable hyperparameter
ensembles, speckle filtering, water-depth estimation, and a synthetic-scene
verification oracle."""

from .errors import (DegenerateError, FloodbenchError, GeometryError,
                     InputError, RasterFormatError)
from .raster import (BinaryMask, LabelMap, Raster, connected_components,
                     local_stats, nearest_feature, read_mask, read_raster,
                     write_mask, write_raster)
from .speckle import (FilterConfig, SpeckleModel, apply_filter_config, enl,
                      frost_filter, lee_filter, lee_sigma_filter,
                      median_filter)
from .mapping import (BimodalityScores, ChanVeseParams, Histogram,
                      MapperAux, MapperConfig, MorphologyConfig,
                      TwoClassSplit, apply_mapper_config, build_histogram,
                      chan_vese_map, change_detection_map, fill_holes,
                      fit_two_gaussians, global_threshold_map, ki_threshold,
                      local_threshold_map, otsu_threshold, quadtree_tiles,
                      remove_patches, to_db)
from .depth import (BoundarySet, CrossSection, DepthConfig, DepthField,
                    apply_depth_config, cross_section_depth, dem_slope,
                    extract_boundary, flexth, fwdet)
from .metrics import (ConfusionCounts, MetricsRecord, accuracy, confusion,
                      depth_rmse, f1, flooded_area_km2, rmse_at_points)
from .synth import (SceneSpec, SyntheticScene, apply_speckle, flat_fill_truth,
                    generate_dem, generate_scene, render_backscatter)
from .ensemble import (ConfigSpec, PipelineInputs, StageCache, SweepPlan,
                       enumerate_depth, enumerate_filters, enumerate_mappers,
                       run_pipeline, select_representative_maps, sweep)

__version__ = "0.1.0"
