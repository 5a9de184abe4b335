"""pcqkit: full-reference point cloud quality metrics, fusion, benchmarking."""

__version__ = "0.1.0"

from .cloud import BoundingBox, PointCloud, bounding_box, infer_bit_depth
from .config import Config, load_config
from .evaluation import error_stats, evaluate, fit_logistic
from .io_ply import load_ply, save_ply
from .metrics.graphsim import msgraphsim_score
from .metrics.pcqm import (build_correspondence, compute_pcqm_features,
                           pcqm_aggregate)
from .metrics.pointssim import pointssim_score
from .metrics.psnr import compute_d1, compute_d2, compute_yuv
from .pipeline import (FEATURE_COLUMNS, FeatureTable, compute_pair_metrics,
                       extract_features, load_manifest, read_features_csv,
                       write_features_csv)
from .plan import PairPlan, ReferenceContext
from .regression import (MODEL_REGISTRY, FusionModel, MinMaxScaler, RbfSvr,
                         RidgeRegression, group_kfold, make_model, rfe_rank)
from .spatial import Neighbors, SpatialIndex, build_index
from .surface import estimate_normals

__all__ = [
    "BoundingBox", "PointCloud", "bounding_box", "infer_bit_depth",
    "Config", "load_config",
    "load_ply", "save_ply",
    "SpatialIndex", "Neighbors", "build_index",
    "estimate_normals",
    "compute_d1", "compute_d2", "compute_yuv",
    "pointssim_score",
    "build_correspondence", "compute_pcqm_features", "pcqm_aggregate",
    "msgraphsim_score",
    "FEATURE_COLUMNS", "FeatureTable", "ReferenceContext", "PairPlan",
    "compute_pair_metrics",
    "extract_features", "load_manifest", "read_features_csv",
    "write_features_csv",
    "MinMaxScaler", "RidgeRegression", "RbfSvr", "rfe_rank", "group_kfold",
    "MODEL_REGISTRY", "FusionModel", "make_model",
    "fit_logistic", "error_stats", "evaluate",
    "__version__",
]
