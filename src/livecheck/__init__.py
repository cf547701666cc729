"""Software-only fingerprint liveness detection.

The package scores grayscale fingerprint images as live (+1) or fake
(-1) from texture alone: preprocessing, a local-binary-pattern or
random-filter convnet feature extractor, standardization with PCA
whitening, and an RBF-kernel SVM trained by sequential minimal
optimization.  Model selection runs a grid search, memoized within each
split, under 5x2 cross-validation on the average classification error.
"""

from .augment import augment_training, make_patches
from .config import ParsedConfig, parse_config, parse_config_file
from .convnet import (
    ConvLayerConfig,
    ConvNetConfig,
    conv_forward,
    convnet_features,
    init_banks,
    init_filters,
    lcn,
    max_pool,
    relu,
)
from .dataset import DatasetManifest, load_dataset, load_images
from .imageproc import (
    RoiRect,
    clahe,
    convolve2d,
    crop,
    extract_roi,
    gaussian_kernel,
    highpass,
    ingest,
    lowpass,
    resize_bilinear,
    write_pgm,
)
from .lbp import LbpConfig, lbp_code, lbp_features, lbp_map, uniform_label
from .model_io import load_model, model_bytes, model_digest, model_from_bytes, save_model
from .modelsel import (
    EvalReport,
    GridSearchResult,
    GridSpec,
    GridStage,
    ace,
    five_by_two_splits,
    grid_search,
)
from .pipeline import (
    FAKE_LABEL,
    LIVE_LABEL,
    PipelineConfig,
    PreprocessConfig,
    TrainedPipeline,
    TransformConfig,
    fit_pipeline,
    preprocess_image,
)
from .seeds import derive_seed
from .svm import SvmModel, SvmParams, decision_score, decision_scores, predict, train_smo
from .synthdata import make_texture_dataset, ridge_image, write_dataset_tree
from .transform import PcaModel, Standardizer, fit_pca_randomized, project

__version__ = "0.1.0"
