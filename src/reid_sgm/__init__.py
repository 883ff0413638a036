"""Color-name descriptors and cross-view subspace learning for re-id.

The pipeline: load raster images and foreground masks, soft-map pixels
onto a 16-entry color-name palette under a fitted discrepancy Gaussian,
pool and stripe the resulting maps into an image representation, learn
a coupled cross-view subspace from matched pairs, and score/evaluate
with CMC curves.  See the demos/ scripts for guided tours.
"""

# Set before the submodules load: ``artifact`` records it in every file.
__version__ = "0.1.0"

from .ccl import (
    CclModel,
    CoupledStats,
    accumulate_stats,
    load_models,
    project,
    save_models,
    score_matrix,
    solve_subspace,
)
from .descriptor import (
    DescriptorSet,
    ExtractionConfig,
    LayoutRecord,
    build_maps,
    export_csv,
    extract_color_histogram,
    extract_features,
    extract_sgm,
    extract_siltp,
    fuse,
    layout,
    load_descriptors,
    max_pool,
    save_descriptors,
    stripe_descriptor,
)
from .evalkit import (
    CmcReport,
    DatasetManifest,
    ManifestEntry,
    SplitSpec,
    SynthSpec,
    cmc_multi_shot,
    cmc_single_shot,
    load_manifest,
    make_splits,
    report,
    synth_dataset,
)
from .imaging import (
    ColorSpace,
    ForegroundMask,
    RasterImage,
    convert,
    load_image,
    load_mask,
)
from .sgm import (
    ColorNamePalette,
    GaussianMapModel,
    default_palette,
    fit_model,
    identity_model,
    load_palette,
    model_from_sigma,
    pixel_likelihoods,
    soft_map,
    transform_space,
)
