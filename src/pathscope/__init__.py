"""Analysis toolkit for small bias-free ReLU convnets: on/off activation
patterns, active-path counting, activation replacement, rank correlation,
and CAM-style saliency evaluation."""

from .cam import (
    CAM_VARIANTS,
    TiledSample,
    bilinear_resize,
    cam_layer,
    degradation_score,
    make_tiled,
    perturb,
    saliency_map,
    target_matching_accuracy,
)
from .correlation import (
    TauReport,
    TauRow,
    aggregate_tau,
    kendall_tau_b,
    layerwise_tau,
)
from .data import (
    Dataset,
    load_idx,
    mean_pixel,
    subsample,
    synthetic_blobs,
    synthetic_digits,
    write_idx,
)
from .errors import (
    ArgumentError,
    FormatError,
    NumericalError,
    PathscopeError,
    ShapeError,
    SizeError,
    SpecError,
    UndefinedCorrelationError,
)
from .model import (
    ForwardTrace,
    LayerSpec,
    ModelSpec,
    TrainConfig,
    build_model,
    conv,
    desk_spec,
    desk_train_config,
    dropout,
    evaluate_accuracy,
    fc,
    flatten,
    forward,
    forward_from_layer,
    gemm_operands,
    gradient_wrt_layer,
    layer_names,
    load_model,
    maxpool,
    model_digest,
    reference_spec,
    relu,
    save_model,
    train_sgd,
)
from .pathcount import (
    ClipConfig,
    PathCountMap,
    PathCountPlan,
    clip_fc_weights,
    extract_onoff,
    pathcount_bruteforce,
    pathcount_forward,
    pathcount_plan,
)
from .replacement import (
    REPLACEMENT_KINDS,
    SweepReport,
    SweepRow,
    replace_and_infer,
    replaceable_layers,
    scaled_onoff,
    scaled_pathcount,
    signed_scaled_pathcount,
    sweep,
)

__version__ = "0.1.0"
