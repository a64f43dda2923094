"""Numerical laboratory for random-attention kernel smoothing.

Closed-form second-moment kernels of untrained self-attention, Monte Carlo
validation, label-smoothing baselines, structure-aware evaluation metrics,
and a synthetic hypnogram test-bed tied together by a reproducible
experiment harness.
"""

from types import ModuleType as _ModuleType

from .attention import (
    AttentionMatrix,
    EncoderConfig,
    build_encoder_weights,
    empirical_kernel,
    encoder_forward,
    layer_norm_rows,
    softmax_rows,
    window_blocks,
)
from .dataio import DatasetError, load_dataset, open_dataset, save_dataset
from .harness import (
    COMPONENT_BUNDLES,
    SMOOTHERS,
    PipelineResult,
    RunConfig,
    config_digest,
    correlation_study,
    load_run_config,
    run_pipeline,
    run_sweep,
)
from .initializers import (
    InitScheme,
    analytic_variance,
    init_matrices,
    init_matrix,
    make_projection_set,
    parse_scheme,
    scheme_label,
)
from .metrics import EvalReport, accuracy, lsii, lsii_pooled, pearson, weighted_f1, wte, wte_pooled
from .montecarlo import (
    KernelValidationReport,
    LogitConcentrationReport,
    centered_unit_sequence,
    dk_sweep_detail,
    kernel_mse,
    logit_concentration,
)
from .rapk import (
    linearized_softmax,
    rapk_coefficients,
    rapk_kernel,
)
from .seeding import generator, mix_seed, splitmix64
from .sequences import FeatureSequence, ProbSequence, StageSequence
from .smoothers import (
    CentroidSums,
    classify,
    fixed_attention_smooth,
    majority_filter_smooth,
    moving_average_smooth,
    random_transformer_smooth,
)
from .synthgen import SynthConfig, SynthDataset, iter_subjects, make_dataset

__version__ = "0.1.0"

# Every public name imported above, and none of the submodules.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
