"""Numerical laboratory for random-attention kernel smoothing.

Closed-form second-moment kernels of untrained self-attention, Monte Carlo
validation, label-smoothing baselines, structure-aware evaluation metrics,
and a synthetic hypnogram test-bed tied together by a reproducible
experiment harness.

The root exports the names of README's library tour and ``softmax_rows``
(read here by the benchmark's tests); every other name imports from its module.
"""

from types import ModuleType as _ModuleType

from .attention import EncoderConfig, softmax_rows
from .harness import RunConfig, run_pipeline
from .initializers import InitScheme, analytic_variance
from .metrics import pearson
from .montecarlo import centered_unit_sequence, dk_sweep_detail
from .rapk import rapk_coefficients, rapk_kernel
from .smoothers import CentroidSums, classify
from .synthgen import SynthConfig, iter_subjects

__version__ = "0.1.0"

# Every public name imported above, and none of the submodules.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
