"""Mutual completion of multiple incomplete kernel matrices.

Given K symmetric positive definite kernel matrices with rows/columns hidden
per view, a shared model matrix (full, PPCA-restricted, or factor-analysis
restricted) is fitted by block coordinate descent under the LogDet divergence,
and the hidden blocks are imputed from it.
"""

from .engines import (
    CompletionConfig,
    CompletionResult,
    FaModel,
    FullModel,
    PcaModel,
    average_kernel,
    degrees_of_freedom,
    fa_estep,
    fa_model_update,
    fc_model_update,
    objective,
    pca_model_update,
    regularize,
    run_completion,
    select_rank,
)
from .errors import (
    ConfigError,
    DimensionError,
    FormatError,
    MkmcError,
    NotPositiveDefiniteError,
    NumericalError,
)
from .linalg import (
    EigenDecomposition,
    eigh_sorted,
    logdet,
    logdet_divergence,
    symmetrize,
)
from .recovery import (
    RecoveryReport,
    SyntheticSpec,
    compare_methods,
    generate_synthetic,
    hidden_block_error,
    score_completion,
)
from .views import (
    Fill,
    VisibilityPattern,
    apply_mask,
    random_mask,
)

__version__ = "0.1.0"
