"""Machine-unlearning toolkit for linear and smooth-loss models.

Removes the influence of a forget set from a pretrained model using only the
fitted coefficients, the forget rows, and a small subsample of the remaining
data, and quantifies the uncertainty of the result.
"""

__version__ = "0.1.0"

from .data_model import (
    Dataset,
    PretrainedModel,
    SufficientStats,
    compute_stats,
    concat_datasets,
    load_csv,
    load_model,
    save_csv,
    save_json,
    save_model,
    save_table,
    subsample,
)
from .errors import (
    DegenerateDirection,
    DimensionMismatch,
    Diverged,
    EmptyDataset,
    HeldOutOverflow,
    IndefiniteObjective,
    InsufficientData,
    NoFeasibleLambda,
    NotConverged,
    NotPositiveDefinite,
    ParseError,
    SchemaMismatch,
    SingularGram,
    SubsampleTooLarge,
    UlsError,
)
from .estimators import (
    EstimateResult,
    GdConfig,
    Problem,
    default_step_size,
    gd_unlearn,
    graddiff,
    ols_fit,
    prepare,
    pretrain,
    transfer_ridge,
    uls,
    uls_plus,
)
from .inference import (
    InferenceReport,
    ci_ols,
    ci_uls,
    normal_quantile,
    variance_uls,
)
from .loss import LOGISTIC, SQUARED, loss_grad, loss_value
from .numerics import (
    RngStream,
    ar1_covariance,
    cholesky,
    sample_gaussian,
    spd_solve,
)
from .simulation import (
    RepRecord,
    SimConfig,
    SimSummary,
    draw_truth,
    generate_rep,
    mpe,
    run_experiment,
    summarize,
    write_records,
)
from .tuning import CvSpec, cv_select, log_grid, plugin_lambda
