"""Two-layer ReLU NTK origin-extrapolation toolkit.

Builds origin-shifted training sets, evaluates the two-layer ReLU neural
tangent kernel in closed form and by Monte Carlo, reproduces the rank-one
asymptotic gram algebra, and measures extrapolation degree near the origin
versus far from the data.
"""

from .errors import (
    BoundaryTooClose,
    ConfigError,
    DegenerateDirection,
    DimensionError,
    DivergenceError,
    EvaluationError,
    FitFailure,
    InvalidInput,
    InvalidRegularization,
    MissingFeatureSample,
    NaNError,
    NtkOriginError,
    NumericalFailure,
)
from .geometry import (
    Direction,
    LinearTarget,
    QuadraticTarget,
    ShiftedTrainingSet,
    SinusoidalTarget,
    TargetFunction,
    shift_set,
)
from .kernel import (
    ANALYTIC,
    Analytic,
    FeatureSample,
    KernelEstimate,
    KernelMode,
    MonteCarlo,
    agnosticism_rate,
    diagonal,
    feature_map,
    kappa,
    kernel_matrix,
    ntk,
    sample_features,
)
from .gram import (
    AlphaVector,
    GramMatrix,
    TikhonovConfig,
    assemble_gram,
    tikhonov_solve,
)
from .regression import (
    BetaComponents,
    PointWisePredictor,
    Predictor,
    beta_from_alpha,
    predict,
)
from .limits import (
    ClosedFormContext,
    asymptotic_alpha,
    asymptotic_gram,
    bias_slopes,
    closed_form_context,
    sherman_morrison_inverse,
)
from .calculus import (
    DegreeClass,
    ExtrapolationProfile,
    classify,
    directional_derivative,
    fit_profile,
    pascal_coefficients,
    pascal_shift_identity,
    sigma_identity_check,
)
from .mlp import (
    MLPConfig,
    MLPModel,
    evaluate_batch,
    init_features,
    init_model,
    parameter_displacement,
    train,
)

__version__ = "0.1.0"
