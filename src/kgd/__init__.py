"""Kernel gradient discrepancy for entropy-regularised variational
objectives, and particle samplers driven by it."""

from .core import (
    DiagonalGaussian,
    EmpiricalMeasure,
    seeded_stream,
)
from .discrepancy import (
    ScalingStudy,
    clt_scaling_study,
    gen_score,
    kgd_u_squared,
    kgd_v_squared,
    particle_grad,
    stein_gram,
)
from .kernels import (
    IMQ,
    Gaussian,
    Mixture,
    NormalizedLinear,
    ScalarKernel,
    WeightedMatrixKernel,
)
from .losses import (
    InteractionLoss,
    LinearLoss,
    MeanFieldRegressionLoss,
    PredictiveKernelLoss,
    VariationalLoss,
    ZeroLoss,
    gaussian_smooth,
)
from .samplers import (
    OptimizerSpec,
    SamplerDivergence,
    SamplerRun,
    SearchSpec,
    greedy_extend,
    greedy_next,
    kgdd_grad,
    kgdd_run,
    mfld_run,
    mfld_step,
    vgd_run,
    vgd_step,
)

__version__ = "0.1.0"

__all__ = [
    "DiagonalGaussian",
    "EmpiricalMeasure",
    "seeded_stream",
    "ScalingStudy",
    "clt_scaling_study",
    "gen_score",
    "kgd_u_squared",
    "kgd_v_squared",
    "particle_grad",
    "stein_gram",
    "IMQ",
    "Gaussian",
    "Mixture",
    "NormalizedLinear",
    "ScalarKernel",
    "WeightedMatrixKernel",
    "InteractionLoss",
    "LinearLoss",
    "MeanFieldRegressionLoss",
    "PredictiveKernelLoss",
    "VariationalLoss",
    "ZeroLoss",
    "gaussian_smooth",
    "OptimizerSpec",
    "SamplerDivergence",
    "SamplerRun",
    "SearchSpec",
    "greedy_extend",
    "greedy_next",
    "kgdd_grad",
    "kgdd_run",
    "mfld_run",
    "mfld_step",
    "vgd_run",
    "vgd_step",
    "__version__",
]
