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
)
from .samplers import (
    OptimizerSpec,
    SamplerDivergence,
    SamplerRun,
    SearchSpec,
    drive,
    flow_stepper,
    greedy_stepper,
    kgdd_stepper,
    mfld_stepper,
    vgd_stepper,
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
    "OptimizerSpec",
    "SamplerDivergence",
    "SamplerRun",
    "SearchSpec",
    "drive",
    "flow_stepper",
    "greedy_stepper",
    "kgdd_stepper",
    "mfld_stepper",
    "vgd_stepper",
    "__version__",
]
