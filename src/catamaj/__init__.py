"""Verification toolkit for catalytic majorization.

Decides, through finite families of strict polynomial-coefficient
inequalities, whether one probability vector can be catalytically
transformed into another -- under LOCC, under thermal operations, and under
incoherent operations for pure states -- and corroborates every verdict with
an independent brute-force oracle and catalyst search.
"""

from .context import Context, DEFAULT_CONTEXT
from .errors import (
    CatamajError,
    DegreeCapExceeded,
    DimMismatch,
    EmptyInput,
    EpsNonPositive,
    GibbsZeroEntry,
    GridTooLarge,
    InputError,
    KOutOfRange,
    NegativeEntry,
    PZero,
    ReciprocalOfZero,
    SumNotOne,
    SupportViolation,
)
from .vectors import (
    ProbVector,
    burg_entropy,
    make_prob_vector,
    pad_pair,
    pointwise_power,
    renyi_entropy,
    scaled_p_norm,
    shannon_entropy,
    tensor,
    uniform,
)
from .sympoly import (
    ComparisonReport,
    PolyCoeffs,
    STRICT_GREATER,
    STRICT_LESS,
    F_coeff,
    compare_F_family,
    f_poly_coeffs,
)
from .majorization import (
    GridSpec,
    ScanReport,
    majorizes,
    oracle_scan,
    search_catalyst,
    thermo_majorizes,
    verify_catalyst,
)
from .trumping import (
    ExponentPair,
    TrumpingVerdict,
    check_trumping,
    compute_exponents,
)
from .thermo import (
    EmbeddingSpec,
    ThermalSpec,
    ThermoVerdict,
    check_thermo,
    continuity_bound,
    divergence_scan,
    embed,
    embedding_from_rational,
    free_energy,
    gibbs_vector,
    rational_approx,
    renyi_divergence,
    slack_factors,
    thermal_from_gibbs,
)
from .coherence import (
    check_coherent_trumping,
    free_coherence_pure,
    pure_state_from_amplitudes,
    pure_state_from_probs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
