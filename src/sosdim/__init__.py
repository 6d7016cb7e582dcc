"""Signal dimension estimation for second-order source separation.

Estimates the number of non-noise components of a multivariate time
series: AMUSE/SOBI unmixing, an asymptotic chi-square white-noise
subspace test, a bootstrap competitor, sequential dimension-estimation
strategies and a reproducible Monte Carlo harness.
"""

from .bss import (
    LAG_PRESETS,
    UnmixingResult,
    amuse,
    energy_unmix,
    estimated_sources,
    sobi,
    unmix,
)
from .dimtest import (
    DimensionEstimate,
    TestResult,
    all_q_tests,
    dimension_report,
    estimate_dimension,
    estimate_dimension_from_fit,
    noise_test,
    test_statistic,
)
from .errors import (
    CsvParseError,
    InvalidInputError,
    LagTooLargeError,
    NearSingularCovarianceError,
    SosdimError,
)
from .jointdiag import (
    JointDiagResult,
    joint_diagonalize,
    order_by_pseudo_eigenvalues,
)
from .series import (
    LagSet,
    MultiSeries,
    load_csv,
    sample_autocov,
    sample_cov,
    standardized_autocovs,
    sym_inv_sqrt,
    symmetrize,
)

__version__ = "0.3.0"

# The Monte Carlo harness is imported on first use (PEP 562): sosdim.simulate
# loads scipy.signal, which estimation and testing do not need.
_SIMULATE_NAMES = frozenset({
    "DimensionTable",
    "FrequencyTable",
    "ProcessSpec",
    "SimSetting",
    "dimension_table",
    "generate",
    "make_setting",
    "mix",
    "rejection_table",
    "simulate_setting",
})


def __getattr__(name):
    if name in _SIMULATE_NAMES:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SIMULATE_NAMES)
