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
    match_components,
    sobi,
    to_energy_basis,
    unmix,
)
from .dimtest import (
    DimensionEstimate,
    TestResult,
    all_q_tests,
    bootstrap_noise_test,
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
    generalized_eig,
    joint_diagonalize,
    order_by_pseudo_eigenvalues,
)
from .series import (
    LagSet,
    MultiSeries,
    center,
    load_csv,
    sample_autocov,
    sample_cov,
    standardized_autocovs,
    sym_inv_sqrt,
    symmetrize,
)
from .simulate import (
    DimensionTable,
    FrequencyTable,
    ProcessSpec,
    SimSetting,
    dimension_table,
    generate,
    make_setting,
    mix,
    rejection_table,
    simulate_setting,
)

__version__ = "0.1.0"
