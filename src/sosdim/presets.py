"""Versioned coefficient presets for the named simulation settings.

The published settings name process orders but not coefficients, so the
exact vectors below are this package's documented choices. All are
stationary/invertible with clearly non-zero low-lag autocorrelation.
Results that depend on the precise values (small-sample power) should be
read against PRESET_VERSION.

The H2 moving-average signals weigh even lags: MA10_EVEN and MA20_EVEN
only even lags, so their lag-1 autocovariances vanish exactly, and
MA15_EVEN also 0.1 at lag 15, which leaves it a lag-1 autocorrelation of
1/114 (0.60 at lag 2). A single-lag (tau = 1) estimator is all but blind
to them while a multi-lag estimator sees lags 2, 4 and 6.
"""

PRESET_VERSION = "1.0"

MA3 = (0.6, 0.4, 0.2)
AR2 = (0.5, -0.3)
AR3 = (0.4, -0.2, 0.1)
ARMA11_AR = (0.8,)
ARMA11_MA = (-0.2,)
ARMA32_AR = (0.3, -0.2, 0.1)
ARMA32_MA = (0.5, 0.3)

# MA coefficient vectors of the long-range setting, weighted on even lags.
MA10_EVEN = (0.0, 0.5, 0.0, 0.4, 0.0, 0.3, 0.0, 0.2, 0.0, 0.1)
MA15_EVEN = (0.0, 0.45, 0.0, 0.4, 0.0, 0.35, 0.0, 0.3, 0.0, 0.25,
             0.0, 0.2, 0.0, 0.15, 0.1)
MA20_EVEN = (0.0, 0.4, 0.0, 0.36, 0.0, 0.32, 0.0, 0.28, 0.0, 0.24,
             0.0, 0.2, 0.0, 0.16, 0.0, 0.12, 0.0, 0.08, 0.0, 0.04)

MA1_WEAK = (0.1,)
MA2_WEAK = (0.1, 0.1)
