"""Seeded input recipes for the benchmark workloads.

The recipes mirror the S5 and D1 settings of ``sosdim.presets`` and
``sosdim.simulate`` (same process orders, coefficients, innovations and
mixing rule) but are written here with numpy and ``scipy.signal.lfilter``,
so a later change to the package's simulation harness cannot change the
data that the ``estimate`` and ``test`` workloads read.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

MA3 = (0.6, 0.4, 0.2)
AR2 = (0.5, -0.3)
AR3 = (0.4, -0.2, 0.1)
ARMA11 = ((0.8,), (-0.2,))
ARMA32 = ((0.3, -0.2, 0.1), (0.5, 0.3))

_PSI_TERMS = 4096
_MAX_MIX_CONDITION = 1e8


def _filter(ar, ma, eps):
    return lfilter([1.0, *ma], [1.0, *(-a for a in ar)], eps)


def _arma(ar, ma, n, rng, t_df=None):
    """n samples of a unit-variance ARMA process, innovations N(0,1) or scaled t."""
    burn = 1000 + 10 * max(len(ar), len(ma))
    if t_df is None:
        eps = rng.standard_normal(n + burn)
    else:
        eps = rng.standard_t(t_df, size=n + burn) * np.sqrt((t_df - 2.0) / t_df)
    if not ar and not ma:
        return eps[burn:]
    impulse = np.zeros(_PSI_TERMS)
    impulse[0] = 1.0
    psi = _filter(ar, ma, impulse)
    return _filter(ar, ma, eps)[burn:] / np.sqrt(psi @ psi)


def s5(n: int, seed) -> np.ndarray:
    """S5 recipe: 3 autocorrelated signals, 17 t5 noise channels, uniform mixing."""
    rng = np.random.default_rng(seed)
    z = np.column_stack(
        [
            _arma((), MA3, n, rng),
            _arma(AR2, (), n, rng),
            _arma(*ARMA11, n, rng),
        ]
        + [_arma((), (), n, rng, t_df=5.0) for _ in range(17)]
    )
    while True:
        omega = rng.uniform(0.0, 1.0, size=(20, 20))
        if np.linalg.cond(omega) < _MAX_MIX_CONDITION:
            return z @ omega.T


def d1(n: int, seed) -> np.ndarray:
    """D1 recipe: 5 autocorrelated signals and 5 Gaussian noise channels, unmixed."""
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [
            _arma(AR2, (), n, rng),
            _arma(AR3, (), n, rng),
            _arma(*ARMA11, n, rng),
            _arma(*ARMA32, n, rng),
            _arma((), MA3, n, rng),
        ]
        + [_arma((), (), n, rng) for _ in range(5)]
    )


#: Recipe name -> (generator, true signal dimension d).
RECIPES = {"S5": (s5, 3), "D1": (d1, 5)}


def write_csv(path, x: np.ndarray) -> int:
    """Write x with round-trip (17 significant digit) decimals; returns bytes."""
    np.savetxt(path, x, fmt="%.17g", delimiter=",")
    return path.stat().st_size
