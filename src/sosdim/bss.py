"""AMUSE and SOBI unmixing estimators, and the energy basis the tests use.

Both produce an unmixing matrix Gamma = U^T S0^{-1/2} whose rows are
ordered signal-first by the summed squared pseudo-eigenvalues, so the
trailing components are the white-noise candidates.

The white-noise subspace tests run on the energy basis instead: the
eigenbasis of sum_tau H_tau^2, ordered by total lagged autocorrelation
energy (to_energy_basis, energy_unmix). At a single lag that is AMUSE's
own U. With several lags it differs from SOBI's U, which stays the
estimator of the sources.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .jointdiag import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOL,
    _ordered_eigh,
    joint_diagonalize,
    order_by_pseudo_eigenvalues,
)
from .series import LagSet, MultiSeries, standardized_autocovs

#: Lag sets used throughout the experiments.
LAG_PRESETS = {
    "amuse": (1,),
    "sobi6": tuple(range(1, 7)),
    "sobi12": tuple(range(1, 13)),
}


@dataclass(frozen=True)
class UnmixingResult:
    gamma: np.ndarray  # p x p unmixing matrix U^T S0^{-1/2}
    U: np.ndarray  # orthogonal rotation, columns ordered signal-first
    H: np.ndarray  # k x p x p ndarray stack (k = |lags|) of whitened autocovariances
    lags: LagSet
    pseudo_sums: np.ndarray  # per-column order key, non-increasing, length p
    method: str  # "amuse" | "sobi"
    converged: bool
    n_obs: int
    mean: np.ndarray  # column means used for centering

    @property
    def p(self) -> int:
        return self.gamma.shape[0]


def amuse(x: MultiSeries, tau: int = 1) -> UnmixingResult:
    """Unmixing from the generalized eigendecomposition of (S0, R_tau)."""
    lags = LagSet((tau,))
    m, h = standardized_autocovs(x, lags)
    d, u = _ordered_eigh(h[0])
    return UnmixingResult(
        gamma=u.T @ m,
        U=u,
        H=h,
        lags=lags,
        pseudo_sums=d**2,
        method="amuse",
        converged=True,
        n_obs=x.T,
        mean=x.values.mean(axis=0),
    )


def sobi(
    x: MultiSeries,
    lags,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> UnmixingResult:
    """Unmixing from orthogonal approximate joint diagonalization.

    Components are ordered by their summed squared pseudo-eigenvalues,
    which are the pseudo_sums. The white-noise tests do not use this
    rotation; they run on to_energy_basis of the fit.
    """
    if not isinstance(lags, LagSet):
        lags = LagSet(tuple(lags))
    m, h = standardized_autocovs(x, lags)
    jd = order_by_pseudo_eigenvalues(joint_diagonalize(h, tol, max_sweeps), lags)
    return UnmixingResult(
        gamma=jd.U.T @ m,
        U=jd.U,
        H=h,
        lags=lags,
        pseudo_sums=(jd.diag_profiles**2).sum(axis=0),
        method="sobi",
        converged=jd.converged,
        n_obs=x.T,
        mean=x.values.mean(axis=0),
    )


def _energy_fit(m, h: np.ndarray, lags: LagSet, n_obs: int,
                mean) -> UnmixingResult:
    energy, u = _ordered_eigh((h @ h).sum(axis=0))
    return UnmixingResult(
        gamma=u.T @ m,
        U=u,
        H=h,
        lags=lags,
        pseudo_sums=energy,
        method="sobi",
        converged=True,
        n_obs=n_obs,
        mean=mean,
    )


def to_energy_basis(fit: UnmixingResult) -> UnmixingResult:
    """The fit rotated onto its energy basis, where the white-noise tests run.

    The energy basis is the eigenbasis of sum_tau H_tau^2 in decreasing
    order of eigenvalue. The eigenvalue of a column u is its total lagged
    autocorrelation energy sum_tau ||H_tau u||^2 and becomes its pseudo_sum,
    and every trailing block W = U[:, q:] minimises sum_tau ||H_tau W||^2,
    an upper bound on the white-noise statistic at q. SOBI's joint
    diagonalizer has no such property: inside a block of white noise it
    turns U towards the directions in which the sampled noise looks most
    autocorrelated, so tests of q above the true signal count, run on its
    trailing columns, reject far too often.

    An AMUSE fit is returned as is, since the eigenvectors of its single
    H_tau ordered by squared eigenvalue already are this basis. Otherwise
    the rotation replaces the diagonalizer's and does not depend on it, so
    the result reports converged. The basis does not separate sources of
    equal total energy; estimate sources with sobi.
    """
    if fit.method == "amuse":
        return fit
    return _energy_fit(fit.U @ fit.gamma, fit.H, fit.lags, fit.n_obs, fit.mean)


def energy_unmix(x: MultiSeries, lags, method: str) -> UnmixingResult:
    """to_energy_basis(unmix(x, lags, method)), without SOBI's joint
    diagonalization, whose rotation to_energy_basis would discard."""
    if method != "sobi":
        return unmix(x, lags, method)
    lags = LagSet(tuple(lags))
    m, h = standardized_autocovs(x, lags)
    return _energy_fit(m, h, lags, x.T, x.values.mean(axis=0))


def unmix(x: MultiSeries, lags, method: str, **kwargs) -> UnmixingResult:
    """Dispatch to amuse (singleton lag set) or sobi."""
    if not isinstance(lags, LagSet):
        lags = LagSet(tuple(lags))
    if method == "amuse":
        if len(lags) != 1:
            raise InvalidInputError("amuse requires exactly one lag")
        return amuse(x, lags.lags[0])
    if method == "sobi":
        return sobi(x, lags, **kwargs)
    raise InvalidInputError(f"unknown method: {method!r}")


def estimated_sources(x: MultiSeries, r: UnmixingResult) -> MultiSeries:
    """Recovered sources z_t = Gamma (x_t - xbar), signal components first."""
    if x.p != r.p:
        raise InvalidInputError(
            f"series dimension {x.p} does not match unmixing dimension {r.p}"
        )
    xc = x.values - x.values.mean(axis=0)
    return MultiSeries(xc @ r.gamma.T)


def match_components(a: np.ndarray, b: np.ndarray):
    """Greedy signed-permutation match of the columns of two source arrays.

    Pairs columns by maximal absolute correlation and returns
    (permutation, signs, correlations) such that b[:, perm] * signs
    best matches a column-wise. Quotients out the sign/permutation
    unidentifiability of unmixing estimates.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    pa = a.shape[1]
    corr = np.corrcoef(a, b, rowvar=False)[:pa, pa:]
    perm = np.full(pa, -1, dtype=int)
    signs = np.ones(pa)
    best = np.zeros(pa)
    taken = set()
    pairs = sorted(
        ((i, j) for i in range(pa) for j in range(corr.shape[1])),
        key=lambda ij: -abs(corr[ij]),
    )
    for i, j in pairs:
        if perm[i] >= 0 or j in taken:
            continue
        perm[i] = j
        taken.add(j)
        best[i] = abs(corr[i, j])
        signs[i] = 1.0 if corr[i, j] >= 0 else -1.0
    return perm, signs, best
