"""AMUSE and SOBI unmixing estimators, and the energy basis the tests use.

Both produce an unmixing matrix Gamma = U^T S0^{-1/2} whose rows are
ordered signal-first by the summed squared pseudo-eigenvalues, so the
trailing components are the white-noise candidates.

The white-noise subspace tests read only a fit's stack H of whitened
autocovariances and take it on its energy basis: the eigenbasis of
sum_tau H_tau^2, ordered by total lagged autocorrelation energy. One
function computes that basis (_energy_basis), and energy_unmix is the one
fit on it. At a single lag it is AMUSE's own U, and amuse is energy_unmix
at one lag. With several lags it differs from SOBI's U, which stays the
estimator of the sources.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .jointdiag import _ordered_eigh, joint_diagonalize, order_by_pseudo_eigenvalues
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

    @property
    def p(self) -> int:
        return self.gamma.shape[0]


def _energy_basis(h: np.ndarray):
    """(energy, U): the energy basis of a whitened autocovariance stack,
    where the white-noise tests run.

    U holds the eigenvectors of sum_tau H_tau^2 in decreasing order of
    their eigenvalues, the energies. At a single lag they are taken from
    H_tau itself, ordered by squared eigenvalue, which is the same basis.

    The energy of a column u is sum_tau ||H_tau u||^2, and every trailing
    block W = U[:, q:] minimises sum_tau ||H_tau W||^2, an upper bound on
    the white-noise statistic at q. SOBI's rotation has no such property:
    inside a block of white noise it turns towards the directions in which
    the sampled noise looks most autocorrelated, so tests of q above the
    true signal count, run on its trailing columns, reject far too often.
    The basis does not separate sources of equal total energy; sobi does.
    A (..., k, p, p) batch of stacks gives a basis per stack.
    """
    if h.shape[-3] == 1:
        d, u = _ordered_eigh(h[..., 0, :, :])
        return d**2, u
    return _ordered_eigh((h @ h).sum(axis=-3))


def amuse(x: MultiSeries, tau: int = 1) -> UnmixingResult:
    """Unmixing from the generalized eigendecomposition of (S0, R_tau)."""
    return energy_unmix(x, (tau,), "amuse")


def sobi(x: MultiSeries, lags) -> UnmixingResult:
    """Unmixing from orthogonal approximate joint diagonalization.

    Components are ordered by their summed squared pseudo-eigenvalues,
    which are the pseudo_sums. The white-noise tests do not use this
    rotation; they run on the energy basis of the fit's H.
    """
    if not isinstance(lags, LagSet):
        lags = LagSet(tuple(lags))
    m, h = standardized_autocovs(x, lags)
    jd = order_by_pseudo_eigenvalues(joint_diagonalize(h))
    return UnmixingResult(
        gamma=jd.U.T @ m,
        U=jd.U,
        H=h,
        lags=lags,
        pseudo_sums=(jd.diag_profiles**2).sum(axis=0),
        method="sobi",
        converged=jd.converged,
    )


def _whitened(x: MultiSeries, lags, method: str):
    """(lags as a LagSet, whitener S0^{-1/2}, stack H) of x for a method,
    "amuse" with one lag or "sobi": what energy_unmix and the white-noise
    tests start from."""
    lags = LagSet(tuple(lags))
    if method not in ("amuse", "sobi"):
        raise InvalidInputError(f"unknown method: {method!r}")
    if method == "amuse" and len(lags) != 1:
        raise InvalidInputError("amuse requires exactly one lag")
    return (lags, *standardized_autocovs(x, lags))


def energy_unmix(x: MultiSeries, lags, method: str) -> UnmixingResult:
    """The fit of x on the energy basis of its stack (see _energy_basis).
    For "sobi" that basis replaces the joint diagonalizer's rotation, so
    the diagonalizer is not run and the fit reports converged."""
    lags, m, h = _whitened(x, lags, method)
    energy, u = _energy_basis(h)
    return UnmixingResult(
        gamma=u.T @ m,
        U=u,
        H=h,
        lags=lags,
        pseudo_sums=energy,
        method=method,
        converged=True,
    )


def unmix(x: MultiSeries, lags, method: str) -> UnmixingResult:
    """sobi for "sobi"; any other method goes to energy_unmix, which
    accepts "amuse" with exactly one lag and rejects everything else."""
    if method == "sobi":
        return sobi(x, lags)
    return energy_unmix(x, lags, method)


def estimated_sources(x: MultiSeries, r: UnmixingResult) -> MultiSeries:
    """Recovered sources z_t = Gamma (x_t - xbar), signal components first."""
    if x.p != r.p:
        raise InvalidInputError(
            f"series dimension {x.p} does not match unmixing dimension {r.p}"
        )
    xc = x.values - x.values.mean(axis=0)
    return MultiSeries(xc @ r.gamma.T)
