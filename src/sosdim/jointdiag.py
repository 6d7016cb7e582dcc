"""Ordered symmetric eigendecomposition and orthogonal approximate joint
diagonalization.

The joint diagonalizer is a Jacobi scheme in Brent-Luk round-robin order. A
round rotates p // 2 disjoint index pairs at once, each by the closed-form
angle maximizing the summed squared diagonals of its 2x2 restrictions of all
matrices; the rounds of a sweep cover every pair once. Convergence is
declared when the largest rotation angle of a sweep drops below tol.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError

DEFAULT_TOL = 1e-10
DEFAULT_MAX_SWEEPS = 100


@dataclass(frozen=True)
class JointDiagResult:
    """Rotation U and the diagonals of U^T H_tau U per lag."""

    U: np.ndarray
    diag_profiles: np.ndarray  # |lags| x p
    sweeps_used: int
    converged: bool
    final_off_criterion: float


def _fix_column_signs(u: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive, in a
    matrix or in each matrix of a stack."""
    peak = np.take_along_axis(u, np.abs(u).argmax(axis=-2)[..., None, :], axis=-2)
    return np.where(peak < 0, -u, u)


def _ordered_eigh(h: np.ndarray):
    """Eigenvalues and sign-fixed eigenvectors of a symmetric matrix, or of
    each matrix of a stack, ordered by decreasing squared eigenvalue (ties:
    larger eigenvalue first)."""
    w, v = np.linalg.eigh(h)
    order = np.lexsort((-w, -w**2), axis=-1)
    u = _fix_column_signs(np.take_along_axis(v, order[..., None, :], axis=-1))
    return np.take_along_axis(w, order, axis=-1), u


def _as_stack(h) -> np.ndarray:
    try:
        a = np.array(h, dtype=float)
    except ValueError:
        a = None
    if a is None or a.ndim != 3 or a.shape[0] == 0 or a.shape[1] != a.shape[2]:
        raise InvalidInputError("expected a nonempty set of same-size square matrices")
    if not np.isfinite(a).all():  # NaN angles would pass for convergence
        raise InvalidInputError("matrices must have finite entries")
    scale = np.maximum(np.abs(a).max(axis=(1, 2)), 1.0)
    asym = np.abs(a - a.transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-12 * scale
    if asym.any():
        raise InvalidInputError(f"matrix {int(np.argmax(asym))} is not symmetric")
    return a


def _round_robin(p: int) -> list:
    """Brent-Luk rounds for indices 0..p-1: (i, j) index arrays, i < j, whose
    pairs are disjoint within a round and cover every pair once in all."""
    m = p + p % 2  # an odd p pairs one index per round with the idle slot p
    order, rounds = list(range(m)), []
    for _ in range(m - 1):
        pairs = np.sort(list(zip(order, reversed(order)))[: m // 2], axis=1)
        rounds.append(pairs[pairs[:, 1] < p].T)
        order.insert(1, order.pop())
    return rounds


def joint_diagonalize(h, tol: float = DEFAULT_TOL,
                      max_sweeps: int = DEFAULT_MAX_SWEEPS) -> JointDiagResult:
    """Jointly diagonalize a set of symmetric matrices by an orthogonal U.

    h is a k x p x p stack or a list of p x p finite matrices, each symmetric
    to 1e-12 of its largest entry; other input raises InvalidInputError.

    Maximizes the summed squared diagonals of U^T H_tau U over orthogonal
    U. Non-convergence within max_sweeps is reported through the
    converged flag, not raised.
    """
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    if max_sweeps < 1:
        raise InvalidInputError("max_sweeps must be >= 1")
    a = original = _as_stack(h)
    p = a.shape[1]
    u = np.eye(p)
    rounds = _round_robin(p)
    for sweeps in range(1, max_sweeps + 1):
        max_angle = 0.0
        for i, j in rounds:
            d = a[:, i, i] - a[:, j, j]
            o = a[:, i, j] + a[:, j, i]
            ton, toff = (d * d - o * o).sum(axis=0), 2.0 * (d * o).sum(axis=0)
            theta = 0.5 * np.arctan2(toff, ton + np.hypot(ton, toff))
            max_angle = max(max_angle, float(np.abs(theta).max(initial=0.0)))
            g = np.eye(p)
            g[i, i] = g[j, j] = np.cos(theta)
            g[i, j], g[j, i] = -np.sin(theta), np.sin(theta)
            a = g.T @ a @ g
            u = u @ g
        converged = max_angle < tol
        if converged:
            break
    u = _fix_column_signs(u)
    # Recompute from the pristine inputs so the profiles are exact.
    rotated = np.einsum("mi,kmn,nj->kij", u, original, u)
    profiles = np.einsum("kii->ki", rotated).copy()
    off = float(np.sum(rotated**2) - np.sum(profiles**2))
    return JointDiagResult(u, profiles, sweeps, converged, max(off, 0.0))


def order_by_pseudo_eigenvalues(result: JointDiagResult) -> JointDiagResult:
    """Permute columns so the summed squared pseudo-eigenvalues decrease.

    Ties are broken by the squared diagonal at the first lag, then the
    second, and so on; remaining ties keep the original column order.
    """
    sq = result.diag_profiles**2
    # lexsort is stable and sorts by its last key first.
    perm = np.lexsort((*-sq[::-1], -sq.sum(axis=0)))
    return replace(result, U=result.U[:, perm],
                   diag_profiles=result.diag_profiles[:, perm])
