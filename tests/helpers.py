"""Helpers shared by the test modules."""

import numpy as np


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
