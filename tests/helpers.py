"""Helpers shared by the test modules."""

import os

import numpy as np

from sosdim import series


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


def _exit_at_once(*args):
    """A worker that claims no task."""


def record_workers(monkeypatch, mode="queue"):
    """Record the worker processes series._run_tasks starts, in the list
    returned, and pick who runs the tasks: with mode "queue" whoever claims
    a task first, as in a real run; with "all" the workers every task after
    the first, which the calling process claims before it starts them; with
    "none" the calling process every task, as every worker exits at once."""
    context, claim, caller = series._context(), series._claim, os.getpid()
    started = []

    class Context:
        def __getattr__(self, name):
            return getattr(context, name)

        def Process(self, target, args, daemon):
            started.append(context.Process(
                target=_exit_at_once if mode == "none" else target, args=args,
                daemon=daemon))
            return started[-1]

    claimed = []  # the shared state of each run in which the caller claimed

    def caller_claims_once(state, n):
        if os.getpid() != caller:
            return claim(state, n)
        if any(s is state for s in claimed):
            return None
        claimed.append(state)
        return claim(state, n)

    monkeypatch.setattr(series, "_context", Context)
    if mode == "all":
        monkeypatch.setattr(series, "_claim", caller_claims_once)
    return started
