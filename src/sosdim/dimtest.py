"""White-noise subspace tests and sequential dimension estimation.

The statistic for the hypothesis "the last p - q sources are white noise"
is the mean squared element of the noise blocks W_q^T H_tau W_q over the
lag set. Scaled by T * |lags| * (p - q)^2 it is asymptotically chi-square
with |lags| * (p - q) * (p - q + 1) / 2 degrees of freedom.

W_q holds the trailing p - q columns of the energy basis of the whitened
autocovariance stack H (see bss._energy_basis), which orders components
by total lagged autocorrelation energy. For AMUSE that is AMUSE's own
rotation. For SOBI it is not the joint diagonalizer's rotation, which
adapts to a block of white noise and would make every q above the true
signal count reject too often; the tests therefore never run the
diagonalizer.

Every statistic and asymptotic p-value comes from one core, _chi2_tests,
which works from a stack H, or from a batch of stacks, and returns
numbers. _p_values turns its arrays, with the series, its lags and its
whitener S0^{-1/2}, into a function of q that gives the p-value of q,
asymptotic or bootstrap. The public functions and both kinds of
simulation table call them, and check their arguments once, in
_check_test_args; only the public functions build TestResult and
DimensionEstimate. All q come from the one stack G_tau = W^T H_tau W of
the full energy basis W: the noise block of q is the trailing
(p - q) x (p - q) block of every G_tau, so suffix sums of
sum_tau G_tau^2 give every statistic in one pass. Every df is an
integer, so each p-value is a finite sum of Poisson-like terms
(_chi2_sf), with erfc for odd df, and needs no special-function library.
A bootstrap replicate resamples the trailing columns of the sources
(x - xbar) S0^{-1/2} W and needs only its own stack: whitening removes any
mixing up to a rotation, and the replicate's own energy basis removes the
rotation. The replicates run in memory-bounded batches: each chunk is one
time-major (b, p, T) array through the whitening kernel, the energy basis
and _m_hat, which all take leading batch axes. A chunk's numbers are those
of its replicates run one at a time, so the p-value does not depend on the
chunk size.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .bss import UnmixingResult, _energy_basis, _whitened
from .errors import InvalidInputError
from .series import (LagSet, MultiSeries, _as_int, _generators, _symmetrized,
                     _whiten)


@dataclass(frozen=True)
class TestResult:
    q: int
    r: int
    m_hat: float
    scaled_stat: float
    df: int
    p_value: float
    lags: LagSet
    method: str


@dataclass(frozen=True)
class DimensionEstimate:
    d_hat: int
    strategy: str
    alpha: float
    trace: tuple  # TestResult, in evaluation order
    method: str
    lags: LagSet


STRATEGIES = ("forward", "backward", "divide_and_conquer")


def _m_hat(h: np.ndarray, u: np.ndarray) -> np.ndarray:
    """m_hat for every q, from the stack G_tau = U^T H_tau U of the whitened
    autocovariance stack h on its energy basis u; a (..., k, p, p) batch of
    stacks and (..., p, p) of bases give (..., p)."""
    ub = u[..., None, :, :]
    sq = (_symmetrized(ub.swapaxes(-1, -2) @ h @ ub) ** 2).sum(axis=-3)
    # tail[..., q] sums sq over the trailing block [q:, q:].
    tail = (sq[..., ::-1, ::-1].cumsum(axis=-2).cumsum(axis=-1)
            .diagonal(0, -2, -1)[..., ::-1])
    k, p = h.shape[-3:-1]
    r = p - np.arange(p)
    return tail / (k * r * r)


_TINY = np.finfo(float).tiny
_erfc = np.vectorize(math.erfc, otypes=[float])


@lru_cache(maxsize=None)
def _tail_terms(a: float, size: int):
    """(e, lg): e = j - a and lg = lgamma(e + 1) for j = 1, ..., size, the
    terms after the first of _chi2_sf at a df of parity 2a. _chi2_sf asks
    for powers of two, so a few tables serve every df."""
    e = np.arange(1, size + 1) - a
    return e, np.array([math.lgamma(v + 1) for v in e.tolist()])


def _chi2_sf(stat: np.ndarray, df: np.ndarray) -> np.ndarray:
    """Chi-square upper tail of stat[..., q] on df[q] degrees of freedom;
    stat is (..., p), with any leading batch axes.

    df is an integer, so the tail Q(df/2, y), y = stat/2, is a finite sum:
    of y^j e^-y / j! over j < df/2 for even df, and erfc(sqrt(y)) plus the
    sum of y^(j+1/2) e^-y / Gamma(j + 3/2) over j < (df - 1)/2 for odd df.
    Every term after the first is exponentiated from log space on its own.
    Factoring out e^-y would underflow for y > 745, and a recurrence from the
    last term would start from 0 when y << df/2.
    """
    y = stat / 2.0
    # log(0) would warn. At the smallest normal double every term after the
    # first is below the rounding of 1, as at y = 0.
    log_y = np.log(np.maximum(y, _TINY))
    out = np.exp(-y)
    odd = df % 2 == 1
    out[..., odd] = _erfc(np.sqrt(y[..., odd]))
    size = 1 << (int(df.max()) // 2).bit_length()
    for q, n in enumerate(df.tolist()):
        count = (n + 1) // 2 - 1
        e, lg = _tail_terms(n % 2 / 2, size)
        out[..., q] += np.exp(e[:count] * log_y[..., q, None] - lg[:count]
                              - y[..., q, None]).sum(axis=-1)
    # Rounding can carry a sum of terms near 1 past it by a few ulps.
    return np.minimum(out, 1.0)


def _chi2_tests(h: np.ndarray, T: int):
    """(u, m_hat, stat, df, p_value) of every q from the whitened stack h
    of a length-T series: u is its energy basis and the rest are arrays
    indexed by q. A (..., k, p, p) batch of stacks of length-T series gives
    every array the batch's leading axes, so zip(*tests) yields each
    stack's own tests. The one place the statistic is scaled to
    chi-square."""
    u = _energy_basis(h)[1]
    k, p = h.shape[-3:-1]
    m_hat = _m_hat(h, u)
    r = p - np.arange(p)
    stat = T * k * r * r * m_hat
    df = k * r * (r + 1) // 2
    return u, m_hat, stat, np.broadcast_to(df, stat.shape), _chi2_sf(stat, df)


def _result(tests, q: int, p_value, lags: LagSet, method: str) -> TestResult:
    """The TestResult of q from the _chi2_tests arrays, with p_value."""
    m_hat, stat, df = tests[1:4]
    return TestResult(q=q, r=len(m_hat) - q, m_hat=float(m_hat[q]),
                      scaled_stat=float(stat[q]), df=int(df[q]),
                      p_value=float(p_value), lags=lags, method=method)


#: Bytes of resampled series a bootstrap whitens in one kernel call. A
#: larger chunk pays the per-call cost of the small-matrix steps fewer
#: times, but the chunk and its centred copy are fresh memory in every call
#: and stop fitting in cache. On a 2-core KVM guest (1 MiB L2 a core) the
#: benchmark's D1 bootstrap job (T = 2000, p = 10, B = 25) took about
#: 20.7 ms with 1 MiB chunks and 21.8 ms with 2 MiB.
_CHUNK_BYTES = 1 << 20


def _chunk_reps(p: int, T: int, b_reps: int) -> int:
    """Replicates per kernel call: as many of b_reps as fit, as p x T
    float64 series, in _CHUNK_BYTES, and at least one."""
    return max(1, min(b_reps, _CHUNK_BYTES // (8 * p * T)))


def _bootstrap_p(zt: np.ndarray, lags: LagSet, q: int, m_hat: float,
                 b_reps: int, seed) -> float:
    """Bootstrap p-value of the observed m_hat of q, resampling the time
    points of zt[q:], where zt holds the sources (see _p_values). Replicate
    c resamples with the Generator of child c of SeedSequence(seed), which
    is SeedSequence(entropy, spawn_key=(c,)) of its entropy (fresh for
    seed=None); series._generators seeds all b_reps children in one pass.
    The replicates are whitened in chunks of _chunk_reps, one kernel call
    each."""
    p, n = zt.shape
    entropy = np.random.SeedSequence(seed).entropy
    rngs = _generators([entropy], [(c,) for c in range(b_reps)])
    step = _chunk_reps(p, n, b_reps)
    count = 0
    for first in range(0, b_reps, step):
        idx = np.array([rng.integers(0, n, size=n)
                        for rng in islice(rngs, min(step, b_reps - first))])
        chunk = np.empty((len(idx), p, n))
        chunk[:, :q] = zt[:q]
        chunk[:, q:] = np.take(zt[q:], idx, axis=1).swapaxes(0, 1)
        h = _whiten(chunk, lags)[1]
        count += int(np.count_nonzero(_m_hat(h, _energy_basis(h)[1])[:, q] >= m_hat))
    return (1 + count) / (b_reps + 1)


def _p_values(x: np.ndarray, lags: LagSet, w: np.ndarray, tests,
              test_kind: str, b_reps: int, seed_of):
    """p_value(q) from the _chi2_tests arrays of the stack of the T x p
    values x whitened by w: the asymptotic p-value of q, or its bootstrap
    of b_reps replicates seeded by seed_of(q). The bootstrap resamples the
    centred sources (x - xbar) @ (w @ u) on the energy basis u, time-major
    as a C-contiguous p x T array. The arguments are not checked."""
    if test_kind == "asymptotic":
        return tests[4].__getitem__
    zt = np.ascontiguousarray(((x - x.mean(axis=0)) @ (w @ tests[0])).T)

    def p_value(q: int) -> float:
        return _bootstrap_p(zt, lags, q, tests[1][q], b_reps, seed_of(q))

    return p_value


def _estimate(x: np.ndarray, lags: LagSet, w: np.ndarray, tests,
              alpha: float, strategy: str, test_kind: str, b_reps: int, seed):
    """_select_dimension's (d_hat, {q: p}) on the p-values of _p_values.
    The bootstrap of q is seeded by [word, q]: word is an integer seed as
    it is, and any other seed (a sequence, or None for fresh entropy)
    folded into one word by SeedSequence."""
    word = seed
    if test_kind == "bootstrap" and not isinstance(seed, (int, np.integer)):
        word = int(np.random.SeedSequence(seed).generate_state(1)[0])
    p_value = _p_values(x, lags, w, tests, test_kind, b_reps, lambda q: [word, q])
    return _select_dimension(p_value, len(w), alpha, strategy)


def _check_q(q: int, p: int) -> int:
    q = _as_int(q, "q")
    if not 0 <= q <= p - 1:
        raise InvalidInputError(f"q must be in [0, {p - 1}], got {q}")
    return q


def all_q_tests(fit: UnmixingResult, T: int) -> tuple:
    """Asymptotic tests of every q = 0, ..., p - 1, indexed by q.

    Every statistic is a trailing block of the fit's stack H on its energy
    basis, so the tests read H alone: a SOBI fit and energy_unmix of the
    same data give the same tests.
    """
    tests = _chi2_tests(fit.H, T)
    return tuple(_result(tests, q, tests[4][q], fit.lags, fit.method)
                 for q in range(fit.p))


def test_statistic(fit: UnmixingResult, q: int, T: int) -> TestResult:
    """The asymptotic test of q on the fit's energy basis: all_q_tests(fit, T)[q]."""
    q = _check_q(q, fit.p)
    return all_q_tests(fit, T)[q]


def noise_test(
    x: MultiSeries,
    lags,
    q: int,
    method: str = "sobi",
    test_kind: str = "asymptotic",
    b_reps: int = 200,
    seed=0,
) -> TestResult:
    """Test of the null "the p - q trailing sources are noise".

    asymptotic: the chi-square limit of the scaled statistic.
    bootstrap: the trailing p - q sources on the energy basis are resampled
    jointly over time with replacement, and the statistic is recomputed per
    replicate; b_reps replicates seeded by seed. The p-value uses the
    (1 + count) / (B + 1) convention. seed=None draws fresh entropy, as
    numpy does.
    """
    _check_test_args(test_kind, b_reps, seed)
    lags, w, h = _whitened(x, lags, method)
    q = _check_q(q, x.p)
    tests = _chi2_tests(h, x.T)
    p_value = _p_values(x.values, lags, w, tests, test_kind, b_reps,
                        lambda _: seed)
    return _result(tests, q, p_value(q), lags, method)


def _check_test_args(test_kind: str, b_reps: int, seed, alpha: float = 0.05,
                     strategy: str = STRATEGIES[-1], table: bool = False) -> None:
    """Reject an alpha that is not a number in (0, 1), an unknown test kind
    or strategy (a single test has neither: the defaults pass), a bootstrap
    replicate count that is not an integer >= 1, and a seed that is not
    None, an integer >= 0 or a 1-D sequence of them (a bootstrap's) or not
    an integer >= 0 (a table's master seed, which seeds every draw)."""
    if not isinstance(alpha, numbers.Real):
        raise InvalidInputError(f"alpha must be a number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError(f"alpha must be in (0, 1), got {alpha}")
    if test_kind not in ("asymptotic", "bootstrap"):
        raise InvalidInputError(f"unknown test kind: {test_kind!r}")
    if test_kind == "bootstrap" and not isinstance(b_reps, (int, np.integer)):
        raise InvalidInputError(f"bootstrap replicate count must be an integer, got {b_reps!r}")
    if test_kind == "bootstrap" and b_reps < 1:
        raise InvalidInputError("bootstrap replicate count must be >= 1")
    if strategy not in STRATEGIES:
        raise InvalidInputError(f"unknown strategy: {strategy!r}")
    if table or test_kind == "bootstrap" and seed is not None:
        words = np.asarray(seed, dtype=object)
        if words.ndim > (0 if table else 1) or not all(
                isinstance(v, (int, np.integer)) for v in words.flat):
            what = "an integer" if table else "None, an integer or a 1-D sequence of them"
            raise InvalidInputError(f"seed must be {what}, got {seed!r}")
        if any(v < 0 for v in words.flat):
            raise InvalidInputError(f"seed must be non-negative, got {seed!r}")


def estimate_dimension(
    x: MultiSeries,
    lags,
    alpha: float = 0.05,
    strategy: str = "divide_and_conquer",
    method: str = "sobi",
    test_kind: str = "asymptotic",
    b_reps: int = 200,
    seed=0,
) -> DimensionEstimate:
    """Sequence the subspace tests into a single dimension estimate.

    forward: smallest q with p_q >= alpha (p if none).
    backward: q + 1 for the largest q with p_q < alpha (0 if none).
    divide_and_conquer: binary search for the change point in about
    log2(p) tests; its trace sorted by q is always rejections then
    acceptances. A bootstrap with seed=None draws fresh entropy, as numpy does.
    """
    lags, w, h = _whitened(x, lags, method)
    return _dimension_estimate(x, lags, w, h, method, alpha, strategy,
                               test_kind, b_reps, seed)


def estimate_dimension_from_fit(
    x: MultiSeries,
    fit: UnmixingResult,
    alpha: float = 0.05,
    strategy: str = "divide_and_conquer",
    test_kind: str = "asymptotic",
    b_reps: int = 200,
    seed=0,
) -> DimensionEstimate:
    """estimate_dimension on a precomputed unmixing fit.

    Lets several strategies share one fit of the same data instead of
    re-estimating the unmixing per call. The tests read only the fit's H
    and its whitener U @ gamma = S0^{-1/2} (gamma = U^T S0^{-1/2} for
    every fit), so a SOBI fit gives the same estimate as
    estimate_dimension.
    """
    return _dimension_estimate(x, fit.lags, fit.U @ fit.gamma, fit.H, fit.method,
                               alpha, strategy, test_kind, b_reps, seed)


def _dimension_estimate(x, lags, w, h, method, alpha, strategy, test_kind,
                        b_reps, seed) -> DimensionEstimate:
    _check_test_args(test_kind, b_reps, seed, alpha, strategy)
    if len(w) != x.p:
        raise InvalidInputError("fit and series dimensions disagree")
    tests = _chi2_tests(h, x.T)
    d_hat, seen = _estimate(x.values, lags, w, tests, alpha, strategy,
                            test_kind, b_reps, seed)
    trace = tuple(_result(tests, q, p, lags, method) for q, p in seen.items())
    return DimensionEstimate(d_hat=d_hat, strategy=strategy, alpha=alpha,
                             trace=trace, method=method, lags=lags)


def _select_dimension(p_value, p: int, alpha: float, strategy: str):
    """Apply a strategy to the p-values p_value(q) of q = 0, ..., p - 1.

    p_value is called once for each q the strategy evaluates: no strategy
    evaluates a q twice. Returns (d_hat, {q: p-value} in evaluation order).
    """
    seen = {}

    def accepted(q: int) -> bool:
        seen[q] = p_value(q)
        return seen[q] >= alpha

    if strategy == "forward":
        d_hat = p
        for q in range(p):
            if accepted(q):
                d_hat = q
                break
    elif strategy == "backward":
        d_hat = 0
        for q in range(p - 1, -1, -1):
            if not accepted(q):
                d_hat = q + 1
                break
    else:
        # Every rejected q stays below lo and every accepted q at or above hi.
        lo, hi = 0, p
        while lo < hi:
            mid = (lo + hi) // 2
            if accepted(mid):
                hi = mid
            else:
                lo = mid + 1
        d_hat = lo
    return d_hat, seen


#: Schemas of the fit fields of every report and of one _test_entry.
_FIT_FIELDS = {
    "method": {"type": "string", "enum": ["amuse", "sobi"]},
    "lags": {"type": "array", "items": {"type": "integer", "minimum": 1}},
}
_ENTRY_FIELDS = {
    "q": {"type": "integer", "minimum": 0},
    "stat": {"type": "number", "minimum": 0},
    "df": {"type": "integer", "minimum": 1},
    "p_value": {"type": "number", "minimum": 0, "maximum": 1},
}

#: Stable JSON report schema for dimension estimates.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["method", "lags", "alpha", "strategy", "d_hat", "trace"],
    "properties": {
        **_FIT_FIELDS,
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "strategy": {"type": "string", "enum": list(STRATEGIES)},
        "d_hat": {"type": "integer", "minimum": 0},
        "trace": {
            "type": "array",
            "items": {"type": "object", "required": list(_ENTRY_FIELDS),
                      "properties": _ENTRY_FIELDS},
        },
    },
}

#: Stable JSON report schema for a single test.
TEST_SCHEMA = {
    "type": "object",
    "required": [*_FIT_FIELDS, *_ENTRY_FIELDS],
    "properties": {**_FIT_FIELDS, **_ENTRY_FIELDS},
}


def _test_entry(ts: TestResult) -> dict:
    return {
        "q": ts.q,
        "stat": ts.scaled_stat,
        "df": ts.df,
        "p_value": ts.p_value,
    }


def test_report(ts: TestResult) -> dict:
    return {"method": ts.method, "lags": list(ts.lags), **_test_entry(ts)}


def dimension_report(est: DimensionEstimate) -> dict:
    return {
        "method": est.method,
        "lags": list(est.lags),
        "alpha": est.alpha,
        "strategy": est.strategy,
        "d_hat": est.d_hat,
        "trace": [_test_entry(t) for t in est.trace],
    }
