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

Every p-value comes from one core that works from the series, its lags,
its whitener S0^{-1/2} and its stack H, and returns numbers: _test_p for
one q, _estimate for a strategy's sequence of q. The public functions and
both kinds of simulation table call it; only the public functions build
TestResult and DimensionEstimate. All q come from the one stack
G_tau = W^T H_tau W of the full energy basis W: the noise block of q is
the trailing (p - q) x (p - q) block of every G_tau, so suffix sums of
sum_tau G_tau^2 give every statistic in one pass (_chi2_tests). Every
df is an integer, so each p-value is a finite sum of Poisson-like terms
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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bss import UnmixingResult, _energy_basis, _whitened
from .errors import InvalidInputError
from .series import LagSet, MultiSeries, _whiten


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
    monotone: bool  # False if divide-and-conquer hit a non-monotone trace


STRATEGIES = ("forward", "backward", "divide_and_conquer")


def _m_hat(h: np.ndarray, u: np.ndarray) -> np.ndarray:
    """m_hat for every q, from the stack G_tau = U^T H_tau U of the whitened
    autocovariance stack h on its energy basis u; a (..., k, p, p) batch of
    stacks and (..., p, p) of bases give (..., p)."""
    ub = u[..., None, :, :]
    g = ub.swapaxes(-1, -2) @ h @ ub
    sq = (((g + g.swapaxes(-1, -2)) / 2.0) ** 2).sum(axis=-3)
    # tail[..., q] sums sq over the trailing block [q:, q:].
    tail = (sq[..., ::-1, ::-1].cumsum(axis=-2).cumsum(axis=-1)
            .diagonal(0, -2, -1)[..., ::-1])
    k, p = h.shape[-3:-1]
    r = p - np.arange(p)
    return tail / (k * r * r)


_TINY = np.finfo(float).tiny


@lru_cache(maxsize=64)
def _chi2_terms(k: int, p: int):
    """(row, start, e, lg, erfc_at): every term of _chi2_sf for a k-lag
    stack of p series, in one flat array. Term i belongs to q = row[i], and
    the terms of q begin at start[q]. It is exp(e[i] log y - y - lg[i]),
    with e = j + a and lg = lgamma(j + a + 1) for j = 0, ..., df // 2 - 1,
    where a = 1/2 for odd df and 0 for even. An odd df's terms begin with a
    slot (j = -1) for erfc(sqrt(y)), so every q has a term; erfc_at holds
    the (index, q) of each slot. The arrays are read-only, because every
    call with (k, p) shares them."""
    r = p - np.arange(p)
    df = k * r * (r + 1) // 2
    count = (df + 1) // 2
    row = np.repeat(np.arange(p), count)
    start = np.cumsum(count) - count
    e = np.arange(len(row)) - (start + df % 2 / 2)[row]
    # m = 2 (e + 1) is an integer >= 1: one lgamma call per m, not per term.
    m = (2 * e + 2).astype(np.intp)
    lg = np.array([math.lgamma(v / 2) for v in range(1, m.max() + 1)])[m - 1]
    for a in (row, start, e, lg):
        a.setflags(write=False)
    slots = np.flatnonzero(e < 0)
    return row, start, e, lg, tuple(zip(slots.tolist(), row[slots].tolist()))


def _chi2_sf(stat: np.ndarray, k: int) -> np.ndarray:
    """Chi-square upper tail of stat[q] on df = k r (r + 1) / 2 degrees of
    freedom, r = p - q, for every q of a k-lag stack of p = len(stat) series.

    df is an integer, so the tail Q(df/2, y), y = stat/2, is a finite sum:
    of y^j e^-y / j! over j < df/2 for even df, and erfc(sqrt(y)) plus the
    sum of y^(j+1/2) e^-y / Gamma(j + 3/2) over j < (df - 1)/2 for odd df.
    Every term is exponentiated from log space on its own. Factoring out
    e^-y would underflow for y > 745, and a recurrence from the last term
    would start from 0 when y << df/2.
    """
    row, start, e, lg, erfc_at = _chi2_terms(k, len(stat))
    y = stat / 2.0
    # At y = 0 the term j = 0 would be exp(0 * -inf). At the smallest normal
    # double every other term is below the rounding of 1, as at y = 0.
    terms = np.exp(e * np.log(np.maximum(y, _TINY))[row] - lg - y[row])
    for i, q in erfc_at:
        terms[i] = math.erfc(math.sqrt(y[q]))
    # Rounding can carry a sum of terms near 1 past it by a few ulps.
    return np.minimum(np.add.reduceat(terms, start), 1.0)


def _chi2_tests(h: np.ndarray, T: int):
    """(u, m_hat, stat, df, p_value) of every q from the whitened stack h
    of a length-T series: u is its energy basis and the rest are arrays
    indexed by q. The one place the statistic is scaled to chi-square."""
    u = _energy_basis(h)[1]
    k, p = h.shape[:2]
    m_hat = _m_hat(h, u)
    r = p - np.arange(p)
    stat = T * k * r * r * m_hat
    df = k * r * (r + 1) // 2
    return u, m_hat, stat, df, _chi2_sf(stat, k)


def _result(tests, q: int, p_value, lags: LagSet, method: str) -> TestResult:
    """The TestResult of q from the _chi2_tests arrays, with p_value."""
    m_hat, stat, df = tests[1:4]
    return TestResult(q=q, r=len(m_hat) - q, m_hat=float(m_hat[q]),
                      scaled_stat=float(stat[q]), df=int(df[q]),
                      p_value=float(p_value), lags=lags, method=method)


def _bootstrap_sources(x: MultiSeries, w: np.ndarray, u: np.ndarray,
                       b_reps: int, seed) -> np.ndarray:
    """The centred sources (x - xbar) @ (w @ u) on the energy basis u of
    the stack whitened by w, which a bootstrap resamples, time-major as a
    C-contiguous p x T array. Fewer than one replicate or a negative seed
    (or seed word) is an input error."""
    if b_reps < 1:
        raise InvalidInputError("bootstrap replicate count must be >= 1")
    if seed is not None and np.any(np.asarray(seed, dtype=object) < 0):
        raise InvalidInputError(f"seed must be non-negative, got {seed!r}")
    return np.ascontiguousarray(((x.values - x.values.mean(axis=0)) @ (w @ u)).T)


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
    points of zt[q:], where zt holds the _bootstrap_sources. Replicate c
    resamples with child c of SeedSequence(seed), and the replicates are
    whitened in chunks of _chunk_reps, one kernel call each."""
    p, n = zt.shape
    children = np.random.SeedSequence(seed).spawn(b_reps)
    step = _chunk_reps(p, n, b_reps)
    count = 0
    for first in range(0, b_reps, step):
        idx = np.array([np.random.default_rng(child).integers(0, n, size=n)
                        for child in children[first:first + step]])
        chunk = np.empty((len(idx), p, n))
        chunk[:, :q] = zt[:q]
        chunk[:, q:] = np.take(zt[q:], idx, axis=1).swapaxes(0, 1)
        h = _whiten(chunk, lags)[1]
        count += int(np.count_nonzero(_m_hat(h, _energy_basis(h)[1])[:, q] >= m_hat))
    return (1 + count) / (b_reps + 1)


def _test_p(x: MultiSeries, lags: LagSet, w: np.ndarray, h: np.ndarray, q: int,
            test_kind: str, b_reps: int, seed):
    """(p-value of q, the _chi2_tests arrays of h), for the stack h of x
    whitened by w: asymptotic, or the bootstrap of b_reps replicates seeded
    by seed."""
    tests = _chi2_tests(h, x.T)
    if test_kind == "asymptotic":
        return tests[4][q], tests
    zt = _bootstrap_sources(x, w, tests[0], b_reps, seed)
    return _bootstrap_p(zt, lags, q, tests[1][q], b_reps, seed), tests


def _estimate(x: MultiSeries, lags: LagSet, w: np.ndarray, h: np.ndarray,
              alpha: float, strategy: str, test_kind: str, b_reps: int, seed):
    """(_select_dimension's (d_hat, {q: p}, monotone), the _chi2_tests arrays
    of h), as _test_p; the bootstrap of q is seeded by [seed folded into one
    word, q]."""
    tests = _chi2_tests(h, x.T)
    p_value = tests[4].__getitem__
    if test_kind == "bootstrap":
        zt = _bootstrap_sources(x, w, tests[0], b_reps, seed)
        word = _seed_int(seed)

        def p_value(q: int) -> float:
            return _bootstrap_p(zt, lags, q, tests[1][q], b_reps, [word, q])

    return _select_dimension(p_value, len(w), alpha, strategy), tests


def _check_q(q: int, p: int) -> int:
    q = int(q)
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


def _noise_test(x, lags, q, method, test_kind, b_reps=0, seed=None) -> TestResult:
    lags, w, h = _whitened(x, lags, method)
    q = _check_q(q, x.p)
    p_value, tests = _test_p(x, lags, w, h, q, test_kind, b_reps, seed)
    return _result(tests, q, p_value, lags, method)


def noise_test(x: MultiSeries, lags, q: int, method: str = "sobi") -> TestResult:
    """Asymptotic chi-square test of the null "p - q trailing sources are noise"."""
    return _noise_test(x, lags, q, method, "asymptotic")


def bootstrap_noise_test(
    x: MultiSeries,
    lags,
    q: int,
    method: str = "sobi",
    b_reps: int = 200,
    seed=0,
) -> TestResult:
    """Nonparametric bootstrap test: the trailing p - q sources on the
    energy basis are resampled jointly over time with replacement, and the
    statistic is recomputed per replicate.

    p-value uses the (1 + count) / (B + 1) convention.
    """
    return _noise_test(x, lags, q, method, "bootstrap", b_reps, seed)


def _check_test_args(alpha: float, test_kind: str, b_reps: int) -> None:
    """Reject an alpha outside (0, 1), an unknown test kind and a bootstrap
    of fewer than one replicate."""
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError(f"alpha must be in (0, 1), got {alpha}")
    if test_kind not in ("asymptotic", "bootstrap"):
        raise InvalidInputError(f"unknown test kind: {test_kind!r}")
    if test_kind == "bootstrap" and b_reps < 1:
        raise InvalidInputError("bootstrap replicate count must be >= 1")


def _is_monotone(p_values: dict, alpha: float) -> bool:
    """True if, sorted by q, rejections form a prefix and acceptances a suffix."""
    seen_accept = False
    for q in sorted(p_values):
        if p_values[q] >= alpha:
            seen_accept = True
        elif seen_accept:
            return False
    return True


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
    divide_and_conquer: binary search for the change point, assuming the
    rejection pattern is monotone in q; a violated pattern falls back to
    the forward rule over the evaluated trace.
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
    _check_test_args(alpha, test_kind, b_reps)
    if strategy not in STRATEGIES:
        raise InvalidInputError(f"unknown strategy: {strategy!r}")
    if len(w) != x.p:
        raise InvalidInputError("fit and series dimensions disagree")
    (d_hat, seen, monotone), tests = _estimate(
        x, lags, w, h, alpha, strategy, test_kind, b_reps, seed)
    trace = tuple(_result(tests, q, p, lags, method) for q, p in seen.items())
    return DimensionEstimate(d_hat=d_hat, strategy=strategy, alpha=alpha,
                             trace=trace, method=method, lags=lags,
                             monotone=monotone)


def _select_dimension(p_value, p: int, alpha: float, strategy: str):
    """Apply a strategy to the p-values p_value(q) of q = 0, ..., p - 1.

    p_value is called at most once per q, only for the q the strategy
    evaluates. Returns (d_hat, {q: p-value} in evaluation order, monotone).
    """
    seen = {}

    def accepted(q: int) -> bool:
        if q not in seen:
            seen[q] = p_value(q)
        return seen[q] >= alpha

    monotone = True
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
        lo, hi = 0, p
        while lo < hi:
            mid = (lo + hi) // 2
            if accepted(mid):
                hi = mid
            else:
                lo = mid + 1
        d_hat = lo
        if not _is_monotone(seen, alpha):
            monotone = False
            d_hat = min((q for q, pv in seen.items() if pv >= alpha), default=p)
    return d_hat, seen, monotone


def _seed_int(seed) -> int:
    if seed is None:
        return 0
    if isinstance(seed, (list, tuple)):
        # Fold a composite seed into one entropy word.
        return int(np.random.SeedSequence(list(seed)).generate_state(1)[0])
    return int(seed)


#: Stable JSON report schema for dimension estimates.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["method", "lags", "alpha", "strategy", "d_hat", "trace"],
    "properties": {
        "method": {"type": "string", "enum": ["amuse", "sobi"]},
        "lags": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "strategy": {"type": "string", "enum": list(STRATEGIES)},
        "d_hat": {"type": "integer", "minimum": 0},
        "trace": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["q", "stat", "df", "p_value", "converged"],
                "properties": {
                    "q": {"type": "integer", "minimum": 0},
                    "stat": {"type": "number", "minimum": 0},
                    "df": {"type": "integer", "minimum": 1},
                    "p_value": {"type": "number", "minimum": 0, "maximum": 1},
                    "converged": {"type": "boolean"},
                },
            },
        },
    },
}

#: Stable JSON report schema for a single test.
TEST_SCHEMA = {
    "type": "object",
    "required": ["method", "lags", "q", "stat", "df", "p_value", "converged"],
    "properties": {
        "method": {"type": "string", "enum": ["amuse", "sobi"]},
        "lags": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "q": {"type": "integer", "minimum": 0},
        "stat": {"type": "number", "minimum": 0},
        "df": {"type": "integer", "minimum": 1},
        "p_value": {"type": "number", "minimum": 0, "maximum": 1},
        "converged": {"type": "boolean"},
    },
}


def _test_entry(ts: TestResult) -> dict:
    return {
        "q": ts.q,
        "stat": ts.scaled_stat,
        "df": ts.df,
        "p_value": ts.p_value,
        # The schemas require the key. No iterative step decides the
        # tested basis (see all_q_tests), so every test has converged.
        "converged": True,
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
