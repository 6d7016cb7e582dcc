"""Latent-process generators, named settings and the Monte Carlo harness.

All randomness flows through numpy SeedSequence entropy lists, so a table
regenerated with the same master seed is bit-identical regardless of the
worker count: replicate (n, rep) always draws from entropy
[master_seed, n, rep], process j from the Generator
default_rng(SeedSequence([master_seed, n, rep], spawn_key=(j,))) and the
mixing from child p. series._generators computes the states of every
child of a chunk in one pass, by SeedSequence's own mixing and PCG64's
seeding, and builds no SeedSequence or Generator per child.

The named settings (make_setting; presets holds the coefficients), signals
first, then noise, every process at unit variance. S5 is a synthetic
stand-in for the paper's 20-channel sound recording.

    name  signals                                   noise          mixing
    H1    MA(3), AR(2), ARMA(1,1)                   2 Gaussian     identity
    H2    MA(10), MA(15), MA(20), mostly even lags  2 Gaussian     identity
    H3    3 x MA(3)                                 2 Gaussian     identity
    D1    AR(2), AR(3), ARMA(1,1), ARMA(3,2), MA(3) 5 Gaussian     identity
    D2    D1's first four, weak MA(1)               5 Gaussian     identity
    D3    5 x weak MA(2)                            5 Gaussian     identity
    S5    H1's three                                17 t(5)        uniform [0, 1]

A table runs in tasks of one sample size n and a chunk of consecutive
replicates. A task draws its chunk in one batch (_draw: one seeding pass,
one filter call per process, written into that process's contiguous
rows of one time-major b x p x n array, and one mixing product for the
whole chunk; simulate_setting and generate are the batch of one),
whitens it in one kernel call into the stacks of the union of the
methods' lags, and makes one batched _chi2_tests call per method on the
method's rows of those stacks. Under identity mixing the kernel reads
that time-major array as it is; S5's mixed draw is b x n x p, as its
mixing product gives it. So a replicate's whitener and stack agree with
standardized_autocovs on simulate_setting's draw (a C-contiguous T x p
series) to rounding, about 1e-15 relative, not bit for bit. A whitening
that fails names the chunk's setting, n and replicate. The whitening
uses the same S0^{-1/2} for every lag, so the rows hold exactly the
numbers a stack of the method's lags alone would. A chunk holds as many
replicates as fit, as n x p float64 series, in dimtest._CHUNK_BYTES, and
at most the table's replicates over its workers, so that every worker
has a task; series._run_tasks runs them on N workers, the calling
process and N - 1 worker processes, each of which claims the next task
from one shared counter when it is free, or all in the calling process
if it is daemonic. Every replicate's numbers are
those of the replicate drawn and tested on its own, and each chunk's
entries are placed by its task's index, so no table depends on the chunk
size, the worker count or which worker ran a chunk.
zip(*tests) splits a method's batched arrays into each replicate's own,
and every entry is computed from one replicate's draw, whitener and
tests, as the library computes one series': a rejection entry reads
dimtest._p_values(...)(q), as noise_test does, and a dimension entry
runs its strategy through dimtest._estimate, as estimate_dimension does.
The bootstrap evaluates only the q its table needs and seeds its
resampling from [master_seed, n, rep, 1] (rejection) or
[master_seed, n, rep, 2] (dimension), as noise_test and
estimate_dimension do given those seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice

import numpy as np
from scipy.signal import lfilter

from . import presets
from .bss import LAG_PRESETS
from .dimtest import (_check_q, _check_test_args, _chi2_tests, _chunk_reps,
                      _estimate, _p_values)
from .errors import (InvalidInputError, LagTooLargeError,
                     NearSingularCovarianceError)
from .series import (EIG_FLOOR_RATIO, LagSet, MultiSeries, _as_int, _check_finite,
                     _generators, _run_tasks, _whiten)

#: The condition number a uniform mixing Omega stays below (1e5), so that
#: the whitening floor admits every mixing drawn. S0's condition is about
#: cond(Omega)**2 times the sample covariance's own spread, and _inv_sqrt
#: refuses an eigenvalue ratio at or below EIG_FLOOR_RATIO, so the cap
#: leaves a factor of 100 for that spread. Of the 60,000 S5 mixings of
#: seeds 0-5 (n = 200 to 5000, 2,000 replicates each), 99 (0.165%) have
#: cond >= 1e5, and the 209 with cond in [3e4, 1e5) all whiten at
#: n = 30 to 200, with S0 eigenvalue ratios of at least 1.5e-11.
_MAX_MIX_CONDITION = EIG_FLOOR_RATIO ** -0.5 / 10
_PSI_TERMS = 4096


@dataclass(frozen=True)
class ProcessSpec:
    """Declarative recipe for one latent univariate process."""

    kind: str  # "ar" | "ma" | "arma" | "white"
    ar: tuple = ()
    ma: tuple = ()
    innovation: str = "gaussian"  # "gaussian" | "t"
    t_df: float = 5.0

    def __post_init__(self):
        object.__setattr__(self, "ar", tuple(float(a) for a in self.ar))
        object.__setattr__(self, "ma", tuple(float(b) for b in self.ma))
        if self.kind not in ("ar", "ma", "arma", "white"):
            raise InvalidInputError(f"unknown process kind: {self.kind!r}")
        if self.kind == "white" and (self.ar or self.ma):
            raise InvalidInputError("white noise takes no coefficients")
        if self.kind != "white" and not (self.ar or self.ma):
            raise InvalidInputError(f"{self.kind} process needs coefficients")
        if self.kind == "ar" and self.ma:
            raise InvalidInputError("ar process takes no ma coefficients")
        if self.kind == "ma" and self.ar:
            raise InvalidInputError("ma process takes no ar coefficients")
        if self.innovation not in ("gaussian", "t"):
            raise InvalidInputError(f"unknown innovation: {self.innovation!r}")
        if self.innovation == "t" and self.t_df <= 2:
            raise InvalidInputError("t innovations need df > 2 for finite variance")
        if self.ar:
            roots = np.roots([1.0] + [-a for a in self.ar])
            radius = np.abs(roots).max()
            if radius >= 1.0:
                raise InvalidInputError(
                    f"non-stationary AR part: companion spectral radius {radius:.4f}"
                )

    @property
    def order(self) -> int:
        return max(len(self.ar), len(self.ma))

    @property
    def is_noise(self) -> bool:
        return self.kind == "white"


def _arma_filter(spec: ProcessSpec, eps: np.ndarray) -> np.ndarray:
    """The ARMA recursion of spec run on the innovations eps."""
    return lfilter([1.0, *spec.ma], [1.0, *(-a for a in spec.ar)], eps)


def psi_weights(spec: ProcessSpec) -> np.ndarray:
    """The first _PSI_TERMS impulse-response (moving-average) weights."""
    impulse = np.zeros(_PSI_TERMS)
    impulse[0] = 1.0
    return _arma_filter(spec, impulse)


@lru_cache
def theoretical_variance(spec: ProcessSpec) -> float:
    """Process variance under unit innovation variance, computed once per
    spec."""
    psi = psi_weights(spec)
    return float(psi @ psi)


def theoretical_autocov(spec: ProcessSpec, lag: int) -> float:
    """Lag autocovariance of the process rescaled to unit variance."""
    psi = psi_weights(spec)
    g = float(psi[: len(psi) - lag] @ psi[lag:])
    return g / theoretical_variance(spec)


def _check_length(n: int) -> None:
    """Raise InvalidInputError unless the series length n is at least 1."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")


def generate(spec: ProcessSpec, n: int, seed) -> np.ndarray:
    """Simulate n samples by innovation recursion with burn-in, rescaled
    to unit theoretical variance."""
    _check_length(n)
    out = np.empty((1, n))
    _generate(spec, [np.random.default_rng(seed)], out)
    return out[0]


def _generate(spec: ProcessSpec, rngs, out: np.ndarray) -> None:
    """Write generate's b x n samples into out, a b x n array or view: row i
    draws its innovations from the i-th Generator of the iterable rngs,
    which must yield at least b, and one filter call runs every row."""
    burn = 1000 + 10 * spec.order
    total = out.shape[-1] + burn
    eps = np.empty((len(out), total))
    for row, rng in zip(eps, rngs):
        if spec.innovation == "gaussian":
            rng.standard_normal(out=row)
        else:
            row[:] = rng.standard_t(spec.t_df, size=total)
    if spec.innovation == "t":
        eps *= np.sqrt((spec.t_df - 2.0) / spec.t_df)
    if spec.kind == "white":
        out[...] = eps[:, burn:]
    else:
        np.divide(_arma_filter(spec, eps)[:, burn:],
                  np.sqrt(theoretical_variance(spec)), out=out)


@dataclass(frozen=True)
class SimSetting:
    """A named recipe: latent processes (signals then noise) plus mixing."""

    name: str
    processes: tuple
    mixing: str = "identity"  # "identity" | "uniform"

    def __post_init__(self):
        if self.mixing not in ("identity", "uniform"):
            raise InvalidInputError(f"unknown mixing: {self.mixing!r}")

    @property
    def p(self) -> int:
        return len(self.processes)

    @property
    def d(self) -> int:
        return sum(not s.is_noise for s in self.processes)


def _named_settings() -> dict:
    ps, white = ProcessSpec, ProcessSpec("white")
    ma3, ar2 = ps("ma", ma=presets.MA3), ps("ar", ar=presets.AR2)
    arma11 = ps("arma", ar=presets.ARMA11_AR, ma=presets.ARMA11_MA)
    h1_signals = (ma3, ar2, arma11)
    d_signals = (ar2, ps("ar", ar=presets.AR3), arma11,
                 ps("arma", ar=presets.ARMA32_AR, ma=presets.ARMA32_MA))
    settings = {name: SimSetting(name, procs) for name, procs in {
        "H1": h1_signals + (white,) * 2,
        "H2": tuple(ps("ma", ma=m) for m in (presets.MA10_EVEN, presets.MA15_EVEN,
                                             presets.MA20_EVEN)) + (white,) * 2,
        "H3": (ma3,) * 3 + (white,) * 2,
        "D1": d_signals + (ma3,) + (white,) * 5,
        "D2": d_signals + (ps("ma", ma=presets.MA1_WEAK),) + (white,) * 5,
        "D3": (ps("ma", ma=presets.MA2_WEAK),) * 5 + (white,) * 5,
    }.items()}
    settings["S5"] = SimSetting(
        "S5", h1_signals + (ps("white", innovation="t", t_df=5.0),) * 17, "uniform")
    return settings


_SETTINGS = _named_settings()
SETTING_NAMES = tuple(_SETTINGS)


def make_setting(name: str) -> SimSetting:
    """The named simulation setting; anything but one of SETTING_NAMES is
    an input error."""
    try:
        return _SETTINGS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise InvalidInputError(
            f"unknown setting: {name!r}; expected one of {SETTING_NAMES}") from None


def _mixing(mixing, p: int, rng: np.random.Generator) -> np.ndarray:
    """The p x p mixing matrix Omega: the identity, or uniform on [0, 1]
    from the Generator rng, redrawn until its condition number is below
    _MAX_MIX_CONDITION."""
    if not isinstance(mixing, str) or mixing not in ("identity", "uniform"):
        raise InvalidInputError(f"unknown mixing: {mixing!r}")
    if mixing == "identity":
        return np.eye(p)
    while True:
        omega = rng.uniform(0.0, 1.0, size=(p, p))
        if np.linalg.cond(omega) < _MAX_MIX_CONDITION:
            return omega


def mix(sources: MultiSeries, mixing, seed=None):
    """Apply the mixing x_t = Omega z_t; returns (mixed, Omega).

    mixing is "identity" or "uniform" (redrawn until the condition number
    is below _MAX_MIX_CONDITION).
    """
    omega = _mixing(mixing, sources.p, np.random.default_rng(seed))
    return MultiSeries(sources.values @ omega.T), omega


def simulate_setting(setting: SimSetting, n: int, seed):
    """Draw one replicate: returns (mixed series, Omega, sources). The seed
    is any entropy np.random.SeedSequence takes, None for fresh entropy."""
    x, omega, z = _draw(setting, n, [np.random.SeedSequence(seed).entropy])
    return MultiSeries(x[0].copy()), omega[0], MultiSeries(z[0].copy())


def _draw(setting: SimSetting, n: int, entropies):
    """simulate_setting of every entropy, batched: (x, Omega, z) as
    b x n x p, b x p x p and b x n x p arrays, b = len(entropies).
    Replicate i draws process j from the Generator of child
    SeedSequence(entropies[i], spawn_key=(j,)), which is
    SeedSequence(entropies[i]).spawn(p + 1)[j], and the mixing from child
    p. One series._generators call seeds every child of the chunk, and one
    _generate call writes each process of every replicate into its
    contiguous row of one time-major b x p x n array zt; z is the view
    zt.swapaxes(-1, -2), so z.swapaxes(-1, -2) is the C-contiguous input
    the whitening kernel reads. One product z @ Omega^T mixes them all;
    under identity mixing x is z itself, and no mixing child is seeded."""
    _check_length(n)
    b, p = len(entropies), setting.p
    mixed = setting.mixing != "identity"
    rngs = _generators(entropies, [(j,) for j in range(p + mixed)])
    zt = np.empty((b, p, n))
    for j, spec in enumerate(setting.processes):
        _generate(spec, islice(rngs, b), zt[:, j])
    _check_finite(zt)
    z = zt.swapaxes(-1, -2)
    if not mixed:
        return z, np.tile(np.eye(p), (b, 1, 1)), z
    omega = np.array([_mixing(setting.mixing, p, rng) for rng in rngs])
    x = z @ omega.swapaxes(-1, -2)
    _check_finite(x)
    return x, omega, z


@dataclass
class FrequencyTable:
    """Rejection frequencies: rows = sample sizes, columns = methods."""

    rows: tuple  # n values
    cols: tuple  # method labels
    values: np.ndarray  # len(rows) x len(cols)

    def to_csv(self) -> str:
        lines = ["n," + ",".join(self.cols)]
        for i, n in enumerate(self.rows):
            lines.append(
                f"{n}," + ",".join(f"{v:.6f}" for v in self.values[i])
            )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "values": [[float(v) for v in row] for row in self.values],
        }


@dataclass
class DimensionTable:
    """Empirical distribution of the estimated dimension per (n, method)."""

    rows: tuple  # n values
    cols: tuple  # method labels
    p: int
    freq: np.ndarray  # len(rows) x len(cols) x (p + 1)

    def to_csv(self) -> str:
        lines = ["n,method,d_hat,frequency"]
        for i, n in enumerate(self.rows):
            for j, m in enumerate(self.cols):
                for d in range(self.p + 1):
                    lines.append(f"{n},{m},{d},{self.freq[i, j, d]:.6f}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "p": self.p,
            "freq": self.freq.tolist(),
        }


def _method_lags(method: str) -> LagSet:
    if method not in LAG_PRESETS:
        raise InvalidInputError(
            f"unknown estimator preset: {method!r}; expected one of "
            f"{sorted(LAG_PRESETS)}"
        )
    return LagSet(LAG_PRESETS[method])


def _rejection_entry(x, w, tests, entropy, lags, q, alpha, test_kind, b_reps):
    """1.0 if the replicate's test of q rejects at level alpha, else 0.0."""
    return float(_p_values(x, lags, w, tests, test_kind, b_reps,
                           lambda _: [*entropy, 1])(q) < alpha)


def _dimension_entry(x, w, tests, entropy, lags, alpha, strategy, test_kind,
                     b_reps):
    """The replicate's estimated dimension under the strategy."""
    return _estimate(x, lags, w, tests, alpha, strategy, test_kind, b_reps,
                     [*entropy, 2])[0]


def _chunk(args):
    """entry(x, w, tests, entropy, lags) of every replicate (n, rep), rep in
    reps, under every (lags, rows) of the plan, as a len(reps) x len(plan)
    array: x is the replicate's draw from entropy [seed, n, rep], w its
    whitener and tests the _chi2_tests arrays of the rows of its stack over
    the union lags. The chunk is drawn and whitened in one call each, and
    tested in one call per method."""
    setting, n, reps, seed, union, plan, entry = args
    entropies = [[seed, n, rep] for rep in reps]
    x = _draw(setting, n, entropies)[0]
    try:
        w, h = _whiten(x.swapaxes(-1, -2), union)
    except NearSingularCovarianceError as exc:
        raise NearSingularCovarianceError(
            f"setting {setting.name}, n = {n}, replicate {reps[exc.index[0]]}: "
            f"{exc}") from None
    return np.array([[entry(*replicate, lags) for replicate in
                      zip(x, w, zip(*_chi2_tests(h[:, rows], n)), entropies)]
                     for lags, rows in plan], dtype=float).T


def _cells(setting, n_list, methods, reps, seed, entry, n_jobs):
    """Every method's entry on every replicate (n, rep).

    Returns n_list and methods as tuples and a len(n_list) x reps x
    len(methods) array of the entries. Replicate (n, rep) draws from entropy
    [seed, n, rep] whichever task runs it. A task is one n and a chunk of
    consecutive replicates, drawn, whitened and tested in one batched call
    each: as many replicates as fit, as n x p float64 series, in
    dimtest._CHUNK_BYTES (dimtest._chunk_reps), and at most the table's
    replicates over its workers, so that every worker has a task, and
    series._run_tasks runs them on min(n_jobs, replicates) workers, each of
    which claims the next task from one shared counter when it is free.
    Every argument is checked before any replicate runs, and so before any
    worker process starts.
    """
    reps, n_jobs = _as_int(reps, "reps"), _as_int(n_jobs, "n_jobs")
    if reps < 1:
        raise InvalidInputError("reps must be >= 1")
    if n_jobs < 1:
        raise InvalidInputError(f"n_jobs must be >= 1, got {n_jobs}")
    n_list = tuple(_as_int(n, "n") for n in n_list)
    methods = tuple(methods)
    if not n_list or not methods:
        raise InvalidInputError("n_list and methods must be nonempty")
    method_lags = [_method_lags(m) for m in methods]
    union = LagSet(tuple(sorted({t for lags in method_lags for t in lags})))
    plan = tuple((lags, np.searchsorted(union.lags, lags.lags))
                 for lags in method_lags)
    for n in n_list:
        if union.max >= n:
            raise LagTooLargeError(
                f"max lag {union.max} must be smaller than series length {n}")
    total = len(n_list) * reps
    workers = min(n_jobs, total)
    tasks = []
    for n in n_list:
        step = min(_chunk_reps(setting.p, n, reps), total // workers)
        tasks += [(setting, n, range(reps)[first:first + step], seed, union,
                   plan, entry) for first in range(0, reps, step)]
    out = np.concatenate(_run_tasks(_chunk, tasks, workers))
    return n_list, methods, out.reshape(len(n_list), reps, len(methods))


def rejection_table(
    setting: SimSetting,
    n_list,
    methods,
    q: int,
    alpha: float = 0.05,
    reps: int = 100,
    seed: int = 0,
    test_kind: str = "asymptotic",
    b_reps: int = 200,
    n_jobs: int = 1,
) -> FrequencyTable:
    """Fraction of replicates rejecting H_{0q} per (n, method) cell."""
    _check_test_args(test_kind, b_reps, seed, alpha, table=True)
    q = _check_q(q, setting.p)
    n_list, methods, out = _cells(
        setting, n_list, methods, reps, seed,
        partial(_rejection_entry, q=q, alpha=alpha, test_kind=test_kind,
                b_reps=b_reps), n_jobs)
    return FrequencyTable(n_list, methods, out.mean(axis=1))


def dimension_table(
    setting: SimSetting,
    n_list,
    methods,
    alpha: float = 0.05,
    strategy: str = "divide_and_conquer",
    reps: int = 100,
    seed: int = 0,
    test_kind: str = "asymptotic",
    b_reps: int = 200,
    n_jobs: int = 1,
) -> DimensionTable:
    """Empirical distribution of the estimated dimension per (n, method)."""
    _check_test_args(test_kind, b_reps, seed, alpha, strategy, table=True)
    n_list, methods, out = _cells(
        setting, n_list, methods, reps, seed,
        partial(_dimension_entry, alpha=alpha, strategy=strategy,
                test_kind=test_kind, b_reps=b_reps), n_jobs)
    p = setting.p
    hits = out[..., None] == np.arange(p + 1)
    freq = hits.sum(axis=1) / reps
    return DimensionTable(n_list, methods, p, freq)
