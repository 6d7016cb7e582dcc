"""Time-series containers and second-moment estimators.

Conventions: a series is stored as a T x p matrix (rows = time points),
the covariance uses divisor 1/T and the lag-tau autocovariance uses
divisor 1/(T - tau), both centered with the single global column mean.
standardized_autocovs forms the covariance and every autocovariance of
its whitened stack from one centring of the series. The whitening kernel
(_whiten) takes series time-major, as (..., p, T) arrays, so a batch of
series is one call; a single series passes the view x.values.T.
load_csv reads a file or a pipe once, and every CSV parse reads those bytes.
_run_tasks is the one process runner, and _generators the one batched
seeding of numpy Generators, for the Monte Carlo tables and the bootstrap.
"""

from __future__ import annotations

import csv
import io
import os
import sys
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    CsvParseError,
    InvalidInputError,
    LagTooLargeError,
    NearSingularCovarianceError,
)

#: Relative eigenvalue floor below which a covariance counts as singular.
EIG_FLOOR_RATIO = 1e-12

#: Inputs of at least this many bytes are parsed as two halves at once
#: (_parse_bulk). Timed on a 2-core KVM guest in a warm process holding
#: 100 MB, 30 alternating rounds of two halves against one pass a size, in
#: two runs: the halves won 0 and 0 rounds on 0.40 MB (medians 10.9 vs
#: 7.3 ms in the first run), 13 and 1 on 0.99 MB (20.7 vs 19.3 ms), 22 and
#: 17 on 1.97 MB (32.7 vs 39.6 ms) and 28 and 28 on 3.95 MB (41.0 vs
#: 52.5 ms). Near 1 MB a half saves about what its forked worker costs.
#: The 3.95 MB file is the estimate_wide benchmark's input.
_SPLIT_BYTES = 2 << 20

# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64
# (numpy/random/src/pcg64/pcg64.h) constants, for _generators.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _as_int(value, name: str) -> int:
    """value as an int: an integer, a numpy integer or a float of integral
    value (3.0 is 3); anything else raises InvalidInputError."""
    if isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and float(value).is_integer()):
        return int(value)
    raise InvalidInputError(f"{name} must be an integer, got {value!r}")


def _available_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask
    (taskset, cpusets) where the platform has one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _context():
    """The multiprocessing context _run_tasks starts its workers from: fork
    on Linux, where a fresh process would import numpy first, else the
    platform's default (fork is unsafe on macOS)."""
    import multiprocessing

    return multiprocessing.get_context("fork" if sys.platform == "linux" else None)


def _run_tasks(fn, tasks, workers: int) -> list:
    """[fn(t) for t in tasks], run on min(workers, len(tasks)) processes.

    This process and workers - 1 daemonic ones each claim the next task's
    index from one shared counter and run that task, until every task is
    claimed or one has failed; no task is claimed ahead of time. This
    process claims the first task before it starts any worker. The workers
    send each (index, ok, result or error) over one pipe, and the results
    are placed by index; a worker's error arrives with its traceback, as
    its __cause__, and a result that pickle cannot send fails its task.
    This process reads the reports waiting on the pipe after each task it
    runs, so a worker whose report is larger than the pipe's buffer does
    not wait there for the last task to finish.
    After a failure no task is claimed, and once every task below the
    lowest failing one has reported, that task's error is raised, as in a
    serial run. A worker that exits without reporting raises
    RuntimeError. Every worker is terminated and joined before this returns
    or raises: by then none runs a task whose result is still wanted. A
    daemonic process runs every task itself.
    """
    import multiprocessing  # here, so that importing the CLI loads none of it

    workers = min(workers, len(tasks))
    if workers < 2 or multiprocessing.current_process().daemon:
        return [fn(t) for t in tasks]
    ctx = _context()
    counter = ctx.Value("i", 0)  # the next task's index; len(tasks) once one failed
    reader, writer = ctx.Pipe(duplex=False)
    args = (fn, tasks, counter, reader, writer, ctx.Lock())
    results, errors, procs = {}, {}, []
    try:
        i = _claim(counter, len(tasks))
        for _ in range(workers - 1):
            procs.append(ctx.Process(target=_work, args=args, daemon=True))
            procs[-1].start()
        writer.close()  # so that the pipe ends once every worker has exited

        def take():  # one report; EOFError once every worker has exited
            j, ok, value = reader.recv()
            if ok:
                results[j] = value
            else:
                errors[j], text = value
                errors[j].__cause__ = _RemoteTraceback(text)

        while i is not None:
            try:
                results[i] = fn(tasks[i])
            except Exception as exc:
                counter.value = len(tasks)
                errors[i] = exc
            # A worker whose report fills the pipe waits in its send until
            # the report is read, and claims nothing meanwhile.
            try:
                while reader.poll():
                    take()
            except EOFError:
                pass
            i = _claim(counter, len(tasks))
        # Every task below the lowest failing one has been claimed.
        while waiting := [j for j in range(min(errors, default=len(tasks)))
                          if j not in results]:
            try:
                take()
            except EOFError:
                raise RuntimeError(f"a worker process exited without reporting "
                                   f"task {waiting[0]}") from None
        if errors:
            raise errors[min(errors)]
        return [results[j] for j in range(len(tasks))]
    finally:
        for p in procs:
            p.terminate()  # one still running a task no result waits for
            p.join()
            p.close()
        reader.close()
        writer.close()


def _claim(counter, n: int):
    """The index of the next of n tasks from the shared counter, or None
    once every task is claimed or one has failed, which sets it to n."""
    with counter.get_lock():
        raw = counter.get_obj()
        i = raw.value
        if i >= n:
            return None
        raw.value = i + 1
        return i


class _RemoteTraceback(Exception):
    """The formatted traceback of an error raised in a _run_tasks worker,
    set as that error's __cause__ in the calling process, as
    concurrent.futures does, so that the traceback shown names the task's
    frames."""


def _work(fn, tasks, counter, reader, writer, lock):
    """A _run_tasks worker: claim and run tasks until none is left, sending
    (index, True, result) of each, or (index, False, (error, its formatted
    traceback)). Each report is pickled before it is sent, and the lock
    keeps one message whole. An error that pickle cannot rebuild goes as a
    RuntimeError naming its class and message, and a result that pickle
    cannot send as a failure of its task, a RuntimeError naming the result's
    type. It closes its copy of the reading end, so that once the calling
    process has gone a send fails and the worker stops."""
    import pickle  # here, so that importing the CLI loads none of it
    import traceback

    def failure(i, error):
        counter.value = len(tasks)
        return pickle.dumps((i, False, (error, f'\n"""\n{traceback.format_exc()}"""')))

    reader.close()
    while (i := _claim(counter, len(tasks))) is not None:
        try:
            result = fn(tasks[i])
        except Exception as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            report = failure(i, exc)
        else:
            try:
                report = pickle.dumps((i, True, result))
            except Exception:
                report = failure(i, RuntimeError(
                    f"task {i} returned a {type(result).__name__}, which pickle "
                    f"cannot send"))
        try:
            with lock:
                writer.send_bytes(report)
        except BrokenPipeError:
            return


def _uint32_words(entropy) -> list:
    """SeedSequence's uint32 words of entropy: an integer >= 0 as its
    32-bit words, least significant first (0 is one word), and a sequence
    as the words of its items in turn."""
    if isinstance(entropy, (int, np.integer)):
        value, words = int(entropy), []
        if value < 0:
            raise ValueError(f"entropy must be non-negative, got {value}")
        while True:
            words.append(value & _MASK32)
            value >>= 32
            if not value:
                return words
    return [word for item in entropy for word in _uint32_words(item)]


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constants init * mult**k mod 2**32, k = 0, ..., count."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 values, broadcast against the hash
    constants xor and mult that its running constant takes at each call."""
    value = (value ^ xor) * mult
    return value ^ value >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of uint32 words x and y."""
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ result >> np.uint32(16)


def _word_array(values) -> np.ndarray:
    """The _uint32_words of values as a len(values) x count uint32 array;
    values of different word counts raise ValueError."""
    words = [_uint32_words(value) for value in values]
    counts = {len(w) for w in words}
    if len(counts) > 1:
        raise ValueError(f"expected one word count, got {sorted(counts)}")
    return np.array(words, dtype=np.uint32).reshape(len(words), max(counts, default=0))


def _pool_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's generate_state(8) of the pool of every row of the
    m x L uint32 array of assembled entropy words, as an m x 8 array.

    The rows are hashed in one pass of uint32 array arithmetic, which wraps
    mod 2**32 as SeedSequence's does; the pool's steps that hash one source
    word run on every destination word at once. Past the entropy's end the
    pool hashes zeros, and each word past the pool is mixed into every pool
    word.
    """
    entropy = np.pad(entropy, ((0, 0), (0, max(0, _POOL_SIZE - entropy.shape[1]))))
    extra = entropy.shape[1] - _POOL_SIZE
    a = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * extra)
    pool = _hashmix(entropy[:, :_POOL_SIZE], a[:_POOL_SIZE], a[1:_POOL_SIZE + 1])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        h = _hashmix(pool[:, src, None], a[k:k + len(dst)], a[k + 1:k + len(dst) + 1])
        pool[:, dst] = _mix(pool[:, dst], h)
        k += len(dst)
    for src in range(_POOL_SIZE, entropy.shape[1]):
        h = _hashmix(entropy[:, src, None], a[k:k + _POOL_SIZE],
                     a[k + 1:k + _POOL_SIZE + 1])
        pool = _mix(pool, h)
        k += _POOL_SIZE
    b = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    return _hashmix(np.tile(pool, 2), b[:-1], b[1:])


def _seed_states(entropies, keys) -> np.ndarray:
    """SeedSequence(entropy, spawn_key=key).generate_state(4, np.uint64) of
    every key and entropy, as a len(keys) x len(entropies) x 4 uint64 array.

    The entropies share one word count and the keys another, as every
    caller's do: a chunk's [seed, n, rep] with rep < 2**32, keys (j,) or
    (c,). Each pair's words are assembled as SeedSequence assembles them:
    the entropy's, padded with zeros to the pool size when the key has
    words, then the key's; every pair goes through _pool_states at once.
    """
    ew, kw = _word_array(entropies), _word_array(keys)
    if kw.shape[1]:
        ew = np.pad(ew, ((0, 0), (0, max(0, _POOL_SIZE - ew.shape[1]))))
    state = _pool_states(np.hstack([np.tile(ew, (len(keys), 1)),
                                    np.repeat(kw, len(entropies), axis=0)]))
    # Word pairs read as little-endian uint64, as generate_state reads them.
    return (state.astype("<u4").view("<u8").astype(np.uint64)
            .reshape(len(keys), len(entropies), 4))


def _generators(entropies, keys):
    """Yield a Generator in the state of
    np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=key))
    for each key and, within it, each entropy.

    Every state is computed before the first is yielded: _seed_states gives
    each pair's SeedSequence words s0, s1 (the PCG64 seed) and i0, i1 (its
    stream), and PCG64's seeding, in Python integers mod 2**128, sets
    inc = (i << 1) | 1 and state = ((inc + s) * M + inc). One Generator is
    re-seeded for each pair, so a caller draws from it before taking the
    next.
    """
    states = _seed_states(entropies, keys).reshape(-1, 4).tolist()
    rng = np.random.Generator(np.random.PCG64(0))
    for s0, s1, i0, i1 in states:
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128,
                      "inc": inc},
            "has_uint32": 0, "uinteger": 0}
        yield rng


def _check_finite(v: np.ndarray) -> None:
    """Raise InvalidInputError unless every value of v is finite."""
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("series contains non-finite values")


@dataclass(frozen=True)
class MultiSeries:
    """A length-T, p-variate real time series; rows are time points."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise InvalidInputError(f"series must be 2-dimensional, got ndim={v.ndim}")
        if v.shape[0] < 2:
            raise InvalidInputError("series needs at least 2 time points")
        if v.shape[1] < 1:
            raise InvalidInputError("series needs at least 1 component")
        _check_finite(v)
        object.__setattr__(self, "values", v)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LagSet:
    """A strictly increasing set of positive integer lags."""

    lags: tuple

    def __post_init__(self):
        lags = tuple(_as_int(t, "lag") for t in self.lags)
        if len(lags) == 0:
            raise InvalidInputError("lag set must be nonempty")
        if any(t < 1 for t in lags):
            raise InvalidInputError("all lags must be >= 1")
        if any(b <= a for a, b in zip(lags, lags[1:])):
            raise InvalidInputError("lags must be strictly increasing")
        object.__setattr__(self, "lags", lags)

    def __len__(self):
        return len(self.lags)

    def __iter__(self):
        return iter(self.lags)

    @property
    def max(self) -> int:
        return self.lags[-1]


def _lag_products(xt: np.ndarray, taus) -> np.ndarray:
    """The stack of xc[..., :T - tau] @ xc[..., tau:]^T / (T - tau) for tau in
    taus, of every time-major (..., p, T) series xt, where xc is xt centred
    once with its global mean along the last axis: tau = 0 is the
    covariance (divisor 1/T), tau >= 1 the lag-tau autocovariance. The lag
    axis comes third from last."""
    xc = xt - xt.mean(axis=-1, keepdims=True)
    xct = xc.swapaxes(-1, -2)
    p, T = xt.shape[-2:]
    # Each product goes straight into one stack; np.stack's overhead per lag
    # showed in the simulation tables, whose series are small.
    out = np.empty((*xt.shape[:-2], len(taus), p, p))
    for i, t in enumerate(taus):
        np.matmul(xc[..., : T - t], xct[..., t:, :], out=out[..., i, :, :])
    out /= np.subtract(T, taus, dtype=float)[:, None, None]
    return out


def _symmetrized(s: np.ndarray) -> np.ndarray:
    """(S + S^T) / 2 of a matrix or of each matrix of a stack."""
    return (s + s.swapaxes(-1, -2)) / 2.0


def sample_cov(x: MultiSeries) -> np.ndarray:
    """Sample covariance with divisor 1/T; exactly symmetric."""
    return _symmetrized(_lag_products(x.values.T, (0,))[0])


def sample_autocov(x: MultiSeries, tau: int) -> np.ndarray:
    """Lag-tau sample autocovariance with divisor 1/(T - tau).

    Both factors are centered with the single global mean. The result is
    generally not symmetric.
    """
    tau = _as_int(tau, "lag")
    if tau < 1:
        raise InvalidInputError(f"lag must be >= 1, got {tau}")
    if tau >= x.T:
        raise LagTooLargeError(f"lag {tau} must be smaller than series length {x.T}")
    return _lag_products(x.values.T, (tau,))[0]


def symmetrize(s: np.ndarray) -> np.ndarray:
    """(S + S^T) / 2."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {s.shape}")
    return _symmetrized(s)


def sym_inv_sqrt(s: np.ndarray) -> np.ndarray:
    """The unique symmetric inverse square root of an SPD matrix.

    Eigenvalues below EIG_FLOOR_RATIO times the largest eigenvalue raise
    NearSingularCovarianceError rather than being pseudo-inverted; silent
    rank reduction would corrupt degrees of freedom downstream.
    """
    return _inv_sqrt(symmetrize(s))


def _inv_sqrt(s: np.ndarray) -> np.ndarray:
    """sym_inv_sqrt of each symmetric matrix of a (..., p, p) stack. The
    first matrix at or below the floor raises, naming its eigenvalues; the
    error's index is that matrix's index in the stack's leading axes."""
    w, v = np.linalg.eigh(s)
    floor = EIG_FLOOR_RATIO * w[..., -1]
    bad = (w[..., 0] <= floor) | (w[..., -1] <= 0.0)
    if bad.any():
        i = np.argmax(bad.ravel())
        exc = NearSingularCovarianceError(
            f"eigenvalue {w.reshape(-1, w.shape[-1])[i, 0]:.6e} at or below "
            f"floor {floor.ravel()[i]:.6e}"
        )
        exc.index = np.unravel_index(i, bad.shape)
        raise exc
    m = (v * (1.0 / np.sqrt(w))[..., None, :]) @ v.swapaxes(-1, -2)
    return _symmetrized(m)


def standardized_autocovs(x: MultiSeries, lags: LagSet):
    """The whitener S0^{-1/2} and the |lags| x p x p stack of whitened
    symmetrized autocovariances S0^{-1/2} R_tau S0^{-1/2}.

    S0 and every R_tau come from one centring of x, and every lag is
    whitened in one stacked product; the numbers are those of sample_cov,
    sample_autocov, symmetrize and sym_inv_sqrt applied lag by lag.
    """
    if lags.max >= x.T:
        raise LagTooLargeError(
            f"max lag {lags.max} must be smaller than series length {x.T}"
        )
    return _whiten(x.values.T, lags)


def _whiten(xt: np.ndarray, lags: LagSet):
    """standardized_autocovs of every time-major (..., p, T) series xt, whose
    length exceeds lags.max: whiteners (..., p, p) and stacks (..., k, p, p).
    The one whitening kernel; a single series is the batch of one."""
    r = _symmetrized(_lag_products(xt, (0, *lags)))
    m = _inv_sqrt(r[..., 0, :, :])
    mb = m[..., None, :, :]  # one whitener for every lag
    return m, _symmetrized(mb @ r[..., 1:, :, :] @ mb)


def load_csv(path, header: bool = False) -> MultiSeries:
    """Read a series from CSV, one row per time point.

    The input, a file or a pipe, is read whole into memory once, and every
    parse reads those bytes. Parse failures report 1-based row and column
    numbers. No missing values are allowed; every entry is a finite decimal.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    v = _parse_bulk(data, header)
    return MultiSeries(v) if v is not None else _load_csv_rows(data, header)


def _parse_bulk(data: bytes, header: bool):
    """The bytes data as numpy's C tokenizer reads them, or None where that
    array might differ from what ``_load_csv_rows`` returns.

    Data of at least _SPLIT_BYTES, on Linux with two or more CPUs available,
    is parsed as two ranges split after the first newline at or past its
    middle byte, and the array is the two joined. _run_tasks runs them on
    two workers: this process claims the first range from their shared
    counter, one forked worker process the second, which it sends back.
    Each range follows ``_parse_range``'s rules, and data whose ranges
    differ in width, or where either range gives None, gives None. Smaller
    data, data with no newline after the middle byte, and data off Linux,
    where a worker imports numpy first at more cost than the half parse
    saves, are parsed in one range.
    """
    size = mid = len(data)  # mid = size: one range
    if size >= _SPLIT_BYTES and sys.platform == "linux" and _available_cpus() > 1:
        mid = data.find(b"\n", size // 2) + 1 or size
    if mid >= size:
        return _parse_range(data, header)
    first, second = _run_tasks(partial(_parse_range, data, header),
                               [slice(0, mid), slice(mid, None)], 2)
    if first is None or second is None or first.shape[1] != second.shape[1]:
        return None
    return np.concatenate((first, second))


def _parse_range(data: bytes, header: bool, span=slice(0, None)):
    """data[span] (a stop of None is the end), decoded as a text file is,
    its first line skipped if header and span starts the data, as numpy's C
    tokenizer reads it, or None where that array might differ from what
    ``_load_csv_rows`` returns. Both spans ``_parse_bulk`` cuts start the
    data or follow a newline, so "the first line" below is the range's first.

    The parse stops, and the data goes to the row parser, at the first line
    that holds a quote, which can join lines into one record, or is blank
    or whitespace only, which ``loadtxt`` skips and ``csv.reader`` does
    not. The array is kept only when it has rows, as many columns as the
    first line has fields, and only finite entries. ``loadtxt`` raises
    ``ValueError`` on ragged rows and unreadable fields, and so does text
    that does not decode.
    """
    widths = []  # the first line's field count, then None if the parse stopped

    def lines(fh):
        for line in fh:
            if '"' in line or line.isspace():
                widths.append(None)
                return
            if not widths:
                widths.append(line.count(",") + 1)
            yield line

    raw = io.BytesIO(data[: span.stop])  # data[:None] is data: no copy
    raw.seek(span.start)
    try:
        with warnings.catch_warnings():
            # A range of no data lines warns "input contained no data".
            warnings.simplefilter("ignore", UserWarning)
            v = np.loadtxt(lines(io.TextIOWrapper(raw)), dtype=float,
                           delimiter=",", comments=None,
                           skiprows=int(header and span.start == 0), ndmin=2)
    except ValueError:
        return None
    if (None in widths or not len(v) or v.shape[1] != widths[0]
            or not np.isfinite(v).all()):
        return None
    return v


def _records(data: bytes):
    """``csv.reader`` of data decoded as a text file opened with newline=""
    is, raising its errors and decoding errors as input errors."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), newline=""))
    try:
        yield from reader
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise CsvParseError(reader.line_num, None, str(exc)) from None
    except UnicodeDecodeError as exc:
        raise InvalidInputError(
            f"input does not decode as {exc.encoding}: {exc.reason}") from None


def _load_csv_rows(data: bytes, header: bool = False) -> MultiSeries:
    """``load_csv`` of data one record at a time with ``_records``: the
    reference parser, and the one that reports where data is malformed."""
    rows = []
    for r, record in enumerate(_records(data), start=1):
        if r == 1:
            width = len(record)
            if header:
                continue
        elif len(record) != width:
            raise CsvParseError(
                r, len(record) + 1, f"expected {width} fields, got {len(record)}"
            )
        parsed = []
        for c, field in enumerate(record, start=1):
            text = field.strip()
            if not text:
                raise CsvParseError(r, c, "missing value")
            try:
                val = float(text)
            except ValueError:
                raise CsvParseError(r, c, f"not a number: {text!r}") from None
            if not np.isfinite(val):
                raise CsvParseError(r, c, f"non-finite value: {text!r}")
            parsed.append(val)
        rows.append(parsed)
    if not rows:
        raise CsvParseError(1, 1, "empty input")
    return MultiSeries(np.asarray(rows))
