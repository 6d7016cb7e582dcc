"""Time-series containers and second-moment estimators.

Conventions: a series is stored as a T x p matrix (rows = time points),
the covariance uses divisor 1/T and the lag-tau autocovariance uses
divisor 1/(T - tau), both centered with the single global column mean.
standardized_autocovs forms the covariance and every autocovariance of
its whitened stack from one centring of the series. The whitening kernel
(_whiten) takes series time-major, as (..., p, T) arrays, so a batch of
series is one call; a single series passes the view x.values.T.
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

#: Files of at least this many bytes are parsed as two halves at once
#: (_parse_bulk). Timed on a 2-core KVM guest in a warm process holding
#: 100 MB, 10 alternating rounds a run, eight runs a size taken at different
#: times, with _run_tasks' shared task counter: the split beat one pass in
#: 0-2 of 10 rounds in six runs and 10 of 10 in two on a 3.9 MB file
#: (medians 108 vs 81 ms in the last), and in 3-4 of 10 in two runs and
#: 9-10 of 10 in six on 7.9 MB (118 vs 184 ms in the last). With the
#: earlier process pool it won 1, 10 and 9 of 10 on 9.9 MB and 10 of 10 in
#: each of three runs on 19.7 MB. Below about 8 MB the forked worker costs
#: about what the half parse saves.
_SPLIT_BYTES = 8 << 20


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
    are placed by index. After a failure no task is claimed, and once every
    task below the lowest failing one has reported, that task's error is
    raised, as in a serial run. A worker that exits without reporting raises
    RuntimeError. Every worker is terminated and joined before this returns
    or raises: by then none runs a task whose result is still wanted. A
    daemonic process runs every task itself.
    """
    import multiprocessing  # here, so that importing the CLI loads none of it

    workers = min(workers, len(tasks))
    if workers < 2 or multiprocessing.current_process().daemon:
        return [fn(t) for t in tasks]
    ctx = _context()
    state = ctx.Array("i", 2)  # the next task's index; 1 once a task failed
    reader, writer = ctx.Pipe(duplex=False)
    args = (fn, tasks, state, reader, writer, ctx.Lock())
    results, errors, procs = {}, {}, []
    try:
        i = _claim(state, len(tasks))
        for _ in range(workers - 1):
            procs.append(ctx.Process(target=_work, args=args, daemon=True))
            procs[-1].start()
        writer.close()  # so that the pipe ends once every worker has exited
        while i is not None:
            try:
                results[i] = fn(tasks[i])
            except Exception as exc:
                state[1] = 1
                errors[i] = exc
            i = _claim(state, len(tasks))
        # Every task below the lowest failing one has been claimed.
        while waiting := [j for j in range(min(errors, default=len(tasks)))
                          if j not in results]:
            try:
                j, ok, value = reader.recv()
            except EOFError:
                raise RuntimeError(f"a worker process exited without reporting "
                                   f"task {waiting[0]}") from None
            (results if ok else errors)[j] = value
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


def _claim(state, n: int):
    """The index of the next of n tasks, from state = [next index, failed],
    or None once every task is claimed or one has failed."""
    with state.get_lock():
        counter = state.get_obj()
        i, failed = counter
        if failed or i >= n:
            return None
        counter[0] = i + 1
        return i


def _work(fn, tasks, state, reader, writer, lock):
    """A _run_tasks worker: claim and run tasks until none is left, sending
    (index, ok, result or error) of each; the lock keeps one message whole.
    It closes its copy of the reading end, so that once the calling process
    has gone a send fails and the worker stops."""
    reader.close()
    while (i := _claim(state, len(tasks))) is not None:
        try:
            report = (i, True, fn(tasks[i]))
        except Exception as exc:
            state[1] = 1
            report = (i, False, exc)
        try:
            with lock:
                writer.send(report)
        except BrokenPipeError:
            return


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
    first matrix at or below the floor raises, naming its eigenvalues."""
    w, v = np.linalg.eigh(s)
    floor = EIG_FLOOR_RATIO * w[..., -1]
    bad = (w[..., 0] <= floor) | (w[..., -1] <= 0.0)
    if bad.any():
        i = np.argmax(bad.ravel())
        raise NearSingularCovarianceError(
            f"eigenvalue {w.reshape(-1, w.shape[-1])[i, 0]:.6e} at or below "
            f"floor {floor.ravel()[i]:.6e}"
        )
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

    Parse failures report 1-based row and column numbers. No missing
    values are allowed and every entry must be a finite decimal.
    """
    v = _parse_bulk(path, header)
    return MultiSeries(v) if v is not None else _load_csv_rows(path, header)


def _parse_bulk(path, header: bool):
    """The file as numpy's C tokenizer reads it, or None where that array
    might differ from what ``_load_csv_rows`` returns.

    A regular file of at least _SPLIT_BYTES, on Linux with two or more CPUs
    available, is parsed as two ranges split after a newline near its
    middle byte, and the array is the two joined. _run_tasks runs them on
    two workers: this process claims the first range from their shared
    counter, one worker process the second, which it sends back. Each range
    follows ``_parse_range``'s rules, and a file whose ranges differ in
    width, or where either range gives None, gives None. Smaller files,
    files with no newline after the middle byte, pipes, and files off Linux,
    where a worker imports numpy first at more cost than the half parse
    saves, are parsed in one range.
    """
    if not os.path.isfile(path):  # a pipe yields its text only once
        return None
    size = mid = os.path.getsize(path)  # mid = size: one range
    if size >= _SPLIT_BYTES and sys.platform == "linux" and _available_cpus() > 1:
        with open(path, "rb") as fh:
            fh.seek(size // 2)
            fh.readline()
            mid = fh.tell()
    if mid >= size:
        return _parse_range(path, header)
    first, second = _run_tasks(partial(_parse_range, path, header),
                               [slice(0, mid), slice(mid, None)], 2)
    if first is None or second is None or first.shape[1] != second.shape[1]:
        return None
    return np.concatenate((first, second))


def _parse_range(path, header: bool, span=slice(0, None)):
    """The bytes of the file in span, a slice whose stop None is the file's
    end, decoded as ``open(path)`` decodes them, its first line skipped if
    header and span starts the file, as numpy's C tokenizer reads them, or
    None where that array might differ from what ``_load_csv_rows`` returns.

    The parse stops, and the file goes to the row parser, at the first line
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

    try:
        with open(path, "rb") as raw, warnings.catch_warnings():
            raw.seek(span.start)
            # A range that stops short of the end is read whole; one that runs
            # to the end is decoded as it is read.
            fh = io.TextIOWrapper(raw if span.stop is None else
                                  io.BytesIO(raw.read(span.stop - span.start)))
            # A range of no data lines warns "input contained no data".
            warnings.simplefilter("ignore", UserWarning)
            v = np.loadtxt(lines(fh), dtype=float, delimiter=",", comments=None,
                           skiprows=int(header and span.start == 0), ndmin=2)
    except ValueError:
        return None
    if (None in widths or not len(v) or v.shape[1] != widths[0]
            or not np.isfinite(v).all()):
        return None
    return v


def _records(fh):
    """``csv.reader(fh)``, raising its errors and decoding errors as input errors."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise CsvParseError(reader.line_num, None, str(exc)) from None
    except UnicodeDecodeError as exc:
        raise InvalidInputError(
            f"input does not decode as {exc.encoding}: {exc.reason}") from None


def _load_csv_rows(path, header: bool = False) -> MultiSeries:
    """``load_csv`` one record at a time with ``csv.reader``: the reference
    parser, and the one that reports where a file is malformed."""
    rows = []
    width = None
    with open(path, newline="") as fh:
        for r, record in enumerate(_records(fh), start=1):
            if header and r == 1:
                width = len(record)
                continue
            if width is None:
                width = len(record)
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
