"""Time-series containers and second-moment estimators.

Conventions: a series is stored as a T x p matrix (rows = time points),
the covariance uses divisor 1/T and the lag-tau autocovariance uses
divisor 1/(T - tau), both centered with the single global column mean.
standardized_autocovs forms the covariance and every autocovariance of
its whitened stack from one centring of the series.
"""

from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CsvParseError,
    InvalidInputError,
    LagTooLargeError,
    NearSingularCovarianceError,
)

#: Relative eigenvalue floor below which a covariance counts as singular.
EIG_FLOOR_RATIO = 1e-12


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
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("series contains non-finite values")
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
        lags = tuple(int(t) for t in self.lags)
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


def _lag_products(x: MultiSeries, taus) -> np.ndarray:
    """The stack of xc[:T - tau]^T xc[tau:] / (T - tau) for tau in taus, where
    xc is x centred once with its global column mean: tau = 0 is the
    covariance (divisor 1/T), tau >= 1 the lag-tau autocovariance."""
    xc = x.values - x.values.mean(axis=0)
    T = x.T
    return np.array([(xc[: T - t].T @ xc[t:]) / (T - t) for t in taus])


def _symmetrized(s: np.ndarray) -> np.ndarray:
    """(S + S^T) / 2 of a matrix or of each matrix of a stack."""
    return (s + np.swapaxes(s, -1, -2)) / 2.0


def sample_cov(x: MultiSeries) -> np.ndarray:
    """Sample covariance with divisor 1/T; exactly symmetric."""
    return _symmetrized(_lag_products(x, (0,))[0])


def sample_autocov(x: MultiSeries, tau: int) -> np.ndarray:
    """Lag-tau sample autocovariance with divisor 1/(T - tau).

    Both factors are centered with the single global mean. The result is
    generally not symmetric.
    """
    tau = int(tau)
    if tau < 1:
        raise InvalidInputError(f"lag must be >= 1, got {tau}")
    if tau >= x.T:
        raise LagTooLargeError(f"lag {tau} must be smaller than series length {x.T}")
    return _lag_products(x, (tau,))[0]


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
    s = symmetrize(s)
    w, v = np.linalg.eigh(s)
    floor = EIG_FLOOR_RATIO * w[-1]
    if w[0] <= floor or w[-1] <= 0.0:
        raise NearSingularCovarianceError(
            f"eigenvalue {w[0]:.6e} at or below floor {floor:.6e}"
        )
    m = (v * (1.0 / np.sqrt(w))) @ v.T
    return (m + m.T) / 2.0


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
    r = _symmetrized(_lag_products(x, (0, *lags)))
    m = sym_inv_sqrt(r[0])
    return m, _symmetrized(m @ r[1:] @ m)


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

    The parse stops, and the file goes to the row parser, at the first line
    that holds a quote, which can join lines into one record, or is blank
    or whitespace only, which ``loadtxt`` skips and ``csv.reader`` does
    not. The array is kept only when it has rows, as many columns as the
    first line has fields, and only finite entries. ``loadtxt`` raises
    ``ValueError`` on ragged rows and unreadable fields, and so does text
    that does not decode.
    """
    if not os.path.isfile(path):  # a pipe yields its text only once
        return None
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
        with open(path) as fh, warnings.catch_warnings():
            # A file of no data lines warns "input contained no data".
            warnings.simplefilter("ignore", UserWarning)
            v = np.loadtxt(lines(fh), dtype=float, delimiter=",", comments=None,
                           skiprows=int(header), ndmin=2)
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
