import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from functools import partial

import numpy as np
import pytest

from sosdim import (
    CsvParseError,
    InvalidInputError,
    LagSet,
    LagTooLargeError,
    MultiSeries,
    NearSingularCovarianceError,
    load_csv,
    sample_autocov,
    sample_cov,
    standardized_autocovs,
    sym_inv_sqrt,
    symmetrize,
)
from sosdim import series as series_module

from helpers import record_workers


def series(arr):
    return MultiSeries(np.asarray(arr, dtype=float))


class TestContainers:
    def test_multiseries_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            MultiSeries(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_multiseries_rejects_single_row(self):
        with pytest.raises(InvalidInputError):
            MultiSeries(np.ones((1, 3)))
        with pytest.raises(InvalidInputError, match="must be 2-dimensional"):
            MultiSeries(np.ones((4, 3, 2)))
        with pytest.raises(InvalidInputError, match="at least 1 component"):
            MultiSeries(np.ones((4, 0)))

    def test_lagset_validation(self):
        assert len(LagSet((1, 2, 6))) == 3
        with pytest.raises(InvalidInputError):
            LagSet(())
        with pytest.raises(InvalidInputError):
            LagSet((0, 1))
        with pytest.raises(InvalidInputError):
            LagSet((2, 2))
        with pytest.raises(InvalidInputError):
            LagSet((3, 1))
        # One integer rule: 3.0 is 3, and 1.9 or "3" is no lag.
        assert LagSet((1, 3.0, np.int64(4))).lags == (1, 3, 4)
        for bad in (1.9, "3", None):
            with pytest.raises(InvalidInputError, match="lag must be an integer"):
                LagSet((bad,))


class TestSampleCov:
    def test_two_point_hand_case(self):
        x = series([[1.0, 0.0], [-1.0, 0.0]])
        assert np.allclose(sample_cov(x), [[1.0, 0.0], [0.0, 0.0]])

    def test_white_noise_near_identity(self):
        rng = np.random.default_rng(42)
        x = series(rng.standard_normal((10000, 3)))
        assert np.abs(sample_cov(x) - np.eye(3)).max() <= 0.05

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        c = sample_cov(series(rng.standard_normal((100, 4))))
        assert np.array_equal(c, c.T)

    def test_tau_zero_formula_matches_cov(self):
        # The lag formula at tau = 0 with divisor 1/T is the covariance.
        rng = np.random.default_rng(4)
        x = series(rng.standard_normal((100, 3)))
        xc = x.values - x.values.mean(axis=0)
        assert np.allclose((xc.T @ xc) / x.T, sample_cov(x), atol=1e-15)


class TestSampleAutocov:
    def test_zero_series(self):
        x = MultiSeries(np.zeros((10, 2)) + 1.0)  # constant, centered to zero
        assert np.allclose(sample_autocov(x, 1), 0.0)

    def test_alternating_hand_case(self):
        # Brute force over the T - tau summands: products are each -1 at
        # lag 1 and +1 at lag 2.
        x = series([[1.0], [-1.0], [1.0], [-1.0]])
        vals = x.values[:, 0]
        for tau, sign in ((1, -1.0), (2, 1.0)):
            expected = sum(vals[t] * vals[t + tau] for t in range(4 - tau)) / (4 - tau)
            got = sample_autocov(x, tau)[0, 0]
            assert got == pytest.approx(expected)
            assert got == pytest.approx(sign)

    def test_ar1_ratio_matches_theory(self):
        rng = np.random.default_rng(7)
        n = 50000
        e = rng.standard_normal(n + 500)
        v = np.empty(n + 500)
        v[0] = e[0]
        for t in range(1, n + 500):
            v[t] = 0.5 * v[t - 1] + e[t]
        x = series(v[500:])
        ratio = sample_autocov(x, 1)[0, 0] / sample_cov(x)[0, 0]
        assert abs(ratio - 0.5) <= 0.02

    def test_lag_too_large(self):
        x = series(np.random.default_rng(0).standard_normal((10, 2)))
        with pytest.raises(LagTooLargeError):
            sample_autocov(x, 10)

    def test_fractional_lag(self):
        x = series(np.random.default_rng(0).standard_normal((10, 2)))
        with pytest.raises(InvalidInputError, match="lag must be an integer, got 1.5"):
            sample_autocov(x, 1.5)
        with pytest.raises(InvalidInputError, match="lag must be >= 1, got 0"):
            sample_autocov(x, 0)
        assert np.array_equal(sample_autocov(x, 2.0), sample_autocov(x, 2))


class TestSymmetrize:
    def test_definition(self):
        assert np.allclose(
            symmetrize([[0.0, 1.0], [0.0, 0.0]]), [[0.0, 0.5], [0.5, 0.0]]
        )
        assert np.allclose(
            symmetrize([[1.0, 2.0], [4.0, 3.0]]), [[1.0, 3.0], [3.0, 3.0]]
        )

    def test_fixed_point_and_idempotence(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal((4, 4))
        once = symmetrize(s)
        assert np.array_equal(symmetrize(once), once)

    def test_linear(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        assert np.allclose(
            symmetrize(2.0 * a + 3.0 * b),
            2.0 * symmetrize(a) + 3.0 * symmetrize(b),
        )


class TestSymInvSqrt:
    def test_identity_fixed_point(self):
        assert np.allclose(sym_inv_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal_case(self):
        assert np.allclose(
            sym_inv_sqrt(np.diag([4.0, 9.0])), np.diag([0.5, 1.0 / 3.0])
        )

    def test_random_spd_self_check(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((5, 5))
        s = a @ a.T + 5.0 * np.eye(5)
        m = sym_inv_sqrt(s)
        resid = m @ s @ m - np.eye(5)
        assert np.linalg.norm(resid, 2) <= 1e-10

    def test_commutes_with_input(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        s = a @ a.T + 4.0 * np.eye(4)
        m = sym_inv_sqrt(s)
        rel = np.linalg.norm(m @ s - s @ m, 2) / np.linalg.norm(s, 2)
        assert rel <= 1e-10

    def test_near_singular_raises_with_eigenvalue(self):
        s = np.diag([1.0, 1e-16])
        with pytest.raises(NearSingularCovarianceError, match="eigenvalue"):
            sym_inv_sqrt(s)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)],
                             ids=["non-square", "1-d", "3-d"])
    def test_only_one_square_matrix(self, shape):
        for f in (sym_inv_sqrt, symmetrize):
            with pytest.raises(InvalidInputError, match="square matrix"):
                f(np.ones(shape))

    @pytest.mark.parametrize("bad", [0, 2], ids=["first", "last"])
    def test_batch_floor_names_the_singular_matrix(self, bad):
        # Every matrix of a batch is held to the floor, and the error names
        # the eigenvalues of the first one at or below it, as
        # sym_inv_sqrt names those of its one matrix.
        stack = np.array([np.diag([2.0, 1.0]), np.diag([3.0, 0.5]),
                          np.diag([4.0, 2.0])])
        stack[bad] = np.diag([5.0, 5e-13])
        with pytest.raises(NearSingularCovarianceError) as alone:
            sym_inv_sqrt(stack[bad])
        with pytest.raises(NearSingularCovarianceError) as batched:
            series_module._inv_sqrt(stack[None])
        assert str(batched.value) == str(alone.value)
        assert "5.000000e-13" in str(batched.value)

    def test_batch_is_the_matrices_one_at_a_time(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((2, 3, 4, 4))
        s = a @ np.swapaxes(a, -1, -2) + np.eye(4)
        got = series_module._inv_sqrt(s)
        for i in np.ndindex(2, 3):
            assert np.array_equal(got[i], sym_inv_sqrt(s[i]))


class TestStandardizedAutocovs:
    def test_white_noise_small_norms(self):
        rng = np.random.default_rng(12)
        x = series(rng.standard_normal((10000, 3)))
        _, h = standardized_autocovs(x, LagSet((1, 2, 3)))
        for mat in h:
            assert np.linalg.norm(mat) <= 5 * 3 / np.sqrt(10000)

    def test_eigenvalues_invariant_under_premixing(self):
        rng = np.random.default_rng(13)
        x = series(rng.standard_normal((2000, 4)).cumsum(axis=0) * 0.01
                   + rng.standard_normal((2000, 4)))
        a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        y = series(x.values @ a.T)
        _, hx = standardized_autocovs(x, LagSet((1, 2)))
        _, hy = standardized_autocovs(y, LagSet((1, 2)))
        for mx, my in zip(hx, hy):
            assert np.allclose(
                np.linalg.eigvalsh(mx), np.linalg.eigvalsh(my), atol=1e-8
            )

    def test_singleton_lag_cardinality(self):
        rng = np.random.default_rng(14)
        x = series(rng.standard_normal((100, 2)))
        m, h = standardized_autocovs(x, LagSet((1,)))
        assert h.shape == (1, 2, 2)
        assert np.abs(m @ sample_cov(x) @ m - np.eye(2)).max() <= 1e-12

    @pytest.mark.parametrize("T, p, lags", [
        (500, 1, (1, 2, 3)),
        (400, 4, (1,)),
        (300, 6, tuple(range(1, 13))),
        (60, 3, (1, 2, 59)),
        (3, 2, (1, 2)),
    ], ids=["p1", "one-lag", "twelve-lags", "edge-lag", "three-points"])
    def test_kernel_matches_reference_definitions(self, T, p, lags):
        # The one-pass kernel against the public definitions, lag by lag.
        rng = np.random.default_rng(T + p)
        v = rng.standard_normal((T, p)) @ rng.standard_normal((p, p))
        x = series(v + np.cumsum(rng.standard_normal((T, p)), axis=0) * 0.05)
        m, h = standardized_autocovs(x, LagSet(lags))
        ref = sym_inv_sqrt(sample_cov(x))
        assert np.allclose(m, ref, rtol=0, atol=1e-13)
        assert h.shape == (len(lags), p, p)
        assert m.flags.c_contiguous and h.flags.c_contiguous
        for mat, t in zip(h, lags):
            want = symmetrize(ref @ symmetrize(sample_autocov(x, t)) @ ref)
            assert np.allclose(mat, want, rtol=0, atol=1e-13)

    def test_batch_is_the_series_one_at_a_time(self):
        # A time-major (b, p, T) batch gives, series by series, the whitener
        # and stack of that series alone: a bootstrap's counts do not depend
        # on how its replicates are chunked.
        rng = np.random.default_rng(17)
        xt = np.cumsum(rng.standard_normal((5, 3, 400)), axis=-1) * 0.05
        xt += rng.standard_normal((5, 3, 400))
        lags = LagSet((1, 2, 5))
        m, h = series_module._whiten(xt, lags)
        assert m.shape == (5, 3, 3) and h.shape == (5, 3, 3, 3)
        for i in range(5):
            mi, hi = series_module._whiten(xt[i], lags)
            assert np.array_equal(m[i], mi) and np.array_equal(h[i], hi)
            ref = standardized_autocovs(series(xt[i].T), lags)
            assert np.allclose(m[i], ref[0], rtol=0, atol=1e-13)
            assert np.allclose(h[i], ref[1], rtol=0, atol=1e-13)

    def test_kernel_errors(self):
        x = series(np.random.default_rng(15).standard_normal((20, 2)))
        with pytest.raises(LagTooLargeError, match="max lag 20"):
            standardized_autocovs(x, LagSet((1, 20)))
        collinear = series(np.outer(np.arange(20.0), [1.0, 2.0]))
        with pytest.raises(NearSingularCovarianceError):
            standardized_autocovs(collinear, LagSet((1,)))
        batch = np.stack([x.values.T, collinear.values.T, x.values.T])
        with pytest.raises(NearSingularCovarianceError):
            series_module._whiten(batch, LagSet((1,)))


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,2.0\n3.5,-4.0\n0.0,1e-3\n")
        x = load_csv(path)
        assert x.T == 3 and x.p == 2
        assert x.values[1, 1] == -4.0

    def test_header_flag(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        x = load_csv(path, header=True)
        assert x.T == 2

    def test_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(path)
        assert err.value.row == 2 and err.value.col == 2

    def test_missing_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(path)
        assert err.value.row == 2 and err.value.col == 2

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(path)
        assert err.value.row == 2


# Inputs on which the bulk parser in load_csv must agree with the row
# parser: the same array, or the same error at the same row and column.
CSV_CASES = {
    "plain": "1.5,-2\n0.12345678901234567,4e-2\n5,6\n7,8\n",
    "no_final_newline": "1,2\n3,4\n5,6\n7,8",
    "crlf": "1,2\r\n3,4\r\n5,6\r\n7,8\r\n",
    "cr_only": "1,2\r3,4\r5,6\r7,8\r",
    "blank_line_middle": "1,2\n3,4\n\n5,6\n7,8\n",
    "blank_line_end": "1,2\n3,4\n5,6\n7,8\n\n",
    "whitespace_line": "1,2\n3,4\n \t \n5,6\n7,8\n",
    "hash_in_field": "1,2\n3,4\n5,#6\n7,8\n",
    "quoted_field": '1,2\n3,4\n"5",6\n7,8\n',
    "open_quote_in_header": 'a,"b\n1,2\n3,4\n5,6\n',
    "nan": "1,2\n3,4\nnan,6\n7,8\n",
    "inf": "1,2\n3,4\n5,-inf\n7,8\n",
    "overflow": "1,2\n3,4\n5,1e400\n7,8\n",
    "underscore": "1,2\n3,4\n1_0,6\n7,8\n",
    "hex": "1,2\n3,4\n0x10,6\n7,8\n",
    "padded": " 1 , 2 \n3,  4\n5  ,6\n7,8\n",
    "tab_padded": "\t1,2\t\n3\t,\t4\n5,6\n7,8\n",
    "float_forms": "+.5,5.\n1E3,-0\n5,6\n7,8\n",
    "trailing_comma": "1,2,\n3,4,\n5,6,\n7,8,\n",
    "ragged_row": "1,2\n3,4\n5\n7,8\n",
    "empty_file": "",
    "only_newline": "\n",
    "single_column": "1\n2\n3\n4\n",
    "header": "a,b\n1,2\n3,4\n5,6\n",
    "header_wider": "a,b,c\n1,2\n3,4\n5,6\n",
    "utf8_bom": "\ufeff1,2\n3,4\n5,6\n7,8\n",
    "semicolon": "1;2\n3;4\n5;6\n7;8\n",
    "nul": "1,2\n3,4\n5,\x006\n7,8\n",
    "header_narrower": "a\n1,2\n3,4\n",
    "header_only": "a,b\n",
    "header_blank": "\n1,2\n3,4\n",
    "quoted_header_wider": '"a,b",c\n1,2,3\n',
    "quoted_field_newline": '1,"2\n5"\n3,4\n',
    "cr_cr_lf": "1,2\r\r\n3,4\r\n",
    "mixed_endings": "1,2\r\n3,4\n5,6\r7,8\n",
    "only_comma": "1,2\n,\n",
    "formfeed_line": "1,2\n\x0c\n3,4\n",
    # Split after its middle byte, each half is rectangular on its own.
    "wider_second_half": "1.5,2.5\n3.5,4.5\n5,6,7\n8,9,0\n",
}


def _rows(path, header=False):
    """The reference parser on the bytes of the file at path."""
    return series_module._load_csv_rows(path.read_bytes(), header)


def _outcome(parse, path, header):
    try:
        return "ok", parse(path, header=header).values
    except CsvParseError as err:
        return "CsvParseError", err.row, err.col, str(err)
    except Exception as err:
        return type(err).__name__, str(err)


def _assert_same(got, want):
    """Two _outcome results agree: the same array, or the same error."""
    assert got[0] == want[0]
    if got[0] == "ok":
        assert np.array_equal(got[1], want[1])
    else:
        assert got == want


@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_bulk_and_row_parsers_agree(tmp_path, name, header):
    path = tmp_path / "x.csv"
    path.write_bytes(CSV_CASES[name].encode("utf-8"))
    got = _outcome(series_module.load_csv, path, header)
    want = _outcome(_rows, path, header)
    _assert_same(got, want)


@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("newline, final", [("\n", True), ("\n", False),
                                            ("\r\n", True), ("\r", True)])
def test_well_formed_file_skips_row_parser(tmp_path, monkeypatch, header,
                                           newline, final):
    def refuse(data, header=False):
        raise AssertionError("row parser reached on a well-formed file")

    data = np.random.default_rng(16).standard_normal((200, 5))
    lines = [",".join(f"{v:.17g}" for v in row) for row in data]
    text = newline.join((["a,b,c,d,e"] if header else []) + lines)
    path = tmp_path / "x.csv"
    path.write_bytes((text + newline if final else text).encode())
    monkeypatch.setattr(series_module, "_load_csv_rows", refuse)
    assert np.array_equal(load_csv(path, header=header).values, data)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_reads_a_pipe():
    # A pipe can be read once, so load_csv must not read it twice.
    proc = subprocess.run(
        [sys.executable, "-c",
         "from sosdim import load_csv; print(load_csv('/dev/stdin').values.tolist())"],
        input="1,2\n3,4\n5,6\n", capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]"


@pytest.fixture
def split_ranges(monkeypatch):
    """Every input is split, as if it were over the size threshold on two
    CPUs; the list collects the byte spans of each split's two ranges."""
    if sys.platform != "linux":
        pytest.skip("files are split on Linux only")
    splits = []
    run_tasks = series_module._run_tasks

    def recorded(fn, spans, workers):
        splits.append(spans)
        return run_tasks(fn, spans, workers)

    monkeypatch.setattr(series_module, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(series_module, "_available_cpus", lambda: 2)
    monkeypatch.setattr(series_module, "_run_tasks", recorded)
    return splits


@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_split_and_row_parsers_agree(tmp_path, split_ranges, name, header):
    test_bulk_and_row_parsers_agree(tmp_path, name, header)


@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("newline, final", [("\n", True), ("\n", False),
                                            ("\r\n", True), ("\r", True)])
def test_split_well_formed_file_skips_row_parser(tmp_path, monkeypatch,
                                                 split_ranges, header,
                                                 newline, final):
    test_well_formed_file_skips_row_parser(tmp_path, monkeypatch, header,
                                           newline, final)
    # A file with no "\n" after its middle byte is parsed in one range.
    assert len(split_ranges) == ("\n" in newline)


@pytest.mark.parametrize("fault", ["quote", "blank", "ragged"])
def test_split_fault_in_second_range(tmp_path, split_ranges, fault):
    data = np.random.default_rng(23).standard_normal((200, 5))
    lines = [",".join(f"{v:.17g}" for v in row) for row in data]
    row = 150
    line = lines[row - 1]
    lines[row - 1] = {"quote": '"' + line.replace(",", '",', 1),
                      "blank": "",
                      "ragged": line.rsplit(",", 1)[0]}[fault]
    path = tmp_path / "x.csv"
    path.write_text("\n".join(lines) + "\n")
    got = _outcome(series_module.load_csv, path, False)
    want = _outcome(_rows, path, False)
    [(first, second)] = split_ranges
    assert first == slice(0, second.start) and second.stop is None
    assert second.start <= len("\n".join(lines[:row - 1])) + 1  # row's start
    if fault == "quote":
        assert got[0] == want[0] == "ok"
        assert np.array_equal(got[1], data) and np.array_equal(want[1], data)
    else:
        assert got == want and got[1] == row


def _load_values(path):
    return load_csv(path).values


def test_split_in_a_daemonic_process(tmp_path, split_ranges):
    # A multiprocessing.Pool worker is daemonic and may start no process, so
    # it parses the file in one range.
    data = np.random.default_rng(25).standard_normal((200, 5))
    path = tmp_path / "x.csv"
    np.savetxt(path, data, fmt="%.17g", delimiter=",")
    with multiprocessing.get_context("fork").Pool(1) as pool:
        [got] = pool.map(_load_values, [path])
    assert np.array_equal(got, data)


def _no_pool():
    raise AssertionError("a worker process was started")


# Rows of five "%.17e" fields of values in [1, 2) take 120 bytes each.
_JUST_UNDER_THE_THRESHOLD = (series_module._SPLIT_BYTES - 1) // 120


@pytest.mark.parametrize("threshold, cpus, platform, rows, cols", [
    pytest.param(None, 2, "linux", 2000, 5, id="None-2-linux"),
    pytest.param(1, 1, "linux", 2000, 5, id="1-1-linux"),
    pytest.param(1, 2, "darwin", 2000, 5, id="1-2-darwin"),
    pytest.param(None, 2, "linux", _JUST_UNDER_THE_THRESHOLD, 5,
                 id="just-under-the-threshold"),
    pytest.param(None, 2, "linux", 2000, 10, id="d1-shaped"),
])
def test_no_pool_where_a_split_cannot_win(tmp_path, monkeypatch, threshold,
                                          cpus, platform, rows, cols):
    # A file under the threshold, any file on one CPU, and any file off
    # Linux, where fork is not the default start method, is one range.
    if threshold is not None:
        monkeypatch.setattr(series_module, "_SPLIT_BYTES", threshold)
    monkeypatch.setattr(series_module, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(series_module, "_context", _no_pool)
    data = np.random.default_rng(24).uniform(1, 2, (rows, cols))
    path = tmp_path / "x.csv"
    np.savetxt(path, data, fmt="%.17e", delimiter=",")
    if rows == _JUST_UNDER_THE_THRESHOLD:
        assert 0 < series_module._SPLIT_BYTES - path.stat().st_size <= 120
    if cols == 10:  # the size of a bootstrap_d1 input, T = 2000 and p = 10
        assert 0.4e6 < path.stat().st_size < 0.5e6
    assert np.array_equal(load_csv(path).values, data)


def test_split_from_the_threshold(tmp_path, monkeypatch):
    # A file of _SPLIT_BYTES or a few bytes more is split on two CPUs.
    if sys.platform != "linux":
        pytest.skip("files are split on Linux only")
    splits = []
    run_tasks = series_module._run_tasks

    def recorded(fn, spans, workers):
        splits.append(spans)
        return run_tasks(fn, spans, workers)

    monkeypatch.setattr(series_module, "_available_cpus", lambda: 2)
    monkeypatch.setattr(series_module, "_run_tasks", recorded)
    rows = -(-series_module._SPLIT_BYTES // 120)  # 120 bytes a row, as above
    data = np.random.default_rng(25).uniform(1, 2, (rows, 5))
    path = tmp_path / "x.csv"
    np.savetxt(path, data, fmt="%.17e", delimiter=",")
    assert 0 <= path.stat().st_size - series_module._SPLIT_BYTES < 120
    assert np.array_equal(load_csv(path).values, data)
    assert len(splits) == 1


@pytest.fixture
def time_limit():
    """Fail, rather than hang, a test whose _run_tasks call waits too long."""
    if not hasattr(signal, "SIGALRM"):
        pytest.skip("needs SIGALRM")

    def expire(signum, frame):
        raise TimeoutError("_run_tasks still waiting after 60 s")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, handler)


def _fifo(tmp_path, data: bytes):
    """A FIFO in tmp_path that a thread fills with data once it is opened
    for reading. A second open for reading finds no writer and blocks."""
    path = tmp_path / "x.fifo"
    os.mkfifo(path)

    def write():
        with open(path, "wb") as fh:
            fh.write(data)

    threading.Thread(target=write, daemon=True).start()
    return path


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_a_fifo_reads_as_the_file(tmp_path, request, time_limit, split, name,
                                  header):
    # A FIFO yields its bytes once, so load_csv opens it once; it then gives
    # the file's array or error, and is split where the file is.
    splits = request.getfixturevalue("split_ranges") if split else []
    data = CSV_CASES[name].encode("utf-8")
    path = tmp_path / "x.csv"
    path.write_bytes(data)
    want = _outcome(load_csv, path, header)
    file_splits = list(splits)
    got = _outcome(load_csv, _fifo(tmp_path, data), header)
    _assert_same(got, want)
    assert len(file_splits) <= 1 and splits == file_splits * 2


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_fifo_gets_the_bulk_parser_and_the_split(tmp_path, monkeypatch,
                                                   split_ranges, time_limit):
    def refuse(data, header=False):
        raise AssertionError("row parser reached on a well-formed FIFO")

    data = np.random.default_rng(26).standard_normal((200, 5))
    text = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in data)
    monkeypatch.setattr(series_module, "_load_csv_rows", refuse)
    got = load_csv(_fifo(tmp_path, text.encode()))
    assert np.array_equal(got.values, data)
    [(first, second)] = split_ranges
    assert first == slice(0, second.start) and second.stop is None
    assert text[second.start - 1] == "\n"


def _square(t):
    return t * t


@pytest.mark.parametrize("tasks, workers", [(6, 2), (6, 3), (7, 5), (3, 8),
                                            (1, 4), (5, 1)])
def test_run_tasks_is_a_serial_run(monkeypatch, tasks, workers):
    # N workers are the calling process and N - 1 started ones, never more
    # than there are tasks, and the results are in task order.
    started = record_workers(monkeypatch)
    got = series_module._run_tasks(_square, list(range(tasks)), workers)
    assert got == [t * t for t in range(tasks)]
    assert len(started) == min(tasks, workers) - 1
    assert multiprocessing.active_children() == []


def _logged_square(log, t):
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    os.write(fd, f"{t}\n".encode())
    os.close(fd)
    return t * t


def test_run_tasks_claims_each_task_once(tmp_path, time_limit):
    # Six processes on fewer cores race for 3,000 short tasks: a lost update
    # of the shared counter would run a task twice.
    log = tmp_path / "claimed"
    got = series_module._run_tasks(partial(_logged_square, log),
                                   list(range(3000)), 6)
    assert got == [t * t for t in range(3000)]
    assert sorted(map(int, log.read_text().split())) == list(range(3000))
    assert multiprocessing.active_children() == []


def _fail_at_two(log, t):
    with open(log, "a") as fh:
        fh.write(f"{t}\n")
    if t == 2:
        raise ValueError("task 2 failed")
    time.sleep(0.15 * (t + 1))
    return t


@pytest.mark.parametrize("workers", [2, 3])
def test_run_tasks_claims_nothing_after_a_failure(tmp_path, workers,
                                                  time_limit):
    # Task 2 fails at once, while tasks 0 and 1 still run: no process claims
    # task 3, and the error comes once tasks 0 and 1 have reported.
    log = tmp_path / "claimed"
    with pytest.raises(ValueError, match="task 2 failed"):
        series_module._run_tasks(partial(_fail_at_two, log), list(range(8)),
                                 workers)
    assert sorted(map(int, log.read_text().split())) == [0, 1, 2]
    assert multiprocessing.active_children() == []


def _fail_one_late_and_two_at_once(t):
    time.sleep({0: 0.1, 1: 0.3}.get(t, 0))  # a worker claims task 1
    if t in (1, 2):
        raise ValueError(f"task {t} failed")
    return t


@pytest.mark.parametrize("workers", [2, 3])
def test_run_tasks_raises_the_lowest_failing_task(workers, time_limit):
    # Task 2 fails first, but task 1 fails too, and its error is the one a
    # serial run raises.
    with pytest.raises(ValueError, match="task 1 failed"):
        series_module._run_tasks(_fail_one_late_and_two_at_once,
                                 list(range(6)), workers)
    assert multiprocessing.active_children() == []


def _fail_first(caller, t):
    if os.getpid() == caller:
        time.sleep(0.1)  # the worker has claimed task 1 by now
        raise ValueError(f"task {t} failed")
    time.sleep(60)
    return t


def test_run_tasks_does_not_wait_for_later_tasks(time_limit):
    # Once the first task has failed, no later task can change the outcome,
    # so a worker still running one is terminated rather than awaited.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="task 0 failed"):
        series_module._run_tasks(partial(_fail_first, os.getpid()),
                                 list(range(4)), 2)
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


def _exit_in_a_worker(caller, t):
    if os.getpid() != caller:
        os._exit(3)
    time.sleep(0.1)
    return t


def test_run_tasks_raises_when_a_worker_exits_early(time_limit):
    # A worker that dies mid-task never reports it; the calling process
    # raises once the pipe ends, and does not wait for the missing result.
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="exited without reporting task"):
        series_module._run_tasks(partial(_exit_in_a_worker, os.getpid()),
                                 list(range(4)), 2)
    assert time.perf_counter() - start < 10
    assert multiprocessing.active_children() == []


def _divide_by_zero_in_a_worker(claimed, t):
    if t == 0:  # the calling process's task: a worker claims task 1 meanwhile
        deadline = time.monotonic() + 30
        while not os.path.exists(claimed) and time.monotonic() < deadline:
            time.sleep(0.01)
        return t
    open(claimed, "w").close()
    return t / 0


def test_run_tasks_keeps_a_workers_traceback(tmp_path, time_limit):
    # The error a worker raised is raised as it is, and the traceback shown
    # goes on into the task's frame in the worker.
    with pytest.raises(ZeroDivisionError) as err:
        series_module._run_tasks(
            partial(_divide_by_zero_in_a_worker, tmp_path / "claimed"), [0, 1], 2)
    shown = "".join(traceback.format_exception(err.type, err.value, err.tb))
    assert 'in _divide_by_zero_in_a_worker\n    return t / 0' in shown
    assert multiprocessing.active_children() == []


class _Odd(Exception):
    """An error that pickles but cannot be rebuilt from its args."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def _odd_in_a_worker(claimed, t):
    if t == 0:
        return _divide_by_zero_in_a_worker(claimed, t)
    open(claimed, "w").close()
    raise _Odd("bad", 1)


def test_run_tasks_names_an_error_pickle_cannot_rebuild(tmp_path, time_limit):
    # The caller cannot rebuild _Odd("bad", 1) from its args ("bad 1",), so
    # it raises an error that names the class and message, with the
    # worker's traceback as its cause.
    with pytest.raises(RuntimeError, match=r"^_Odd: bad 1$") as err:
        series_module._run_tasks(
            partial(_odd_in_a_worker, tmp_path / "claimed"), [0, 1], 2)
    shown = "".join(traceback.format_exception(err.type, err.value, err.tb))
    assert 'raise _Odd("bad", 1)' in shown
    assert multiprocessing.active_children() == []


def _lock_in_a_worker(claimed, t):
    if t == 0:
        return _divide_by_zero_in_a_worker(claimed, t)
    open(claimed, "w").close()
    return threading.Lock()


def test_run_tasks_names_a_result_pickle_cannot_send(tmp_path, time_limit):
    # A worker cannot send the lock its task returned; the task fails with
    # an error that names the result's type, with the worker's traceback of
    # the pickling error as its cause, and the worker does not die silently.
    with pytest.raises(RuntimeError,
                       match=r"^task 1 returned a lock, which pickle cannot send$") as err:
        series_module._run_tasks(
            partial(_lock_in_a_worker, tmp_path / "claimed"), [0, 1], 2)
    assert isinstance(err.value.__cause__, series_module._RemoteTraceback)
    shown = "".join(traceback.format_exception(err.type, err.value, err.tb))
    assert "cannot pickle" in shown and "pickle.dumps((i, True, result))" in shown
    assert multiprocessing.active_children() == []


def _large_result(t):
    time.sleep(0.05)
    return os.getpid(), bytes(1 << 20)


def test_run_tasks_reads_a_large_report_between_its_own_tasks(time_limit):
    # A 1 MB report fills the pipe's buffer, so the worker that sends it
    # waits until the calling process reads it. Read only once the calling
    # process has no task left, the worker would run one task of eight.
    got = series_module._run_tasks(_large_result, list(range(8)), 2)
    assert all(data == bytes(1 << 20) for _, data in got)
    assert sum(pid != os.getpid() for pid, _ in got) >= 2
    assert multiprocessing.active_children() == []


_CLAIM_AND_SLEEP = """
import sys, time
from functools import partial
from sosdim import series
def task(log, t):
    with open(log, "a") as fh:
        fh.write(f"{t}\\n")
    time.sleep(0.05)
    return t
series._run_tasks(partial(task, sys.argv[1]), list(range(1000)), 2)
"""


@pytest.mark.skipif(sys.platform != "linux",
                    reason="the script's workers fork on Linux only")
def test_run_tasks_workers_stop_once_the_caller_is_killed(tmp_path):
    # A killed calling process runs no finally block, so its worker must
    # notice by itself: its next report finds no reader, and it claims no
    # further task.
    log = tmp_path / "claimed"
    log.touch()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen([sys.executable, "-c", _CLAIM_AND_SLEEP, str(log)],
                            env=env)
    try:
        deadline = time.monotonic() + 60
        while len(log.read_text().split()) < 6 and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        proc.kill()
        proc.wait()
    claimed = len(log.read_text().split())
    time.sleep(1)
    assert 6 <= claimed and len(log.read_text().split()) <= claimed + 1
