import os
import subprocess
import sys

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


def series(arr):
    return MultiSeries(np.asarray(arr, dtype=float))


class TestContainers:
    def test_multiseries_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            MultiSeries(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_multiseries_rejects_single_row(self):
        with pytest.raises(InvalidInputError):
            MultiSeries(np.ones((1, 3)))

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
}


def _outcome(parse, path, header):
    try:
        return "ok", parse(path, header=header).values
    except CsvParseError as err:
        return "CsvParseError", err.row, err.col, str(err)
    except Exception as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_bulk_and_row_parsers_agree(tmp_path, name, header):
    path = tmp_path / "x.csv"
    path.write_bytes(CSV_CASES[name].encode("utf-8"))
    got = _outcome(series_module.load_csv, path, header)
    want = _outcome(series_module._load_csv_rows, path, header)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert np.array_equal(got[1], want[1])
    else:
        assert got == want


@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("newline, final", [("\n", True), ("\n", False),
                                            ("\r\n", True), ("\r", True)])
def test_well_formed_file_skips_row_parser(tmp_path, monkeypatch, header,
                                           newline, final):
    def refuse(path, header=False):
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
