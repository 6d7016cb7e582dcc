import numpy as np
import pytest
import scipy.stats
from scipy.special import chdtrc

from sosdim import (
    InvalidInputError,
    LagSet,
    MultiSeries,
    all_q_tests,
    bootstrap_noise_test,
    energy_unmix,
    estimate_dimension,
    estimate_dimension_from_fit,
    noise_test,
    unmix,
)
from sosdim import test_statistic as statistic_of
from sosdim.dimtest import _chi2_sf, dimension_report
from sosdim.dimtest import test_report as report_of
from sosdim.simulate import make_setting, simulate_setting


def white_series(n, p, seed):
    rng = np.random.default_rng(seed)
    return MultiSeries(rng.standard_normal((n, p)))


class TestStatistic:
    def test_df_formula_exhaustive(self):
        for p in range(1, 13):
            for q in range(p):
                r = p - q
                for k in range(1, 13):
                    free = k * sum(range(1, r + 1))
                    assert k * r * (r + 1) // 2 == free

    def test_statistic_block_sizes_and_q_range(self):
        x = white_series(500, 4, 1)
        fit = unmix(x, (1, 2, 3), "sobi")
        full = statistic_of(fit, 0, 500)
        assert (full.r, full.df) == (4, 3 * 4 * 5 // 2)
        last = statistic_of(fit, 3, 500)
        assert (last.r, last.df) == (1, 3)
        assert [t.q for t in all_q_tests(fit, 500)] == [0, 1, 2, 3]
        with pytest.raises(InvalidInputError):
            statistic_of(fit, 4, 500)

    def test_df_example(self):
        x = white_series(400, 10, 2)
        fit = unmix(x, range(1, 7), "sobi")
        assert statistic_of(fit, 5, 400).df == 90

    def test_two_by_two_hand_case(self):
        # One lag, q = 0, block [[0, a], [a, 0]]: m_hat = 2 a^2 / 4.
        from dataclasses import replace

        x = white_series(300, 2, 3)
        fit = unmix(x, (1,), "sobi")
        a = 0.3
        block = np.array([[0.0, a], [a, 0.0]])
        fake = replace(fit, U=np.eye(2), H=np.array([block]))
        ts = statistic_of(fake, 0, 300)
        assert ts.m_hat == pytest.approx(a * a / 2.0, abs=1e-15)
        assert ts.scaled_stat == pytest.approx(300 * 1 * 4 * a * a / 2, abs=1e-9)

    def test_scaled_stat_identity(self):
        x = white_series(700, 3, 4)
        fit = unmix(x, (1, 2), "sobi")
        for q in range(3):
            ts = statistic_of(fit, q, 700)
            r = 3 - q
            assert ts.scaled_stat == pytest.approx(
                700 * 2 * r * r * ts.m_hat, rel=1e-12
            )

    def test_brute_force_recomputation(self):
        x = white_series(1000, 4, 5)
        fit = energy_unmix(x, (1, 2, 3), "sobi")
        for q in range(4):
            ts = noise_test(x, (1, 2, 3), q, "sobi")
            w = fit.U[:, q:]
            total = 0.0
            for h in fit.H:
                d = w.T @ h @ w
                d = (d + d.T) / 2
                total += np.sum(d**2)
            expected = 1000 * total
            assert ts.scaled_stat == pytest.approx(expected, abs=1e-10)
            assert ts.p_value == pytest.approx(
                scipy.stats.chi2.sf(expected, ts.df), abs=1e-12
            )

    def test_statistic_of_a_sobi_fit_is_the_noise_test(self):
        # test_statistic reads the energy basis of the fit it is given, not
        # the trailing columns of SOBI's own rotation.
        x, _, _ = simulate_setting(make_setting("H1"), 2000, 26)
        fit = unmix(x, range(1, 7), "sobi")
        for q in range(x.p):
            got = statistic_of(fit, q, x.T)
            want = noise_test(x, range(1, 7), q, "sobi")
            assert got.df == want.df
            assert got.scaled_stat == pytest.approx(want.scaled_stat, rel=1e-10)
            assert got.p_value == pytest.approx(want.p_value, abs=1e-12)
        # So does the bootstrap: it resamples the sources on that basis.
        a = estimate_dimension_from_fit(x, fit, test_kind="bootstrap",
                                        b_reps=20, seed=3)
        b = estimate_dimension(x, range(1, 7), test_kind="bootstrap",
                               b_reps=20, seed=3)
        assert [(t.q, t.p_value) for t in a.trace] == [
            (t.q, t.p_value) for t in b.trace]

    def test_invariance_under_orthogonal_premixing(self):
        x = white_series(2000, 4, 6)
        rng = np.random.default_rng(7)
        qmat, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        y = MultiSeries(x.values @ qmat.T)
        for q in range(4):
            a = noise_test(x, (1, 2), q, "sobi")
            b = noise_test(y, (1, 2), q, "sobi")
            assert abs(a.m_hat - b.m_hat) <= 1e-8


class TestChi2Tail:
    # Each stat is a function of the df of each q: zero, far below, at and
    # above the mean, and deep in the tail.
    STATS = {
        "zero": lambda df: 0.0 * df,
        "1e-3df": lambda df: 1e-3 * df,
        "0.3df": lambda df: 0.3 * df,
        "df": lambda df: 1.0 * df,
        "df+3sd": lambda df: df + 3 * np.sqrt(2.0 * df),
        "2df": lambda df: 2.0 * df,
        "10df+500": lambda df: 10.0 * df + 500,
    }

    @pytest.mark.parametrize("stat_of", STATS.values(), ids=STATS.keys())
    def test_matches_scipy_over_the_df_grid(self, stat_of):
        for p in range(1, 21):
            r = p - np.arange(p)
            for k in range(1, 13):
                df = k * r * (r + 1) // 2
                stat = stat_of(df)
                got = _chi2_sf(stat, k)
                want = chdtrc(df, stat)
                assert got.shape == (p,)
                assert not np.isnan(got).any()
                assert np.all((0.0 <= got) & (got <= 1.0))
                # Exactly 1 at stat = 0, for odd and even df alike.
                assert np.all(got[stat == 0] == 1.0)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
                big = want > 1e-300
                np.testing.assert_allclose(got[big], want[big], rtol=1e-10, atol=0)


class TestNoiseTest:
    @pytest.mark.parametrize("call", ["noise_test", "estimate_dimension"])
    def test_energy_basis_computed_once(self, monkeypatch, call):
        import sosdim.bss
        import sosdim.dimtest

        calls = []
        original = sosdim.bss._energy_basis

        def counted(h):
            calls.append(len(h))
            return original(h)

        monkeypatch.setattr(sosdim.bss, "_energy_basis", counted)
        monkeypatch.setattr(sosdim.dimtest, "_energy_basis", counted)
        x = white_series(400, 4, 30)
        if call == "noise_test":
            noise_test(x, (1, 2, 3), 1, "sobi")
        else:
            estimate_dimension(x, (1, 2, 3), method="sobi")
        assert calls == [3]

    def test_signal_rejected_noise_accepted(self):
        setting = make_setting("H1")
        x, _, _ = simulate_setting(setting, 2000, 10)
        reject = noise_test(x, range(1, 7), 2, "sobi")
        accept = noise_test(x, range(1, 7), 3, "sobi")
        assert reject.p_value < 1e-4
        assert accept.p_value > 1e-4

    def test_amuse_single_lag(self):
        x = white_series(1000, 3, 11)
        ts = noise_test(x, (1,), 1, "amuse")
        assert ts.method == "amuse"
        assert ts.df == 3
        assert 0.0 <= ts.p_value <= 1.0

    def test_sobi_tests_skip_the_joint_diagonalizer(self, monkeypatch):
        # The tests run on the energy basis, which does not depend on
        # SOBI's rotation, so none of them diagonalizes.
        import sosdim.bss

        def refuse(*args, **kwargs):
            raise AssertionError("joint_diagonalize called")

        monkeypatch.setattr(sosdim.bss, "joint_diagonalize", refuse)
        x = white_series(600, 4, 25)
        noise_test(x, (1, 2, 3), 1, "sobi")
        bootstrap_noise_test(x, (1, 2, 3), 1, "sobi", b_reps=5, seed=0)
        estimate_dimension(x, (1, 2, 3))


class TestBootstrap:
    def test_deterministic_given_seed(self):
        x = white_series(400, 3, 12)
        a = bootstrap_noise_test(x, (1, 2), 1, "sobi", b_reps=50, seed=9)
        b = bootstrap_noise_test(x, (1, 2), 1, "sobi", b_reps=50, seed=9)
        assert a.p_value == b.p_value
        c = bootstrap_noise_test(x, (1, 2), 1, "sobi", b_reps=50, seed=10)
        assert a.p_value != c.p_value or a.m_hat == c.m_hat

    def test_boundary_q(self):
        x = white_series(400, 2, 13)
        ts = bootstrap_noise_test(x, (1,), 1, "sobi", b_reps=30, seed=0)
        assert 0.0 < ts.p_value <= 1.0
        assert ts.p_value * 31 == pytest.approx(round(ts.p_value * 31))

    def test_rejects_bad_b(self):
        x = white_series(400, 2, 14)
        with pytest.raises(InvalidInputError):
            bootstrap_noise_test(x, (1,), 1, "sobi", b_reps=0)
        with pytest.raises(InvalidInputError, match="replicate count"):
            estimate_dimension(x, (1,), test_kind="bootstrap", b_reps=0)

    @pytest.mark.parametrize("seed", [-1, [3, -2]], ids=["int", "sequence"])
    @pytest.mark.parametrize("call", ["test", "estimate"])
    def test_negative_seed_is_an_input_error(self, call, seed):
        x = white_series(300, 3, 14)
        with pytest.raises(InvalidInputError, match="seed"):
            if call == "test":
                bootstrap_noise_test(x, (1,), 1, "amuse", seed=seed)
            else:
                estimate_dimension(x, (1,), method="amuse",
                                   test_kind="bootstrap", seed=seed)

    def test_asymptotic_ignores_the_seed(self):
        x = white_series(300, 3, 14)
        est = estimate_dimension(x, (1,), method="amuse", seed=-1)
        assert est.d_hat == estimate_dimension(x, (1,), method="amuse").d_hat

    @pytest.mark.parametrize("b_reps", [1, 7])
    def test_every_replicate_goes_through_the_kernel(self, monkeypatch, b_reps):
        # One kernel call for the observed series (through bss) and one per
        # chunk of replicates (through dimtest), whose leading sizes sum to
        # B: a second whitening path would show here.
        import sosdim.dimtest
        import sosdim.series

        x = white_series(300, 3, 16)
        monkeypatch.setattr(sosdim.dimtest, "_CHUNK_BYTES", 3 * 8 * x.p * x.T)
        calls = []
        original = sosdim.series._whiten
        for module in (sosdim.series, sosdim.dimtest):
            def counted(xt, lags, name=module.__name__):
                calls.append((name, xt.shape[:-2]))
                return original(xt, lags)

            monkeypatch.setattr(module, "_whiten", counted)
        bootstrap_noise_test(x, (1, 2), 1, "sobi", b_reps=b_reps, seed=4)
        chunks = [min(3, b_reps - first) for first in range(0, b_reps, 3)]
        assert calls == ([("sosdim.series", ())]
                         + [("sosdim.dimtest", (b,)) for b in chunks])

    def test_chunk_size_leaves_the_p_values_unchanged(self, monkeypatch):
        import sosdim.dimtest

        x = simulate_setting(make_setting("D1"), 2000, [41, 0])[0]
        got = {}
        for chunk in (1, 3, 25):
            monkeypatch.setattr(sosdim.dimtest, "_CHUNK_BYTES",
                                chunk * 8 * x.p * x.T)
            got[chunk] = [bootstrap_noise_test(x, range(1, 7), q, "sobi",
                                               b_reps=25, seed=q).p_value
                          for q in range(x.p)]
        assert got[1] == got[3] == got[25]

    # Bootstrap counts of the one-replicate-a-call implementation, which
    # chunking must reproduce: (setting, n, draw, lags, method, q, B, seed,
    # count), p = (1 + count) / (B + 1).
    PINNED = [
        ("D1", 1000, [12, 0], range(1, 7), "sobi", 3, 40, 3, 0),
        ("D1", 1000, [12, 0], range(1, 7), "sobi", 5, 40, 5, 6),
        ("D1", 1000, [12, 0], range(1, 7), "sobi", 7, 40, 7, 36),
        ("H1", 500, [77, 3], (1,), "amuse", 3, 200, [77, 3], 32),
        ("S5", 3000, [5, 1], range(1, 13), "sobi", 3, 20, 2, 1),
    ]

    @pytest.mark.parametrize("case", PINNED,
                             ids=["d1-q3", "d1-q5", "d1-q7", "h1-amuse", "s5-sobi12"])
    def test_pinned_counts(self, case):
        name, n, draw, lags, method, q, b_reps, seed, count = case
        x = simulate_setting(make_setting(name), n, draw)[0]
        ts = bootstrap_noise_test(x, lags, q, method, b_reps=b_reps, seed=seed)
        assert ts.p_value == (1 + count) / (b_reps + 1)

    def test_pinned_estimate(self):
        x = simulate_setting(make_setting("D1"), 1000, [12, 0])[0]
        est = estimate_dimension(x, range(1, 7), method="sobi",
                                 test_kind="bootstrap", b_reps=30, seed=1)
        assert est.d_hat == 5
        assert [(t.q, t.p_value) for t in est.trace] == [
            (5, 9 / 31), (2, 1 / 31), (4, 1 / 31)]

    def test_chunk_size_bounds_memory(self):
        from sosdim.dimtest import _CHUNK_BYTES, _chunk_reps

        # D1-sized replicates share a chunk; a 50,000 x 20 replicate (8 MB)
        # is larger than the budget and goes alone, never all 200 at once.
        for p, T, b_reps in [(10, 2000, 25), (10, 2000, 200), (5, 50, 3)]:
            b = _chunk_reps(p, T, b_reps)
            assert 1 <= b <= b_reps
            assert b * 8 * p * T <= _CHUNK_BYTES
            assert b == b_reps or (b + 1) * 8 * p * T > _CHUNK_BYTES
        assert _chunk_reps(20, 50_000, 200) == 1

    def test_close_to_asymptotic_on_null(self):
        # Same replicates through both tests; rejection rates within 0.03.
        setting = make_setting("H1")
        reps, hits_a, hits_b = 120, 0, 0
        for rep in range(reps):
            x, _, _ = simulate_setting(setting, 500, [77, rep])
            pa = noise_test(x, (1,), 3, "amuse").p_value
            pb = bootstrap_noise_test(
                x, (1,), 3, "amuse", b_reps=200, seed=[77, rep]
            ).p_value
            hits_a += pa < 0.05
            hits_b += pb < 0.05
        assert abs(hits_a - hits_b) / reps <= 0.03


class TestStrategies:
    @staticmethod
    def select(pvals, strategy):
        from sosdim.dimtest import _select_dimension

        return _select_dimension(lambda q: pvals[q], len(pvals), 0.05, strategy)

    @pytest.mark.parametrize("strategy",
                             ["forward", "backward", "divide_and_conquer"])
    def test_rule_application_on_monotone_trace(self, strategy):
        d_hat, _, monotone = self.select((0.001, 0.002, 0.300, 0.700), strategy)
        assert d_hat == 2
        assert monotone

    def test_forward_stops_early(self):
        d_hat, order, _ = self.select((0.001, 0.300, 0.001, 0.700), "forward")
        assert d_hat == 1
        assert list(order) == [0, 1]

    def test_backward_scans_from_top(self):
        d_hat, order, _ = self.select((0.001, 0.300, 0.001, 0.700), "backward")
        assert d_hat == 3
        assert list(order) == [3, 2]

    def test_dnc_probe_pattern_self_consistent(self):
        # The binary search only probes points consistent with the
        # interval invariant, so its own trace is always monotone even
        # when the full p-value string is not.
        d_hat, order, monotone = self.select(
            (0.300, 0.001, 0.300, 0.700), "divide_and_conquer"
        )
        assert monotone
        assert d_hat == 2
        assert sorted(order) == [1, 2]

    def test_monotonicity_detector(self):
        from sosdim.dimtest import _is_monotone

        assert _is_monotone(dict(enumerate((0.001, 0.002, 0.300, 0.700))), 0.05)
        assert not _is_monotone(dict(enumerate((0.300, 0.001, 0.300, 0.700))), 0.05)

    def test_pure_noise_all_strategies_zero(self):
        x = white_series(3000, 4, 16)
        for strategy in ("forward", "backward", "divide_and_conquer"):
            est = estimate_dimension(x, (1, 2), strategy=strategy)
            assert est.d_hat == 0, strategy

    def test_h1_recovers_three(self):
        setting = make_setting("H1")
        x, _, _ = simulate_setting(setting, 5000, 17)
        for strategy in ("forward", "backward", "divide_and_conquer"):
            est = estimate_dimension(x, range(1, 7), strategy=strategy)
            assert est.d_hat == 3, strategy

    def test_from_fit_matches_refit(self):
        setting = make_setting("H1")
        x, _, _ = simulate_setting(setting, 1500, 18)
        fit = unmix(x, range(1, 7), "sobi")
        for strategy in ("forward", "backward", "divide_and_conquer"):
            a = estimate_dimension(x, range(1, 7), strategy=strategy)
            b = estimate_dimension_from_fit(x, fit, strategy=strategy)
            assert a.d_hat == b.d_hat

    def test_alpha_validation(self):
        x = white_series(300, 2, 19)
        with pytest.raises(InvalidInputError):
            estimate_dimension(x, (1,), alpha=0.0)
        with pytest.raises(InvalidInputError):
            estimate_dimension(x, (1,), strategy="greedy")
        with pytest.raises(InvalidInputError):
            estimate_dimension(x, (1,), test_kind="jackknife")


class TestReports:
    def test_test_report_fields(self):
        x = white_series(500, 3, 20)
        ts = noise_test(x, (1, 2), 1, "sobi")
        rep = report_of(ts)
        assert rep["lags"] == [1, 2]
        assert rep["df"] == ts.df
        assert rep["stat"] == ts.scaled_stat

    def test_dimension_report_valid_against_schema(self):
        import jsonschema

        from sosdim.dimtest import REPORT_SCHEMA

        x = white_series(500, 3, 21)
        est = estimate_dimension(x, (1, 2), strategy="forward")
        rep = dimension_report(est)
        jsonschema.validate(rep, REPORT_SCHEMA)
        assert rep["d_hat"] == est.d_hat
        assert len(rep["trace"]) == len(est.trace)
