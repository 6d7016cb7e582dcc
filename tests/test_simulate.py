import multiprocessing
import os

import numpy as np
import pytest
from scipy.signal import lfilter

from sosdim import InvalidInputError, MultiSeries
from sosdim.simulate import (
    ProcessSpec,
    SETTING_NAMES,
    SimSetting,
    dimension_table,
    generate,
    make_setting,
    mix,
    psi_weights,
    rejection_table,
    simulate_setting,
    theoretical_autocov,
    theoretical_variance,
)
from sosdim import presets
from sosdim import series as series_module

from helpers import record_workers


class TestProcessSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            ProcessSpec("garch")

    def test_rejects_nonstationary_ar(self):
        with pytest.raises(InvalidInputError):
            ProcessSpec("ar", ar=(1.0,))
        with pytest.raises(InvalidInputError):
            ProcessSpec("ar", ar=(0.5, 0.6))

    def test_rejects_contradictory_coefficients(self):
        with pytest.raises(InvalidInputError):
            ProcessSpec("white", ar=(0.5,))
        with pytest.raises(InvalidInputError):
            ProcessSpec("ar", ar=(0.5,), ma=(0.3,))
        with pytest.raises(InvalidInputError, match="ma process takes no ar"):
            ProcessSpec("ma", ar=(0.5,))

    def test_rejects_unknown_innovation(self):
        with pytest.raises(InvalidInputError, match="unknown innovation"):
            ProcessSpec("white", innovation="x")

    def test_rejects_low_t_df(self):
        with pytest.raises(InvalidInputError):
            ProcessSpec("white", innovation="t", t_df=2.0)

    def test_noise_flag(self):
        assert ProcessSpec("white").is_noise
        assert not ProcessSpec("ma", ma=(0.5,)).is_noise

    @pytest.mark.parametrize("kind", ["ar", "ma", "arma"])
    def test_signal_kind_needs_coefficients(self, kind):
        # With no coefficients the process is white noise, yet it would
        # count towards a setting's signal dimension.
        with pytest.raises(InvalidInputError, match="needs coefficients"):
            ProcessSpec(kind)


class TestTheory:
    def test_psi_weights_ma(self):
        spec = ProcessSpec("ma", ma=(0.6, 0.4, 0.2))
        psi = psi_weights(spec)
        assert np.allclose(psi[:5], [1.0, 0.6, 0.4, 0.2, 0.0])

    def test_psi_weights_ar1(self):
        spec = ProcessSpec("ar", ar=(0.5,))
        psi = psi_weights(spec)
        assert np.allclose(psi[:4], [1.0, 0.5, 0.25, 0.125])

    def test_variance_ar1_closed_form(self):
        spec = ProcessSpec("ar", ar=(0.5,))
        assert theoretical_variance(spec) == pytest.approx(1.0 / 0.75, rel=1e-10)

    def test_autocov_matches_samples_for_all_presets(self):
        n = 100000
        specs = [
            ProcessSpec("ma", ma=presets.MA3),
            ProcessSpec("ar", ar=presets.AR2),
            ProcessSpec("ar", ar=presets.AR3),
            ProcessSpec("arma", ar=presets.ARMA11_AR, ma=presets.ARMA11_MA),
            ProcessSpec("arma", ar=presets.ARMA32_AR, ma=presets.ARMA32_MA),
            ProcessSpec("ma", ma=presets.MA10_EVEN),
            ProcessSpec("ma", ma=presets.MA15_EVEN),
            ProcessSpec("ma", ma=presets.MA20_EVEN),
            ProcessSpec("ma", ma=presets.MA1_WEAK),
            ProcessSpec("ma", ma=presets.MA2_WEAK),
        ]
        for j, spec in enumerate(specs):
            v = generate(spec, n, [100, j])
            for lag in range(1, 6):
                sample = float(v[:-lag] @ v[lag:]) / (n - lag)
                theory = theoretical_autocov(spec, lag)
                # Sample autocovariances of autocorrelated processes have
                # variance above 1/n (Bartlett), hence the wide band.
                assert abs(sample - theory) <= 6.0 / np.sqrt(n), (j, lag)

    def test_even_lag_presets_have_zero_lag1_autocov(self):
        for ma in (presets.MA10_EVEN, presets.MA20_EVEN):
            spec = ProcessSpec("ma", ma=ma)
            assert abs(theoretical_autocov(spec, 1)) <= 1e-12
            assert abs(theoretical_autocov(spec, 2)) > 0.05

    def test_h2_lag1_autocovs(self):
        # MA15_EVEN's last coefficient sits at the odd lag 15: 0.15 * 0.1
        # over the variance 1.71 is its lag-1 autocovariance, 1/114.
        signals = make_setting("H2").processes[:3]
        got = [theoretical_autocov(spec, 1) for spec in signals]
        assert got[0] == pytest.approx(0.0, abs=1e-15)
        assert got[1] == pytest.approx(1 / 114, rel=1e-12)
        assert got[2] == pytest.approx(0.0, abs=1e-15)


class TestGenerate:
    def test_white_noise_unit_variance(self):
        v = generate(ProcessSpec("white"), 100000, 0)
        assert abs(v.var() - 1.0) <= 0.02

    def test_t_noise_unit_variance(self):
        v = generate(ProcessSpec("white", innovation="t", t_df=5.0), 100000, 1)
        assert abs(v.var() - 1.0) <= 0.05

    def test_ma1_lag1_autocorrelation(self):
        spec = ProcessSpec("ma", ma=(0.1,))
        v = generate(spec, 100000, 2)
        rho = float(v[:-1] @ v[1:]) / float(v @ v)
        assert rho == pytest.approx(0.1 / 1.01, abs=0.01)

    def test_deterministic_given_seed(self):
        spec = ProcessSpec("arma", ar=(0.5,), ma=(0.2,))
        assert np.array_equal(generate(spec, 100, 7), generate(spec, 100, 7))
        assert not np.array_equal(generate(spec, 100, 7), generate(spec, 100, 8))

    def test_normalized_to_unit_variance(self):
        spec = ProcessSpec("ar", ar=(0.9,))
        v = generate(spec, 200000, 3)
        assert abs(v.var() - 1.0) <= 0.05

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidInputError):
            generate(ProcessSpec("white"), 0, 0)


class TestSettings:
    # Every named setting written out in literals: its mixing and, per process,
    # (kind, ar, ma, innovation, t_df).
    WHITE = ("white", (), (), "gaussian", 5.0)
    MA3 = ("ma", (), (0.6, 0.4, 0.2), "gaussian", 5.0)
    AR2 = ("ar", (0.5, -0.3), (), "gaussian", 5.0)
    ARMA11 = ("arma", (0.8,), (-0.2,), "gaussian", 5.0)
    D_SIGNALS = [AR2, ("ar", (0.4, -0.2, 0.1), (), "gaussian", 5.0), ARMA11,
                 ("arma", (0.3, -0.2, 0.1), (0.5, 0.3), "gaussian", 5.0)]
    PINNED = {
        "H1": ("identity", [MA3, AR2, ARMA11] + [WHITE] * 2),
        "H2": ("identity", [
            ("ma", (), (0.0, 0.5, 0.0, 0.4, 0.0, 0.3, 0.0, 0.2, 0.0, 0.1),
             "gaussian", 5.0),
            ("ma", (), (0.0, 0.45, 0.0, 0.4, 0.0, 0.35, 0.0, 0.3, 0.0, 0.25,
                        0.0, 0.2, 0.0, 0.15, 0.1), "gaussian", 5.0),
            ("ma", (), (0.0, 0.4, 0.0, 0.36, 0.0, 0.32, 0.0, 0.28, 0.0, 0.24,
                        0.0, 0.2, 0.0, 0.16, 0.0, 0.12, 0.0, 0.08, 0.0, 0.04),
             "gaussian", 5.0),
        ] + [WHITE] * 2),
        "H3": ("identity", [MA3] * 3 + [WHITE] * 2),
        "D1": ("identity", D_SIGNALS + [MA3] + [WHITE] * 5),
        "D2": ("identity", D_SIGNALS + [("ma", (), (0.1,), "gaussian", 5.0)]
               + [WHITE] * 5),
        "D3": ("identity", [("ma", (), (0.1, 0.1), "gaussian", 5.0)] * 5
               + [WHITE] * 5),
        "S5": ("uniform", [MA3, AR2, ARMA11]
               + [("white", (), (), "t", 5.0)] * 17),
    }

    def test_pinned_recipes(self):
        assert SETTING_NAMES == tuple(self.PINNED)
        for name, (mixing, procs) in self.PINNED.items():
            s = make_setting(name)
            assert s.name == name and s.mixing == mixing, name
            assert [(sp.kind, sp.ar, sp.ma, sp.innovation, sp.t_df)
                    for sp in s.processes] == procs, name

    def test_dimensions(self):
        expect = {
            "H1": (5, 3), "H2": (5, 3), "H3": (5, 3),
            "D1": (10, 5), "D2": (10, 5), "D3": (10, 5), "S5": (20, 3),
        }
        for name in SETTING_NAMES:
            s = make_setting(name)
            assert (s.p, s.d) == expect[name], name

    def test_signals_precede_noise(self):
        for name in SETTING_NAMES:
            s = make_setting(name)
            flags = [spec.is_noise for spec in s.processes]
            assert flags == sorted(flags), name

    def test_d3_is_weak_ma2(self):
        s = make_setting("D3")
        for spec in s.processes[:5]:
            assert spec.kind == "ma" and spec.ma == presets.MA2_WEAK

    def test_s5_noise_is_heavy_tailed(self):
        s = make_setting("S5")
        assert s.mixing == "uniform"
        assert all(sp.innovation == "t" and sp.t_df == 5.0
                   for sp in s.processes[3:])

    def test_unknown_mixing(self):
        with pytest.raises(InvalidInputError, match="unknown mixing"):
            SimSetting("X", (ProcessSpec("white"),), "gaussian")

    def test_unknown_setting(self):
        with pytest.raises(InvalidInputError):
            make_setting("H9")

    @pytest.mark.parametrize("name", ["H9", ["H1"], None, 1],
                             ids=["unknown", "unhashable", "none", "int"])
    def test_non_name_lists_the_settings(self, name):
        with pytest.raises(InvalidInputError, match=(
                r"unknown setting: .*; expected one of "
                r"\('H1', 'H2', 'H3', 'D1', 'D2', 'D3', 'S5'\)")):
            make_setting(name)


class TestMix:
    def sources(self, n=200, p=3, seed=0):
        rng = np.random.default_rng(seed)
        return MultiSeries(rng.standard_normal((n, p)))

    def test_identity(self):
        z = self.sources()
        x, omega = mix(z, "identity")
        assert np.array_equal(omega, np.eye(3))
        assert np.array_equal(x.values, z.values)

    def test_uniform_reproducible(self):
        z = self.sources()
        _, o1 = mix(z, "uniform", seed=5)
        _, o2 = mix(z, "uniform", seed=5)
        assert np.array_equal(o1, o2)
        assert np.all(o1 >= 0.0) and np.all(o1 <= 1.0)

    @pytest.mark.parametrize("mixing", ["bogus", np.eye(3)],
                             ids=["name", "matrix"])
    def test_unknown_mixing_rejected(self, mixing):
        with pytest.raises(InvalidInputError, match="unknown mixing"):
            mix(self.sources(), mixing)


class TestSimulateSetting:
    def test_shapes_and_determinism(self):
        s = make_setting("H1")
        x1, o1, z1 = simulate_setting(s, 300, 9)
        x2, o2, z2 = simulate_setting(s, 300, 9)
        assert x1.values.shape == (300, 5)
        assert np.array_equal(x1.values, x2.values)
        assert np.array_equal(o1, o2)
        assert np.array_equal(z1.values, z2.values)

    def test_mixing_consistency(self):
        s = make_setting("S5")
        x, omega, z = simulate_setting(s, 400, 10)
        assert np.allclose(x.values, z.values @ omega.T)

    def test_identity_mixing_settings(self):
        s = make_setting("H2")
        x, omega, z = simulate_setting(s, 400, 11)
        assert np.array_equal(omega, np.eye(5))
        assert np.array_equal(x.values, z.values)
        assert not np.shares_memory(x.values, z.values)


    @staticmethod
    def reference_draw(setting, n, seed):
        # One replicate drawn process by process, one filter call and one
        # mixing product each, as a table drew before its draws were batched.
        children = np.random.SeedSequence(seed).spawn(setting.p + 1)
        cols = []
        for spec, child in zip(setting.processes, children):
            rng = np.random.default_rng(child)
            burn = 1000 + 10 * spec.order
            if spec.innovation == "gaussian":
                eps = rng.standard_normal(n + burn)
            else:
                eps = rng.standard_t(spec.t_df, size=n + burn)
                eps *= np.sqrt((spec.t_df - 2.0) / spec.t_df)
            if spec.kind == "white":
                cols.append(eps[burn:])
            else:
                v = lfilter([1.0, *spec.ma], [1.0, *(-a for a in spec.ar)], eps)
                cols.append(v[burn:] / np.sqrt(theoretical_variance(spec)))
        z = np.column_stack(cols)
        omega = np.eye(setting.p)
        if setting.mixing == "uniform":
            rng = np.random.default_rng(children[setting.p])
            while True:
                omega = rng.uniform(0.0, 1.0, size=(setting.p, setting.p))
                if np.linalg.cond(omega) < 1e8:
                    break
        return z @ omega.T, omega, z

    @pytest.mark.parametrize("name", ["H1", "D1", "S5"])
    def test_batched_draw_keeps_the_entropy_contract(self, name):
        # A chunk of replicates (n, rep) is drawn in one batch; each
        # replicate must be the draw of its own entropy [seed, n, rep],
        # whatever chunk it falls in.
        from sosdim.simulate import _draw

        s, n, seed = make_setting(name), 300, 13
        entropies = [[seed, n, rep] for rep in range(2, 6)]
        x, omega, z = _draw(s, n, entropies)
        assert x.shape == z.shape == (4, n, s.p)
        for i, entropy in enumerate(entropies):
            one = simulate_setting(s, n, entropy)
            ref = self.reference_draw(s, n, entropy)
            for got, want in zip((x[i], omega[i], z[i]),
                                 (one[0].values, one[1], one[2].values)):
                assert np.array_equal(got, want), (name, i)
            for got, want in zip((x[i], omega[i], z[i]), ref):
                assert np.array_equal(got, want), (name, i)


class TestTables:
    def test_rejection_table_shape_and_determinism_across_workers(self):
        s = make_setting("H1")
        t1 = rejection_table(s, [200, 500], ["amuse", "sobi6"], q=3,
                             reps=8, seed=3, n_jobs=1)
        t2 = rejection_table(s, [200, 500], ["amuse", "sobi6"], q=3,
                             reps=8, seed=3, n_jobs=2)
        assert t1.values.shape == (2, 2)
        assert np.array_equal(t1.values, t2.values)
        assert t1.to_dict() == t2.to_dict()

    def test_rejection_table_csv(self):
        s = make_setting("H1")
        t = rejection_table(s, [200], ["amuse"], q=3, reps=4, seed=4)
        lines = t.to_csv().strip().split("\n")
        assert lines[0] == "n,amuse"
        assert lines[1].startswith("200,")

    def test_dimension_table_csv(self):
        s = make_setting("H1")
        t = dimension_table(s, [200, 300], ["amuse", "sobi6"], reps=4, seed=4)
        lines = t.to_csv().splitlines()
        assert lines[0] == "n,method,d_hat,frequency"
        rows = [line.split(",") for line in lines[1:]]
        # One row per (n, method, d), in that order, d = 0, ..., p.
        assert [r[:3] for r in rows] == [
            [str(n), m, str(d)] for n in (200, 300) for m in ("amuse", "sobi6")
            for d in range(s.p + 1)]
        for r, f in zip(rows, t.freq.ravel()):
            assert r[3] == f"{f:.6f}"
        # Every (n, method) cell is a distribution over d.
        for first in range(0, len(rows), s.p + 1):
            cell = [float(r[3]) for r in rows[first:first + s.p + 1]]
            assert sum(cell) == pytest.approx(1.0)

    def test_dimension_table_one_rep_is_one_hot(self):
        s = make_setting("H1")
        t = dimension_table(s, [500], ["amuse"], reps=1, seed=5)
        assert t.freq.shape == (1, 1, 6)
        assert t.freq.sum() == pytest.approx(1.0)
        assert np.isin(t.freq, (0.0, 1.0)).all()

    def test_dimension_table_determinism_across_workers(self):
        s = make_setting("H1")
        t1 = dimension_table(s, [300], ["sobi6"], reps=6, seed=6, n_jobs=1)
        t2 = dimension_table(s, [300], ["sobi6"], reps=6, seed=6, n_jobs=2)
        assert np.array_equal(t1.freq, t2.freq)

    def test_reps_validated(self):
        s = make_setting("H1")
        with pytest.raises(InvalidInputError):
            rejection_table(s, [200], ["amuse"], q=3, reps=0)
        with pytest.raises(InvalidInputError):
            dimension_table(s, [200], ["amuse"], reps=0)

    @pytest.mark.parametrize("table, bad, match", [
        pytest.param("rejection", {"alpha": 0.0}, "alpha", id="0.0"),
        pytest.param("rejection", {"alpha": 1.5}, "alpha", id="1.5"),
        pytest.param("dimension", {"alpha": 1.5}, "alpha", id="dimension-alpha"),
        *(pytest.param(table, {"alpha": alpha}, "alpha must be a number",
                       id=f"{table}-alpha-{name}")
          for table in ("rejection", "dimension")
          for name, alpha in [("str", "a"), ("none", None)]),
        pytest.param("rejection", {"test_kind": "bogus"}, "test kind",
                     id="rejection-kind"),
        pytest.param("dimension", {"test_kind": "bogus"}, "test kind",
                     id="dimension-kind"),
        pytest.param("dimension", {"strategy": "bogus"}, "strategy",
                     id="dimension-strategy"),
        pytest.param("rejection", {"methods": ["jade"]}, "preset",
                     id="rejection-method"),
        pytest.param("dimension", {"methods": ["amuse", "jade"]}, "preset",
                     id="dimension-method"),
        pytest.param("rejection", {"q": 5}, "q must", id="rejection-q-high"),
        pytest.param("rejection", {"q": -1}, "q must", id="rejection-q-low"),
        pytest.param("rejection", {"q": 1.7}, "q must be an integer, got 1.7",
                     id="rejection-q-fractional"),
        pytest.param("rejection", {"reps": 2.5}, "reps must be an integer",
                     id="rejection-reps-fractional"),
        pytest.param("dimension", {"n_jobs": 1.5}, "n_jobs must be an integer",
                     id="dimension-n-jobs-fractional"),
        pytest.param("dimension", {"n_list": [200.7]}, "n must be an integer",
                     id="dimension-n-fractional"),
        pytest.param("rejection", {"n_list": []},
                     "n_list and methods must be nonempty",
                     id="rejection-n-list-empty"),
        pytest.param("dimension", {"methods": []},
                     "n_list and methods must be nonempty",
                     id="dimension-methods-empty"),
        pytest.param("rejection", {"test_kind": "bootstrap", "b_reps": 0},
                     "replicate", id="rejection-b-reps"),
        pytest.param("dimension", {"test_kind": "bootstrap", "b_reps": 0},
                     "replicate", id="dimension-b-reps"),
        pytest.param("rejection", {"seed": -1}, "seed", id="rejection-seed"),
        pytest.param("dimension", {"seed": -1}, "seed", id="dimension-seed"),
        # A master seed is an integer: a worker would fail on any other.
        *(pytest.param(table, {"seed": seed}, "seed must be an integer",
                       id=f"{table}-seed-{name}")
          for table in ("rejection", "dimension")
          for name, seed in [("float", 1.5), ("str", "a"), ("list", [1, 2]),
                             ("none", None)]),
        pytest.param("rejection", {"methods": ["amuse", "sobi12"], "n_list": [10]},
                     "max lag 12 must be smaller than series length 10",
                     id="rejection-n-below-lag"),
        pytest.param("dimension", {"methods": ["sobi12"], "n_list": [500, 10]},
                     "max lag 12 must be smaller than series length 10",
                     id="dimension-n-below-lag"),
        pytest.param("rejection", {"n_list": [0]}, "series length 0",
                     id="rejection-n-zero"),
        pytest.param("dimension", {"n_list": [0]}, "series length 0",
                     id="dimension-n-zero"),
        pytest.param("rejection", {"n_jobs": 0}, "n_jobs", id="rejection-n-jobs"),
        pytest.param("dimension", {"n_jobs": -4}, "n_jobs", id="dimension-n-jobs"),
    ])
    def test_alpha_validated_before_the_pool_starts(self, table, bad, match,
                                                    monkeypatch):
        # Every table argument, alpha included, is checked at the table's
        # entry: a bad one never reaches a worker.
        def refuse():
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(series_module, "_context", refuse)
        s = make_setting("H1")
        args = {"methods": ["amuse"], "reps": 2, "n_jobs": 2, **bad}
        n_list = args.pop("n_list", [200])
        with pytest.raises(InvalidInputError, match=match):
            if table == "rejection":
                rejection_table(s, n_list, q=args.pop("q", 3), **args)
            else:
                dimension_table(s, n_list, **args)

    @pytest.mark.parametrize("n_list, reps, n_jobs, workers, mode", [
        ([200], 1, 4, 0, "queue"),
        ([200, 300], 1, 8, 1, "queue"),
        ([200], 3, 2, 1, "queue"),
        ([200], 3, 1, 0, "queue"),
        ([200], 6, 3, 2, "all"),
        ([200], 6, 3, 2, "none"),
    ], ids=["one-task", "two-tasks", "as-asked", "serial", "pool-runs-all",
            "caller-runs-all"])
    def test_pool_never_outnumbers_the_replicates(self, monkeypatch, n_list,
                                                  reps, n_jobs, workers,
                                                  mode):
        # The calling process is one of the workers, so a table at N
        # workers starts N - 1 processes, and whichever of them runs a task
        # the table is the serial one.
        started = record_workers(monkeypatch, mode)
        s = make_setting("H1")
        t = dimension_table(s, n_list, ["amuse"], reps=reps, seed=8,
                            n_jobs=n_jobs)
        assert len(started) == workers
        assert multiprocessing.active_children() == []
        serial = dimension_table(s, n_list, ["amuse"], reps=reps, seed=8)
        assert np.array_equal(t.freq, serial.freq)

    def test_the_caller_runs_the_first_task(self, monkeypatch, tmp_path):
        # The calling process claims the first task before it starts any
        # worker, and the workers claim the others from the same counter.
        import sosdim.simulate

        chunk, log = sosdim.simulate._chunk, tmp_path / "ran"

        def logged(task):
            with open(log, "a") as fh:
                fh.write(f"{task[2][0]} {os.getpid()}\n")
            return chunk(task)

        monkeypatch.setattr(sosdim.simulate, "_chunk", logged)
        started = record_workers(monkeypatch)
        s = make_setting("H1")
        t = dimension_table(s, [200], ["amuse"], reps=6, seed=8, n_jobs=3)
        ran = dict(map(int, line.split())
                   for line in log.read_text().splitlines())
        assert sorted(ran) == [0, 2, 4]  # each task once, whoever ran it
        assert ran[0] == os.getpid()
        assert len(started) == 2 and len(set(ran.values())) <= 3
        serial = dimension_table(s, [200], ["amuse"], reps=6, seed=8)
        assert np.array_equal(t.freq, serial.freq)

    @pytest.mark.parametrize("mode", ["queue", "all", "none"])
    @pytest.mark.parametrize("failing", [(1, 2), (0, 2)],
                             ids=["pool-tasks", "caller-and-pool-tasks"])
    def test_a_table_raises_the_error_of_its_first_failing_task(
            self, monkeypatch, failing, mode):
        # Two workers run three one-replicate tasks. Whoever runs them, the
        # error raised is the lowest failing replicate's, as at n_jobs=1,
        # where one task holds all three, and no worker is left running.
        import sosdim.simulate

        chunk = sosdim.simulate._chunk

        def fail_some(task):
            bad = [rep for rep in task[2] if rep in failing]
            if bad:
                raise RuntimeError(f"replicate {bad[0]} failed")
            return chunk(task)

        monkeypatch.setattr(sosdim.simulate, "_chunk", fail_some)
        started = record_workers(monkeypatch, mode)
        s = make_setting("H1")
        for n_jobs in (1, 2):
            with pytest.raises(RuntimeError,
                               match=f"replicate {failing[0]} failed"):
                dimension_table(s, [200], ["amuse"], reps=3, seed=8,
                                n_jobs=n_jobs)
        assert len(started) == 1
        assert multiprocessing.active_children() == []

    def test_tables_under_spawn(self, monkeypatch):
        # Off Linux the workers start from the platform's default context,
        # which on macOS and Windows spawns a fresh interpreter: a table
        # there must be the serial one too.
        monkeypatch.setattr(series_module, "_context",
                            lambda: multiprocessing.get_context("spawn"))
        s = make_setting("H1")
        spawned = dimension_table(s, [200, 300], ["amuse", "sobi6"], reps=2,
                                  seed=8, n_jobs=2)
        serial = dimension_table(s, [200, 300], ["amuse", "sobi6"], reps=2,
                                 seed=8)
        assert np.array_equal(spawned.freq, serial.freq)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("test_kind", ["asymptotic", "bootstrap"])
    @pytest.mark.parametrize("methods", [("amuse", "sobi6", "sobi12"),
                                         ("sobi12", "amuse")],
                             ids=["presets", "sobi12-amuse"])
    def test_shared_draw_matches_one_method_tables(self, methods, test_kind):
        # A multi-method table draws each replicate once and reads every
        # method from one stack over the union of their lags; each column
        # must equal the table of that method alone.
        s = make_setting("H1")
        common = {"reps": 3 if test_kind == "bootstrap" else 8, "seed": 21,
                  "b_reps": 9}
        n_list = [150, 300]
        rej = rejection_table(s, n_list, methods, q=3, test_kind=test_kind,
                              **common)
        dim = dimension_table(s, n_list, methods, test_kind=test_kind,
                              **common)
        for j, method in enumerate(methods):
            one_rej = rejection_table(s, n_list, [method], q=3,
                                      test_kind=test_kind, **common)
            one_dim = dimension_table(s, n_list, [method],
                                      test_kind=test_kind, **common)
            assert np.array_equal(rej.values[:, j], one_rej.values[:, 0])
            assert np.array_equal(dim.freq[:, j], one_dim.freq[:, 0])

    def test_bootstrap_table_whitens_each_draw_once(self, monkeypatch):
        # The table whitens a chunk of draws in one kernel call; count the
        # replicates that pass through it. The bootstrap's own resamples go
        # through dimtest's reference to the kernel and are not counted.
        import sosdim.simulate

        calls = []
        original = sosdim.simulate._whiten

        def counted(xt, lags):
            calls.extend([tuple(lags)] * len(xt))
            return original(xt, lags)

        monkeypatch.setattr(sosdim.simulate, "_whiten", counted)
        s = make_setting("H1")
        args = (s, [150, 200], ("amuse", "sobi6"))
        common = {"reps": 2, "seed": 3, "b_reps": 3, "n_jobs": 1}
        rejection_table(*args, q=3, test_kind="bootstrap", **common)
        dimension_table(*args, test_kind="bootstrap", **common)
        # Two tables of 2 x 2 replicates, each whitened once over lags 1..6.
        assert calls == [tuple(range(1, 7))] * 8

    @pytest.mark.parametrize("test_kind", ["asymptotic", "bootstrap"])
    @pytest.mark.parametrize("name", ["H1", "S5"])
    def test_chunk_size_leaves_the_tables_unchanged(self, monkeypatch, name,
                                                    test_kind):
        # A task draws, whitens and tests a chunk of replicates at once.
        # Chunks of one replicate and chunks of a whole cell must give the
        # same tables, as the bootstrap's chunks give the same p-values.
        import sosdim.dimtest
        import sosdim.simulate

        sizes = []
        original = sosdim.simulate._whiten

        def counted(xt, lags):
            sizes.append(len(xt))
            return original(xt, lags)

        monkeypatch.setattr(sosdim.simulate, "_whiten", counted)
        s = make_setting(name)
        n_list, reps = [150, 400], 3 if test_kind == "bootstrap" else 6
        common = {"reps": reps, "seed": 17, "b_reps": 9, "n_jobs": 1}
        got = {}
        for chunk_bytes, chunk in [(0, 1), (1 << 40, reps)]:
            monkeypatch.setattr(sosdim.dimtest, "_CHUNK_BYTES", chunk_bytes)
            sizes.clear()
            rej = rejection_table(s, n_list, ("amuse", "sobi6"), q=3,
                                  test_kind=test_kind, **common)
            dim = dimension_table(s, n_list, ("sobi12", "amuse"),
                                  test_kind=test_kind, **common)
            assert sizes == [chunk] * (2 * len(n_list) * reps // chunk)
            got[chunk] = rej.values, dim.freq
        assert np.array_equal(got[1][0], got[reps][0])
        assert np.array_equal(got[1][1], got[reps][1])

    @pytest.mark.parametrize("test_kind", ["asymptotic", "bootstrap"])
    def test_tables_agree_with_the_library(self, test_kind):
        # The documented seeds: replicate (n, rep) draws from [seed, n, rep]
        # and its bootstrap resamples from [seed, n, rep, 1] (rejection) or
        # [seed, n, rep, 2] (dimension).
        from sosdim import estimate_dimension, noise_test
        from sosdim.bss import LAG_PRESETS

        s = make_setting("H1")
        n, reps, seed, b_reps, q, alpha = 150, 3, 5, 9, 3, 0.05
        methods = ("amuse", "sobi6")
        rej = rejection_table(s, [n], methods, q=q, alpha=alpha, reps=reps,
                              seed=seed, test_kind=test_kind, b_reps=b_reps)
        dim = dimension_table(s, [n], methods, alpha=alpha, reps=reps,
                              seed=seed, test_kind=test_kind,
                              b_reps=b_reps)
        for j, method in enumerate(methods):
            lags = LAG_PRESETS[method]
            kind = "amuse" if method == "amuse" else "sobi"
            hits, d_hats = 0, np.zeros(s.p + 1)
            for rep in range(reps):
                x = simulate_setting(s, n, [seed, n, rep])[0]
                ts = noise_test(x, lags, q, kind, test_kind, b_reps,
                                seed=[seed, n, rep, 1])
                hits += ts.p_value < alpha
                est = estimate_dimension(x, lags, alpha=alpha, method=kind,
                                         test_kind=test_kind, b_reps=b_reps,
                                         seed=[seed, n, rep, 2])
                d_hats[est.d_hat] += 1
            assert rej.values[0, j] == hits / reps
            assert np.array_equal(dim.freq[0, j], d_hats / reps)

    def test_bootstrap_rejection_table_resamples_from_its_seed(self):
        # With B = 9 no bootstrap p-value is below 0.1, so a table at alpha
        # 0.05 is all zeros whatever its resampling seeds. Over alphas
        # between the attainable p-values the table's rates give every
        # replicate's p-value, which must be noise_test's bootstrap from
        # seed [seed, n, rep, 1].
        from sosdim import noise_test

        s = make_setting("H1")
        n, reps, seed, b_reps, q = 150, 6, 5, 9, 3
        p = [noise_test(simulate_setting(s, n, [seed, n, rep])[0],
                        (1, 2, 3, 4, 5, 6), q, "sobi", test_kind="bootstrap",
                        b_reps=b_reps, seed=[seed, n, rep, 1]).p_value
             for rep in range(reps)]
        for alpha in np.arange(0.15, 1.0, 0.1):
            t = rejection_table(s, [n], ["sobi6"], q=q, alpha=alpha,
                                reps=reps, seed=seed, test_kind="bootstrap",
                                b_reps=b_reps)
            assert t.values[0, 0] == np.mean(np.less(p, alpha))

    def test_float_q_is_the_integer_q(self):
        s = make_setting("H1")
        args = (s, [200], ["amuse", "sobi6"])
        common = {"reps": 4, "seed": 2}
        assert np.array_equal(rejection_table(*args, q=3.0, **common).values,
                              rejection_table(*args, q=3, **common).values)

    def test_unknown_method_rejected(self):
        s = make_setting("H1")
        with pytest.raises(InvalidInputError):
            rejection_table(s, [200], ["jade"], q=3, reps=2)


def _tables_at(n_jobs):
    s = make_setting("H1")
    return (dimension_table(s, [200], ["amuse"], reps=4, seed=8,
                            n_jobs=n_jobs).freq,
            rejection_table(s, [200], ["amuse"], q=3, reps=4, seed=8,
                            n_jobs=n_jobs).values)


def test_tables_in_a_daemonic_process():
    # A multiprocessing.Pool worker is daemonic and may start no process, so
    # a table there runs every task itself.
    with multiprocessing.get_context("fork").Pool(1) as pool:
        [(dim, rej)] = pool.map(_tables_at, [2])
    serial_dim, serial_rej = _tables_at(1)
    assert np.array_equal(dim, serial_dim)
    assert np.array_equal(rej, serial_rej)


class TestDeskScaleBehavior:
    def test_d1_sobi6_recovers_five_at_large_n(self):
        s = make_setting("D1")
        hits = 0
        for rep in range(25):
            x, _, _ = simulate_setting(s, 5000, [55, rep])
            from sosdim import estimate_dimension

            est = estimate_dimension(x, range(1, 7), strategy="divide_and_conquer")
            hits += est.d_hat == 5
        assert hits >= 21

    def test_d3_amuse_underestimates_weak_signals(self):
        # Five weak MA(2) signals: the single-lag estimator at a small
        # sample should usually find fewer than five.
        s = make_setting("D3")
        from sosdim import estimate_dimension

        below = 0
        for rep in range(25):
            x, _, _ = simulate_setting(s, 500, [56, rep])
            est = estimate_dimension(x, (1,), method="amuse",
                                     strategy="forward")
            below += est.d_hat < 5
        assert below >= 20
