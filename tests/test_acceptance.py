"""Acceptance suite: the twelve headline criteria, one pass/fail line each.

Every test prints a single line `criterion NN (<name>): PASS|FAIL - detail`
so the suite output doubles as the acceptance report. Monte Carlo cells are
scaled-down but seeded versions of the full published grids; criterion 12
records that reduction explicitly.
"""

import time

import numpy as np
import pytest

from sosdim import (
    LagSet,
    MultiSeries,
    energy_unmix,
    estimate_dimension,
    estimate_dimension_from_fit,
    estimated_sources,
    joint_diagonalize,
    noise_test,
    unmix,
)
from sosdim.bss import LAG_PRESETS
from sosdim.series import sample_autocov, symmetrize
from sosdim.simulate import (
    ProcessSpec,
    SimSetting,
    make_setting,
    rejection_table,
    simulate_setting,
)

from helpers import match_components

MASTER = 12345


def report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} ({name}): {verdict} - {detail}")


class TestAcceptance:
    def test_01_null_size_h1_amuse(self):
        t = rejection_table(make_setting("H1"), [2000], ["amuse"], q=3,
                            reps=500, seed=MASTER)
        freq = t.values[0, 0]
        ok = 0.03 <= freq <= 0.075
        report(1, "null size, H1 AMUSE q=3 n=2000", ok, f"freq={freq:.3f}")
        assert ok

    def test_02_power_saturation_h1_sobi6(self):
        t = rejection_table(make_setting("H1"), [1000], ["sobi6"], q=2,
                            reps=200, seed=MASTER)
        freq = t.values[0, 0]
        ok = freq >= 0.99
        report(2, "power saturation, H1 SOBI6 q=2 n=1000", ok, f"freq={freq:.3f}")
        assert ok

    def test_03_indistinguishable_signals_h3(self):
        t = rejection_table(make_setting("H3"), [5000], ["sobi6"], q=3,
                            reps=500, seed=MASTER)
        freq = t.values[0, 0]
        ok = 0.03 <= freq <= 0.075
        report(3, "shared-autocovariance signals, H3 SOBI6 q=3", ok,
               f"freq={freq:.3f}")
        assert ok

    def test_04_amuse_long_range_failure_h2(self):
        t = rejection_table(make_setting("H2"), [200], ["amuse", "sobi6"],
                            q=2, reps=500, seed=MASTER)
        amuse, sobi = t.values[0]
        ok = amuse <= 0.10 and sobi > 0.4
        report(4, "long-range blindness, H2 q=2 n=200", ok,
               f"amuse={amuse:.3f} (<=0.10), sobi6={sobi:.3f} (>0.4)")
        assert ok

    def test_05_degrees_of_freedom_identity(self):
        ok = True
        for p in range(1, 13):
            for q in range(p):
                r = p - q
                for k in range(1, 13):
                    free = k * sum(range(1, r + 1))
                    if k * r * (r + 1) // 2 != free:
                        ok = False
        report(5, "degrees-of-freedom identity, p<=12 |lags|<=12", ok,
               "exhaustive exact match" if ok else "mismatch found")
        assert ok

    def test_06_null_p_value_uniformity(self):
        reps = 2000
        pvals = np.empty(reps)
        for rep in range(reps):
            rng = np.random.default_rng([MASTER, 6, rep])
            x = MultiSeries(rng.standard_normal((5000, 3)))
            pvals[rep] = noise_test(x, (1, 2), 0, "sobi").p_value
        pv = np.sort(pvals)
        grid = np.arange(1, reps + 1) / reps
        ks = max(np.abs(pv - grid).max(), np.abs(pv - grid + 1.0 / reps).max())
        ok = ks <= 0.05
        report(6, "null p-value uniformity, p=3 lags={1,2} T=5000", ok,
               f"KS={ks:.4f} (<=0.05)")
        assert ok

    def test_07_noise_block_covariance_pattern(self):
        # Monte Carlo covariance of sqrt(T) vec of the symmetrized noise
        # autocovariances: diagonal 1, symmetric pairs and their variances
        # 1/2, everything else (including cross-lag) 0, all within 0.1.
        reps, T, r = 2000, 5000, 3
        lags = (1, 2)
        vecs = np.empty((reps, 2 * r * r))
        for rep in range(reps):
            rng = np.random.default_rng([MASTER, 7, rep])
            v = rng.standard_normal((T, r))
            x = MultiSeries(v - v.mean(axis=0))
            blocks = [symmetrize(sample_autocov(x, t)) for t in lags]
            vecs[rep] = np.sqrt(T) * np.concatenate(
                [b.flatten(order="F") for b in blocks]
            )
        got = np.cov(vecs.T)
        commute = np.zeros((r * r, r * r))
        for i in range(r):
            for j in range(r):
                commute[i * r + j, j * r + i] = 1.0
        v0 = (commute + np.eye(r * r)) / 2.0
        expected = np.kron(np.eye(2), v0)
        dev = np.abs(got - expected).max()
        ok = dev <= 0.1
        report(7, "noise-block covariance pattern (diag 1, pairs 1/2)", ok,
               f"max deviation={dev:.4f} (<=0.1)")
        assert ok

    def test_08_affine_equivariance(self):
        procs = (
            ProcessSpec("ma", ma=(0.6, 0.4, 0.2)),
            ProcessSpec("ar", ar=(0.5, -0.3)),
            ProcessSpec("arma", ar=(0.8,), ma=(-0.2,)),
            ProcessSpec("arma", ar=(0.3, -0.2, 0.1), ma=(0.5, 0.3)),
            ProcessSpec("white"),
        )
        x, _, _ = simulate_setting(SimSetting("custom", procs), 10000,
                                   [MASTER, 8])
        base = estimated_sources(x, unmix(x, range(1, 7), "sobi")).values
        rng = np.random.default_rng([MASTER, 8, 1])
        worst = 1.0
        for _ in range(20):
            while True:
                omega = rng.standard_normal((5, 5))
                if np.linalg.cond(omega) < 1e4:
                    break
            y = MultiSeries(x.values @ omega.T)
            other = estimated_sources(y, unmix(y, range(1, 7), "sobi")).values
            _, _, corrs = match_components(base, other)
            worst = min(worst, float(corrs.min()))
        ok = worst >= 0.999
        report(8, "affine equivariance, 20 random mixings", ok,
               f"worst |corr|={worst:.6f} (>=0.999)")
        assert ok

    def test_09_joint_diagonalizer_exactness(self):
        rng = np.random.default_rng([MASTER, 9])
        worst_off, worst_rec = 0.0, 0.0
        for p, k in ((3, 2), (5, 6), (8, 12), (10, 12)):
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            mats = []
            for _ in range(k):
                d = rng.uniform(1.0, 5.0, size=p) * rng.choice([-1.0, 1.0], p)
                mats.append(q @ np.diag(d) @ q.T)
            res = joint_diagonalize(mats)
            assert res.converged
            off = 0.0
            for m in mats:
                b = res.U.T @ m @ res.U
                off += float(np.sum(b**2) - np.sum(np.diag(b) ** 2))
            worst_off = max(worst_off, off)
            prod = np.abs(res.U.T @ q)
            perm = np.zeros_like(prod)
            perm[np.argmax(prod, axis=0), np.arange(p)] = 1.0
            worst_rec = max(worst_rec, float(np.abs(prod - perm).max()))
        ok = worst_off <= 1e-10 and worst_rec <= 1e-8
        report(9, "joint diagonalizer exactness on commuting sets", ok,
               f"off-mass={worst_off:.2e} (<=1e-10), "
               f"recovery error={worst_rec:.2e} (<=1e-8)")
        assert ok

    def test_10_all_nine_estimators_on_wideband_analog(self):
        # 20-channel analog: 3 autocorrelated signals, 17 t5 noise
        # channels, uniform mixing, n=10000; each method fitted once per
        # seed and shared across the three strategies.
        setting = make_setting("S5")
        seeds = 50
        hits = {(m, s): 0
                for m in ("amuse", "sobi6", "sobi12")
                for s in ("forward", "backward", "divide_and_conquer")}
        for sd in range(seeds):
            x, _, _ = simulate_setting(setting, 10000, [MASTER, 10, sd])
            for method in ("amuse", "sobi6", "sobi12"):
                kind = "amuse" if method == "amuse" else "sobi"
                fit = energy_unmix(x, LagSet(LAG_PRESETS[method]), kind)
                for strategy in ("forward", "backward", "divide_and_conquer"):
                    est = estimate_dimension_from_fit(x, fit,
                                                      strategy=strategy)
                    hits[(method, strategy)] += est.d_hat == 3
        rates = {key: hits[key] / seeds for key in hits}
        ok = all(rate >= 0.95 for rate in rates.values())
        detail = ", ".join(f"{m}/{s[:4]}={rates[(m, s)]:.2f}"
                           for m, s in sorted(rates))
        report(10, "wideband analog, nine estimator combinations", ok,
               detail + " (each >=0.95)")
        assert ok, (
            "a method/strategy cell recovered d=3 in fewer than 95% of the "
            "seeds: a hypothesis with q > d (the last 20 - q components are "
            "white noise, which is true there) was rejected too often, so "
            "the chi-square calibration of the subspace statistic does not "
            "hold above the true signal count"
        )

    def test_11_asymptotic_speedup_over_bootstrap(self):
        setting = make_setting("S5")
        x, _, _ = simulate_setting(setting, 10000, [MASTER, 11])
        start = time.perf_counter()
        asym = estimate_dimension(x, (1,), method="amuse",
                                  strategy="divide_and_conquer")
        t_asym = time.perf_counter() - start
        start = time.perf_counter()
        boot = estimate_dimension(x, (1,), method="amuse",
                                  strategy="divide_and_conquer",
                                  test_kind="bootstrap", b_reps=200,
                                  seed=[MASTER, 11])
        t_boot = time.perf_counter() - start
        ratio = t_boot / t_asym
        ok = ratio >= 10.0 and asym.d_hat == boot.d_hat
        report(11, "asymptotic vs bootstrap speed", ok,
               f"{t_asym:.3f}s vs {t_boot:.2f}s, ratio={ratio:.0f}x (>=10x)")
        assert ok

    def test_12_desk_scale_disclosure(self):
        report(12, "desk-scale disclosure", True,
               "full 2000-replicate grids across five sample sizes are "
               "intentionally not reproduced; the seeded scaled cells in "
               "criteria 1-4 and 10 plus the property suites 5-9 "
               "constitute acceptance")
