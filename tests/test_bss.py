import numpy as np
import pytest

from sosdim import (
    InvalidInputError,
    LagSet,
    MultiSeries,
    amuse,
    energy_unmix,
    estimated_sources,
    noise_test,
    sample_cov,
    sobi,
)
from sosdim.bss import LAG_PRESETS, _energy_basis, unmix
from sosdim.simulate import ProcessSpec, generate

from helpers import match_components


def latent_sources(n, seed):
    """Three distinct autocorrelated processes plus noise, uncorrelated."""
    specs = [
        ProcessSpec("ma", ma=(0.6, 0.4, 0.2)),
        ProcessSpec("ar", ar=(0.5, -0.3)),
        ProcessSpec("arma", ar=(0.8,), ma=(-0.2,)),
        ProcessSpec("white"),
    ]
    cols = [generate(s, n, [seed, j]) for j, s in enumerate(specs)]
    return MultiSeries(np.column_stack(cols))


class TestAmuse:
    def test_identity_mixing_recovers_near_identity(self):
        z = latent_sources(10000, 0)
        fit = amuse(z, 1)
        # Each row of gamma should load on a single source.
        perm, _, corrs = match_components(
            z.values, estimated_sources(z, fit).values
        )
        assert sorted(perm) == [0, 1, 2, 3]
        assert np.all(corrs >= 0.9)

    def test_equivariant_under_mixing(self):
        z = latent_sources(10000, 1)
        rng = np.random.default_rng(2)
        omega = rng.uniform(size=(4, 4)) + np.eye(4)
        x = MultiSeries(z.values @ omega.T)
        fit = amuse(x, 1)
        g = fit.gamma @ omega
        # gamma @ omega should be a signed permutation of a diagonal matrix.
        for row in np.abs(g):
            top = np.sort(row)[::-1]
            assert top[1] / top[0] <= 0.1

    def test_matches_single_lag_sobi(self):
        z = latent_sources(2000, 3)
        fa = amuse(z, 2)
        fs = sobi(z, (2,))
        prod = np.abs(fa.gamma @ np.linalg.inv(fs.gamma))
        # Same estimate up to a signed permutation.
        perm = np.zeros_like(prod)
        perm[np.arange(4), np.argmax(prod, axis=1)] = 1.0
        assert np.abs(prod - perm).max() <= 1e-8

    def test_whitening_contract(self):
        z = latent_sources(3000, 4)
        fit = amuse(z, 1)
        s0 = sample_cov(MultiSeries(z.values - z.values.mean(axis=0)))
        assert np.abs(fit.gamma @ s0 @ fit.gamma.T - np.eye(4)).max() <= 1e-8


class TestSobi:
    def test_unmixes_mixed_sources(self):
        z = latent_sources(5000, 5)
        rng = np.random.default_rng(6)
        omega = rng.uniform(size=(4, 4)) + 0.5 * np.eye(4)
        x = MultiSeries(z.values @ omega.T)
        fit = sobi(x, range(1, 7))
        g = fit.gamma @ omega
        for row in np.abs(g):
            top = np.sort(row)[::-1]
            assert top[1] <= 0.15 * top[0] + 0.15

    def test_pseudo_sums_non_increasing(self):
        z = latent_sources(4000, 7)
        fit = sobi(z, range(1, 7))
        assert np.all(np.diff(fit.pseudo_sums) <= 1e-15)

    def test_scale_equivariance(self):
        z = latent_sources(2000, 8)
        f1 = sobi(z, (1, 2, 3))
        f2 = sobi(MultiSeries(10.0 * z.values), (1, 2, 3))
        assert np.abs(f2.gamma - f1.gamma / 10.0).max() <= 1e-8
        z1 = estimated_sources(z, f1).values
        z2 = estimated_sources(MultiSeries(10.0 * z.values), f2).values
        assert np.abs(z1 - z2).max() <= 1e-8

    def test_lags_one_matches_amuse_sums(self):
        z = latent_sources(2000, 9)
        assert np.allclose(
            sobi(z, (1,)).pseudo_sums, amuse(z, 1).pseudo_sums, atol=1e-9
        )

    def test_separates_equal_energy_sources_with_different_lag_profiles(self):
        # AR(1) at phi = 0.5 and -0.5: equal total autocorrelation energy,
        # opposite signs at every odd lag. Joint diagonalization separates
        # them; an ordering by energy alone could not tell them apart.
        n = 4000
        z = np.column_stack([
            generate(ProcessSpec("ar", ar=(0.5,)), n, [23, 0]),
            generate(ProcessSpec("ar", ar=(-0.5,)), n, [23, 1]),
        ])
        omega = np.random.default_rng(24).standard_normal((2, 2))
        x = MultiSeries(z @ omega.T)
        fit = sobi(x, range(1, 7))
        _, _, corrs = match_components(z, estimated_sources(x, fit).values)
        assert corrs.min() >= 0.999

    def test_noise_pseudo_sums_shrink_at_rate_one_over_t(self):
        scaled = []
        for n in (1000, 4000, 16000):
            rng = np.random.default_rng(n)
            x = MultiSeries(rng.standard_normal((n, 3)))
            fit = sobi(x, range(1, 7))
            scaled.append(n * fit.pseudo_sums.mean())
        # T * mean(pseudo_sums) stays bounded for pure noise.
        assert max(scaled) <= 10 * len(LAG_PRESETS["sobi6"])


class TestEstimatedSources:
    def test_identity_gamma_returns_centered_input(self):
        rng = np.random.default_rng(10)
        x = MultiSeries(rng.standard_normal((1000, 3)))
        fit = sobi(x, (1, 2))
        z = estimated_sources(x, fit)
        assert np.abs(sample_cov(z) - np.eye(3)).max() <= 1e-8

    def test_affine_equivariance_of_sources(self):
        z = latent_sources(10000, 11)
        base = estimated_sources(z, sobi(z, range(1, 7)))
        rng = np.random.default_rng(12)
        a = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        x = MultiSeries(z.values @ a.T)
        other = estimated_sources(x, sobi(x, range(1, 7)))
        _, _, corrs = match_components(base.values, other.values)
        assert np.all(corrs >= 0.999)

    def test_dimension_mismatch(self):
        z = latent_sources(500, 13)
        fit = sobi(z, (1,))
        with pytest.raises(InvalidInputError):
            estimated_sources(MultiSeries(z.values[:, :2]), fit)


class TestEnergyBasis:
    def signals_plus_noise(self):
        # The white block is where SOBI's rotation leaves
        # sum_tau (U^T H_tau U)^2 non-diagonal.
        z = latent_sources(2000, 16)
        rng = np.random.default_rng(17)
        return MultiSeries(np.column_stack([z.values,
                                            rng.standard_normal((2000, 4))]))

    def test_components_ordered_by_total_autocorrelation_energy(self):
        x = self.signals_plus_noise()
        fit = energy_unmix(x, range(1, 7), "sobi")
        g = [fit.U.T @ h @ fit.U for h in fit.H]
        energy = sum(b @ b for b in g)
        off = energy - np.diag(np.diag(energy))
        assert np.abs(off).max() <= 1e-10 * np.trace(energy)
        assert np.allclose(np.diag(energy), fit.pseudo_sums,
                           rtol=1e-10, atol=1e-10 * np.trace(energy))
        assert np.all(np.diff(np.diag(energy)) <= 1e-15)

    def test_energy_unmix_matches_rotated_sobi_fit(self):
        # A SOBI fit rotated onto the energy basis of its own stack.
        x = self.signals_plus_noise()
        a = sobi(x, range(1, 7))
        u = _energy_basis(a.H)[1]
        b = energy_unmix(x, range(1, 7), "sobi")
        assert np.abs(u - b.U).max() <= 1e-12
        assert np.abs(u.T @ (a.U @ a.gamma) - b.gamma).max() <= 1e-10
        cov = b.gamma @ sample_cov(x) @ b.gamma.T
        assert np.abs(cov - np.eye(x.p)).max() <= 1e-10

    def test_amuse_fit_kept_as_is(self):
        z = latent_sources(1000, 18)
        fit = amuse(z, 2)
        again = energy_unmix(z, (2,), "amuse")
        assert np.array_equal(again.U, fit.U)
        assert np.array_equal(again.gamma, fit.gamma)

    def test_single_lag_energy_basis_is_amuse(self):
        x = self.signals_plus_noise()
        a = amuse(x, 2)
        b = energy_unmix(x, (2,), "sobi")
        assert np.array_equal(b.U, a.U)
        assert np.array_equal(b.pseudo_sums, a.pseudo_sums)
        for q in range(x.p):
            ta = noise_test(x, (2,), q, "amuse")
            tb = noise_test(x, (2,), q, "sobi")
            assert (tb.m_hat, tb.scaled_stat, tb.df, tb.p_value) == (
                ta.m_hat, ta.scaled_stat, ta.df, ta.p_value)


class TestUnmixDispatch:
    def test_amuse_requires_single_lag(self):
        z = latent_sources(500, 14)
        with pytest.raises(InvalidInputError):
            unmix(z, (1, 2), "amuse")

    def test_unknown_method(self):
        z = latent_sources(500, 15)
        with pytest.raises(InvalidInputError):
            unmix(z, (1,), "jade")

    def test_presets(self):
        assert LAG_PRESETS["amuse"] == (1,)
        assert LAG_PRESETS["sobi6"] == tuple(range(1, 7))
        assert LAG_PRESETS["sobi12"] == tuple(range(1, 13))
