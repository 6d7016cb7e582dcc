import numpy as np
import pytest

from sosdim import (
    InvalidInputError,
    JointDiagResult,
    MultiSeries,
    amuse,
    joint_diagonalize,
    order_by_pseudo_eigenvalues,
    sample_autocov,
    sample_cov,
    sym_inv_sqrt,
    symmetrize,
)
from sosdim.jointdiag import _ordered_eigh, _round_robin


def random_orthogonal(p, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return q


def off_mass(u, mats):
    total = 0.0
    for m in mats:
        b = u.T @ m @ u
        total += np.sum(b**2) - np.sum(np.diag(b) ** 2)
    return total


def diag_mass(u, mats):
    return sum(np.sum(np.diag(u.T @ m @ u) ** 2) for m in mats)


class TestGeneralizedEig:
    """AMUSE's generalized eigendecomposition of (S0, R_tau): the
    eigendecomposition of S0^{-1/2} sym(R_tau) S0^{-1/2} (_ordered_eigh)
    composed with S0^{-1/2}."""

    @staticmethod
    def whitened(s0, r):
        m = sym_inv_sqrt(s0)
        return m @ symmetrize(r) @ m

    def test_already_diagonal(self):
        d, v = _ordered_eigh(self.whitened(np.eye(3), np.diag([3.0, 1.0, -2.0])))
        assert np.allclose(d, [3.0, -2.0, 1.0])
        assert np.allclose(np.abs(v.T), np.eye(3)[[0, 2, 1]])

    def test_post_identities(self):
        # amuse's Gamma on a series whose covariance is about s0:
        # Gamma S0 Gamma^T = I and Gamma sym(R_tau) Gamma^T = diag(D).
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        s0 = a @ a.T + 4.0 * np.eye(4)
        x = MultiSeries(rng.standard_normal((2000, 4)) @ np.linalg.cholesky(s0).T)
        fit = amuse(x, 1)
        gamma = fit.gamma
        r = symmetrize(sample_autocov(x, 1))
        d = np.diag(gamma @ r @ gamma.T)
        assert np.abs(gamma @ sample_cov(x) @ gamma.T - np.eye(4)).max() <= 1e-9
        assert np.abs(gamma @ r @ gamma.T - np.diag(d)).max() <= 1e-9
        assert np.allclose(d**2, fit.pseudo_sums, rtol=1e-9, atol=1e-15)

    def test_two_by_two_hand_case(self):
        d, _ = _ordered_eigh(self.whitened(np.diag([4.0, 4.0]),
                                           np.array([[0.0, 2.0], [2.0, 0.0]])))
        assert np.allclose(d, [0.5, -0.5])

    def test_ordering_by_squared_eigenvalue(self):
        d, _ = _ordered_eigh(self.whitened(np.eye(3), np.diag([0.5, -3.0, 2.0])))
        assert list(d) == [-3.0, 2.0, 0.5]

    @pytest.mark.parametrize("diagonal", [False, True], ids=["dense", "tied"])
    def test_matches_the_loop_reference(self, diagonal):
        # The sort key and the column-by-column sign flip, as loops; the
        # layout must match too, since BLAS rounds a transposed operand
        # differently in the products that follow.
        def reference(h):
            w, v = np.linalg.eigh(h)
            order = sorted(range(len(w)), key=lambda i: (-w[i] ** 2, -w[i]))
            u = v[:, order].copy()
            for j in range(u.shape[1]):
                if u[np.argmax(np.abs(u[:, j])), j] < 0:
                    u[:, j] = -u[:, j]
            return w[order], u

        rng = np.random.default_rng(31)
        for p in range(1, 13):
            if diagonal:
                hs = np.array([np.diag(rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=p))
                               for _ in range(3)])
            else:
                a = rng.standard_normal((3, p, p))
                hs = (a + a.transpose(0, 2, 1)) / 2.0
            # Each matrix alone, and the three as one batch.
            batch = _ordered_eigh(hs)
            for i, h in enumerate(hs):
                (w, u), (w_ref, u_ref) = _ordered_eigh(h), reference(h)
                assert np.array_equal(w, w_ref)
                assert np.array_equal(u, u_ref)
                assert u.strides == u_ref.strides
                assert np.array_equal(batch[0][i], w_ref)
                assert np.array_equal(batch[1][i], u_ref)


class TestJointDiagonalize:
    def test_already_diagonal_fixed_point(self):
        mats = [np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 5.0, 2.0])]
        res = joint_diagonalize(mats)
        assert res.converged is True
        assert res.sweeps_used == 1
        assert np.allclose(np.abs(res.U), np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 5, 6])
    def test_recovers_common_rotation(self, p):
        # Odd p leaves one index idle in every round; even p does not.
        q = random_orthogonal(p, 1)
        d1 = np.diag(np.arange(p, 0, -1.0))
        d2 = np.diag(2.0 * np.arange(p) % p + 1.0)  # p = 5: 1, 3, 5, 2, 4
        mats = [q @ d1 @ q.T, q @ d2 @ q.T]
        res = joint_diagonalize(mats)
        assert res.converged
        assert off_mass(res.U, mats) <= 1e-10
        prod = np.abs(res.U.T @ q)
        perm = np.zeros_like(prod)
        perm[np.argmax(prod, axis=0), np.arange(p)] = 1.0
        assert np.abs(prod - perm).max() <= 1e-8

    @pytest.mark.parametrize("p", range(1, 10))
    def test_round_robin_covers_every_pair_once(self, p):
        rounds = _round_robin(p)
        assert len(rounds) == p - 1 + p % 2
        seen = []
        for i, j in rounds:
            assert len(set(i) | set(j)) == 2 * len(i)  # disjoint pairs
            seen += zip(i.tolist(), j.tolist())
        assert sorted(seen) == [(i, j) for i in range(p) for j in range(i + 1, p)]

    def test_single_matrix_matches_eigendecomposition(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 4))
        m = (m + m.T) / 2
        res = joint_diagonalize([m])
        assert np.allclose(
            np.sort(res.diag_profiles[0]), np.sort(np.linalg.eigvalsh(m)),
            atol=1e-9,
        )

    def test_objective_not_worse_than_identity(self):
        rng = np.random.default_rng(3)
        mats = [(lambda a: (a + a.T) / 2)(rng.standard_normal((4, 4)))
                for _ in range(3)]
        res = joint_diagonalize(mats)
        assert diag_mass(res.U, mats) >= diag_mass(np.eye(4), mats) - 1e-12

    def test_frobenius_mass_invariant(self):
        rng = np.random.default_rng(4)
        mats = [(lambda a: (a + a.T) / 2)(rng.standard_normal((5, 5)))
                for _ in range(4)]
        res = joint_diagonalize(mats)
        before = sum(np.sum(m**2) for m in mats)
        after = sum(np.sum((res.U.T @ m @ res.U) ** 2) for m in mats)
        assert abs(before - after) <= 1e-10 * before

    def test_estimating_equation_residual_symmetric(self):
        rng = np.random.default_rng(5)
        mats = [(lambda a: (a + a.T) / 2)(rng.standard_normal((4, 4)))
                for _ in range(3)]
        tol = 1e-10
        res = joint_diagonalize(mats, tol=tol)
        acc = np.zeros((4, 4))
        for m in mats:
            b = res.U.T @ m @ res.U
            acc += b @ np.diag(np.diag(b))
        assert np.abs(acc - acc.T).max() <= 10 * tol * max(np.abs(acc).max(), 1.0)

    def test_diag_profiles_recomputable(self):
        rng = np.random.default_rng(6)
        mats = [(lambda a: (a + a.T) / 2)(rng.standard_normal((3, 3)))
                for _ in range(2)]
        res = joint_diagonalize(mats)
        for t, m in enumerate(mats):
            assert np.abs(
                res.diag_profiles[t] - np.diag(res.U.T @ m @ res.U)
            ).max() <= 1e-10

    def test_orthogonality(self):
        rng = np.random.default_rng(7)
        mats = [(lambda a: (a + a.T) / 2)(rng.standard_normal((6, 6)))
                for _ in range(3)]
        res = joint_diagonalize(mats)
        assert np.linalg.norm(res.U.T @ res.U - np.eye(6), 2) <= 1e-10

    def test_nonconvergence_reported_not_fatal(self):
        rng = np.random.default_rng(8)
        mats = [(lambda a: (a + a.T) / 2)(rng.standard_normal((6, 6)))
                for _ in range(4)]
        res = joint_diagonalize(mats, tol=1e-15, max_sweeps=1)
        assert res.converged is False
        assert res.sweeps_used == 1

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            joint_diagonalize([np.eye(2)], tol=0.0)
        with pytest.raises(InvalidInputError):
            joint_diagonalize([np.eye(2)], max_sweeps=0)
        with pytest.raises(InvalidInputError):
            joint_diagonalize([np.eye(2), np.eye(3)])

    def test_rejects_asymmetric_input(self):
        with pytest.raises(InvalidInputError, match="not symmetric"):
            joint_diagonalize([np.array([[0.0, 1.0], [0.0, 0.0]])])


class TestOrdering:
    def make_result(self, profiles):
        profiles = np.asarray(profiles, dtype=float)
        return JointDiagResult(
            np.eye(profiles.shape[1]), profiles, 1, True, 0.0
        )

    def test_sorted_input_unchanged(self):
        res = self.make_result([[2.0, 1.0], [0.0, 0.0]])
        out = order_by_pseudo_eigenvalues(res)
        assert np.array_equal(out.diag_profiles, res.diag_profiles)

    def test_swaps_by_sum(self):
        res = self.make_result([[1.0, 2.0]])
        out = order_by_pseudo_eigenvalues(res)
        assert np.allclose(out.diag_profiles, [[2.0, 1.0]])

    def test_tie_broken_by_first_lag(self):
        # Equal sums of squares, first-lag squares (0.04, 0.64).
        profiles = [[0.2, 0.8], [0.8, 0.2]]
        out = order_by_pseudo_eigenvalues(self.make_result(profiles))
        assert np.allclose(out.diag_profiles, [[0.8, 0.2], [0.2, 0.8]])

    def test_full_tie_keeps_original_order(self):
        profiles = [[0.5, 0.5], [0.1, 0.1]]
        out = order_by_pseudo_eigenvalues(self.make_result(profiles))
        assert np.array_equal(out.U, np.eye(2))
