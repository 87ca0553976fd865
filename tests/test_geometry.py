import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from bvlift.geometry import (_lane_sum, _lead_sign, canonicalize, dist_proj,
                             dist_sphere, embed_tensor, eucl_jump_cost, haar_rotations,
                             lift_map_F, lift_sign, random_unit_vectors,
                             uniaxial_q)


def e(i, d):
    v = np.zeros(d)
    v[i] = 1.0
    return v


class TestDistances:
    def test_sphere_identity(self):
        assert dist_sphere(e(0, 3), e(0, 3)) == 0.0

    def test_sphere_orthogonal(self):
        assert dist_sphere(e(0, 3), e(1, 3)) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_sphere_antipodes(self):
        assert dist_sphere(e(0, 3), -e(0, 3)) == pytest.approx(np.pi, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dist_sphere(e(0, 2), e(0, 3))
        with pytest.raises(ValueError):
            dist_proj(e(0, 2), e(0, 3))

    def test_proj_same_class(self):
        assert dist_proj(e(0, 2), -e(0, 2)) == 0.0

    def test_proj_orthogonal(self):
        assert dist_proj(e(0, 2), e(1, 2)) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_proj_folds(self):
        th = 2 * np.pi / 3
        n = np.array([np.cos(th), np.sin(th)])
        assert dist_proj(e(0, 2), n) == pytest.approx(np.pi / 3, abs=1e-12)

    def test_proj_below_sphere_and_ranges(self):
        rng = np.random.default_rng(0)
        a = random_unit_vectors(4, 3000, rng)
        b = random_unit_vectors(4, 3000, rng)
        dp = dist_proj(a, b)
        ds = dist_sphere(a, b)
        assert np.all(dp <= ds + 1e-14)
        assert np.all(dp <= np.pi / 2 + 1e-14)
        assert np.all(dp >= 0) and np.all(ds <= np.pi)

    def test_nearly_parallel_pairs_keep_relative_accuracy(self):
        t = np.array([1e-9, 1e-6, 1e-3])
        a = np.stack([np.ones_like(t), np.zeros_like(t)], axis=-1)
        b = np.stack([np.cos(t), np.sin(t)], axis=-1)
        assert np.allclose(dist_sphere(a, b), t, rtol=1e-9, atol=0)
        assert np.allclose(dist_proj(a, -b), t, rtol=1e-9, atol=0)
        assert np.allclose(eucl_jump_cost(a, b), np.sin(t), rtol=1e-9, atol=0)

    def test_proj_sign_invariance(self):
        rng = np.random.default_rng(1)
        a = random_unit_vectors(3, 500, rng)
        b = random_unit_vectors(3, 500, rng)
        assert np.array_equal(dist_proj(a, b), dist_proj(-a, b))
        assert np.array_equal(dist_proj(a, b), dist_proj(a, -b))


class TestCanonicalize:
    def test_idempotent_and_sign_invariant(self):
        rng = np.random.default_rng(2)
        v = random_unit_vectors(5, 1000, rng)
        c = canonicalize(v)
        assert np.array_equal(canonicalize(c), c)
        assert np.array_equal(canonicalize(-v), c)

    def test_leading_coordinate_nonnegative(self):
        rng = np.random.default_rng(3)
        v = random_unit_vectors(4, 1000, rng)
        c = canonicalize(v)
        idx = np.argmax(np.abs(c), axis=-1)
        lead = np.take_along_axis(c, idx[:, None], axis=-1)[:, 0]
        assert np.all(lead >= 0)

    def test_tie_breaks_by_lowest_index(self):
        v = np.array([-0.5, 0.5, -0.5, 0.5])
        v = v / np.linalg.norm(v)
        c = canonicalize(v)
        assert c[0] > 0  # first of the tied maxima decides the sign


class TestTensorEmbedding:
    def test_basis_vector(self):
        q = embed_tensor(e(0, 2))
        assert np.allclose(q, [[1 / np.sqrt(2), 0], [0, 0]], atol=1e-15)

    def test_diagonal_direction(self):
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        q = embed_tensor(u)
        assert np.allclose(q, np.full((2, 2), 0.5) / np.sqrt(2), atol=1e-15)

    def test_frobenius_norm(self):
        rng = np.random.default_rng(4)
        u = random_unit_vectors(3, 200, rng)
        q = embed_tensor(u)
        assert np.allclose(np.linalg.norm(q, axis=(-2, -1)), 1 / np.sqrt(2),
                           atol=1e-12)

    def test_sign_independent_and_symmetric(self):
        rng = np.random.default_rng(5)
        u = random_unit_vectors(4, 100, rng)
        q = embed_tensor(u)
        assert np.array_equal(q, embed_tensor(-u))
        assert np.allclose(q, np.swapaxes(q, -1, -2), atol=0)

    def test_eigenvalues(self):
        rng = np.random.default_rng(6)
        u = random_unit_vectors(3, 20, rng)
        for q in embed_tensor(u):
            ev = np.sort(np.linalg.eigvalsh(q))
            assert np.allclose(ev, [0, 0, 1 / np.sqrt(2)], atol=1e-12)

    def test_uniaxial_q_traceless(self):
        rng = np.random.default_rng(7)
        u = random_unit_vectors(3, 50, rng)
        q = uniaxial_q(u, s_star=0.8)
        assert np.allclose(np.trace(q, axis1=-2, axis2=-1), 0.0, atol=1e-12)
        assert np.allclose(q, np.swapaxes(q, -1, -2), atol=0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1),
           st.floats(0.01, 2.0))
    def test_uniaxial_q_distance_is_the_tensor_distance(self, d, seed, s_star):
        # |Q(n) - Q(m)|_F = sqrt(2) s* sin(theta): the paper's Q-tensor
        # statement is its tensor-metric one, scaled
        rng = np.random.default_rng(seed)
        n, m = random_unit_vectors(d, 64, rng), random_unit_vectors(d, 64, rng)
        m[:2] = n[:2] * [[1.0], [-1.0]]  # the same line, both signs
        assert np.array_equal(uniaxial_q(-n, s_star), uniaxial_q(n, s_star))
        dq = uniaxial_q(n, s_star) - uniaxial_q(m, s_star)
        assert np.allclose(np.linalg.norm(dq, axis=(-2, -1)),
                           np.sqrt(2.0) * s_star * eucl_jump_cost(n, m),
                           rtol=1e-12, atol=1e-14)


class TestJumpCost:
    def test_right_angle(self):
        assert eucl_jump_cost(e(0, 2), e(1, 2)) == pytest.approx(1.0, abs=1e-15)

    def test_same_class(self):
        assert eucl_jump_cost(e(0, 3), -e(0, 3)) == 0.0

    def test_quarter_angle_against_frobenius_oracle(self):
        th = np.pi / 4
        u = e(0, 2)
        v = np.array([np.cos(th), np.sin(th)])
        oracle = np.linalg.norm(embed_tensor(u) - embed_tensor(v))
        assert eucl_jump_cost(u, v) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
        assert eucl_jump_cost(u, v) == pytest.approx(oracle, abs=1e-12)

    def test_matches_frobenius_distance_in_bulk(self):
        # the identity (1/sqrt2)|n(x)n - m(x)m|_F = sin(theta), 1e5 pairs
        rng = np.random.default_rng(8)
        for d in (2, 3, 4):
            a = random_unit_vectors(d, 100_000 // 3, rng)
            b = random_unit_vectors(d, 100_000 // 3, rng)
            frob = np.linalg.norm(embed_tensor(a) - embed_tensor(b),
                                  axis=(-2, -1))
            assert np.max(np.abs(eucl_jump_cost(a, b) - frob)) < 1e-12


class TestFoldingMap:
    def test_north_pole(self):
        assert np.array_equal(lift_map_F(e(2, 3)), e(2, 3))

    def test_south_pole_folds_up(self):
        assert np.array_equal(lift_map_F(-e(2, 3)), e(2, 3))

    def test_negative_cap_flips(self):
        n = np.array([0.6, np.sqrt(1 - 0.36 - 0.09), -0.3])
        assert np.array_equal(lift_map_F(n), -n)

    def test_symmetry_everywhere(self):
        rng = np.random.default_rng(9)
        n = random_unit_vectors(3, 10_000, rng)
        assert np.array_equal(lift_map_F(n), lift_map_F(-n))

    def test_equator_tie_break_is_canonical(self):
        n = np.array([-1.0, 0.0, 0.0])  # on the equator
        assert np.array_equal(lift_map_F(n), np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(lift_map_F(n), lift_map_F(-n))


def lift_rot(R, u):
    """The rotated lifting R^{-1} F(R u) through its sign."""
    return lift_sign(R, u)[..., None] * u


class TestRotatedLifting:
    def test_identity_rotation_north_pole(self):
        assert np.array_equal(lift_rot(np.eye(3), e(2, 3)), e(2, 3))

    def test_pi_rotation_against_direct_oracle(self):
        # direct evaluation of R^{-1} F(R n) for the pi-rotation in the
        # (e_{d-1}, e_d) plane; the composition maps e_d to -e_d
        d = 3
        R = np.eye(d)
        R[-2, -2] = -1.0
        R[-1, -1] = -1.0
        n = e(d - 1, d)
        oracle = R.T @ lift_map_F(R @ n)
        got = lift_rot(R, n)
        assert np.allclose(got, oracle, atol=1e-12)
        assert np.array_equal(got, -e(d - 1, d))
        assert dist_proj(got, n) == 0.0

    def test_lifting_property_and_sign_independence(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 4):
            R = haar_rotations(d, 1, d)[0]
            u = canonicalize(random_unit_vectors(d, 500, rng))
            n = lift_rot(R, u)
            assert np.array_equal(canonicalize(n), u)  # [n] = u exactly
            assert np.array_equal(lift_rot(R, -u), n)

    def test_matches_matrix_evaluation(self):
        rng = np.random.default_rng(12)
        for d in (2, 3):
            R = haar_rotations(d, 1, 10 + d)[0]
            u = canonicalize(random_unit_vectors(d, 200, rng))
            w = u @ R.T
            off = np.abs(w[:, -1]) > 1e-6
            direct = lift_map_F(w) @ R  # R^{-1} F(R u), R^{-1} = R^T
            assert np.allclose(lift_rot(R, u)[off], direct[off], atol=1e-12)


class TestEinsumFreeSums:
    """The two-lane sums that replace ``np.einsum`` over a short last axis
    give its values bit for bit."""

    @staticmethod
    def near_equator(R, u):
        """u with its component along R[-1] removed: (R u).e_d is of the
        order of rounding, so its sign rides on the summation order."""
        v = u - (u @ R[-1])[:, None] * R[-1]
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_lane_sum_is_in_einsum_order(self, d):
        rng = np.random.default_rng(30 + d)
        a = rng.standard_normal((4000, d))
        r = rng.standard_normal(d)
        out, tmp = np.empty(len(a)), np.empty(len(a))
        dots = _lane_sum(lambda k, buf: np.multiply(a[:, k], r[k], out=buf),
                         d, out, tmp)
        assert np.array_equal(dots, np.einsum("k,...k->...", r, a))
        squares = _lane_sum(lambda k, buf: np.square(a[:, k], out=buf),
                            d, np.empty(len(a)), tmp)
        assert np.array_equal(squares, np.einsum("...a,...a->...", a, a))

    @pytest.mark.parametrize("d", range(2, 8))
    def test_lift_sign_equals_the_einsum_formula(self, d):
        rng = np.random.default_rng(40 + d)
        # a Haar rotation, and one turning the (e_1, e_d) plane whose
        # equator holds +-(0.8, 0, ..., 0, -0.6) and e_2, ..., e_{d-1}
        # exactly; and the near-equator rows of random points
        turn = np.eye(d)
        turn[np.ix_([0, -1], [0, -1])] = [[0.8, -0.6], [0.6, 0.8]]
        tie = np.zeros(d)
        tie[[0, -1]] = 0.8, -0.6
        for R in (haar_rotations(d, 1, rng)[0], turn):
            u = random_unit_vectors(d, 2000, rng)
            u = np.concatenate([u, self.near_equator(R, u), [tie, -tie],
                                np.eye(d)[1:-1]])
            w = np.einsum("k,...k->...", R[-1], u)
            want = np.where(w == 0, _lead_sign(u), np.where(w > 0, 1.0, -1.0))
            assert np.array_equal(lift_sign(R, u), want)
            assert R is not turn or (w == 0).sum() >= d  # the exact ties
            assert np.array_equal(lift_sign(R, u[0]), want[0])


class TestHaarSampling:
    def test_deterministic_given_seed(self):
        assert np.array_equal(haar_rotations(3, 1, 42), haar_rotations(3, 1, 42))
        assert not np.array_equal(haar_rotations(3, 1, 42),
                                  haar_rotations(3, 1, 43))

    def test_rotation_invariants_in_bulk(self):
        for d in (2, 3, 4):
            Q = haar_rotations(d, 10_000, rng=d)
            eye = np.eye(d)
            resid = np.abs(np.einsum("nij,nik->njk", Q, Q) - eye).max()
            assert resid < 1e-10
            assert np.abs(np.linalg.det(Q) - 1.0).max() < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pushforward_matches_uniform_sphere_coordinate(self, d):
        # (R n) . e is distributed like a single coordinate of a uniform
        # sphere point: (t + 1)/2 ~ Beta((d-1)/2, (d-1)/2)
        n = np.zeros(d)
        n[0] = 1.0
        size = 1_000_000
        Q = haar_rotations(d, size, rng=77 + d)
        t = (Q @ n)[:, -1]
        cdf = stats.beta((d - 1) / 2, (d - 1) / 2).cdf
        ks = stats.kstest(t, lambda x: cdf((x + 1) / 2)).statistic
        assert ks < 1.628 / np.sqrt(size)  # 1% critical value

    def test_cap_frequency_independent_of_base_point(self):
        # mu({R: Rn in S}) depends only on the cap S, not on n
        d = 3
        cap_center = np.array([0.3, -0.5, np.sqrt(1 - 0.09 - 0.25)])
        cos_r = np.cos(0.8)
        size = 200_000
        freqs = []
        for k, n in enumerate([np.eye(d)[0], np.eye(d)[2],
                               np.ones(d) / np.sqrt(d)]):
            Q = haar_rotations(d, size, rng=100 + k)
            freqs.append(np.mean((Q @ n) @ cap_center > cos_r))
        # analytic cap fraction for d = 3 is (1 - cos r) / 2
        frac = (1 - cos_r) / 2
        sigma = np.sqrt(frac * (1 - frac) / size)
        for f in freqs:
            assert abs(f - frac) < 4 * sigma
