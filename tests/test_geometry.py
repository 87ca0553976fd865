import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from bvlift import geometry
from bvlift.geometry import (_lead_sign, _norms, _squared_chords, _upper,
                             canonicalize, dist_proj, dist_sphere,
                             embed_tensor, eucl_jump_cost, haar_rotations,
                             lift_sign, random_unit_vectors, uniaxial_q)


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


def fold(w):
    """The paper's F, evaluated directly: w if w.e_d > 0, else -w, and the
    canonical representative on the equator."""
    last = w[..., -1:]
    return np.where(last > 0, w, np.where(last < 0, -w, canonicalize(w)))


class TestFoldingMap:
    """F is the lifting along the direction e_d."""

    @staticmethod
    def F(n):
        n = np.asarray(n, dtype=float)
        return lift_sign(e(n.shape[-1] - 1, n.shape[-1]), n)[..., None] * n

    def test_north_pole(self):
        assert np.array_equal(self.F(e(2, 3)), e(2, 3))

    def test_south_pole_folds_up(self):
        assert np.array_equal(self.F(-e(2, 3)), e(2, 3))

    def test_negative_cap_flips(self):
        n = np.array([0.6, np.sqrt(1 - 0.36 - 0.09), -0.3])
        assert np.array_equal(self.F(n), -n)

    def test_symmetry_everywhere(self):
        rng = np.random.default_rng(9)
        n = random_unit_vectors(3, 10_000, rng)
        assert np.array_equal(self.F(n), self.F(-n))
        assert np.array_equal(self.F(n), fold(n))

    def test_equator_tie_break_is_canonical(self):
        n = np.array([-1.0, 0.0, 0.0])  # on the equator
        assert np.array_equal(self.F(n), np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(self.F(n), self.F(-n))


def lift_rot(R, u):
    """The rotated lifting R^{-1} F(R u) through its sign: R enters only
    through its last row, the direction r = R^T e_d."""
    return lift_sign(R[-1], u)[..., None] * u


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
        oracle = R.T @ fold(R @ n)
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
        # the paper's oracle: for a Haar R, lift_sign(R[-1], u) u equals
        # R^{-1} F(R u) = R^T F(R u) off the equator of R u
        rng = np.random.default_rng(12)
        for d in (2, 3):
            R = haar_rotations(d, 1, 10 + d)[0]
            u = canonicalize(random_unit_vectors(d, 200, rng))
            w = u @ R.T
            off = np.abs(w[:, -1]) > 1e-6
            direct = fold(w) @ R
            assert np.allclose(lift_rot(R, u)[off], direct[off], atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_rejects_a_direction_of_another_shape(self, d):
        # a d x d rotation would broadcast into a wrong sign array
        u = random_unit_vectors(d, 5, d)
        for r in (np.eye(d), np.ones(d + 1) / np.sqrt(d + 1)):
            with pytest.raises(ValueError) as err:
                lift_sign(r, u)
            assert f"{r.shape}" in str(err.value)
            assert f"{u.shape}" in str(err.value)


def index_order(terms):
    """Sum over the last axis: term 0, then terms 1, 2, ... added in turn."""
    total = terms[..., 0].copy()
    for k in range(1, terms.shape[-1]):
        total += terms[..., k]
    return total


class TestIndexOrderSums:
    """The short sums over the d components of a vector add their terms in
    index order, 0, 1, ..., d - 1, bit for bit; another order moves the
    last bits once three or more terms are nonzero."""

    @staticmethod
    def near_equator(r, u):
        """u with its component along r removed: u.r is of the order of
        rounding, so its sign rides on the summation order."""
        v = u - (u @ r)[:, None] * r
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    @pytest.mark.parametrize("d", range(1, 10))
    def test_squared_chords_are_in_index_order(self, d):
        rng = np.random.default_rng(30 + d)
        a, b = rng.standard_normal((2, 4000, d))
        planes = [[x[:, k] for k in range(d)] for x in (a, b)]
        minus, plus = index_order((a - b) ** 2), index_order((a + b) ** 2)
        bufs = [np.empty(len(a)) for _ in range(3)]
        for got in (_squared_chords(*planes, True),
                    _squared_chords(*planes, True, out=bufs)):
            assert np.array_equal(got[0], minus)
            assert np.array_equal(got[1], plus)
        for got in (_squared_chords(*planes),
                    _squared_chords(*planes, out=(bufs[0], None, bufs[2]))):
            assert np.array_equal(got[0], minus) and got[1] is None

    @pytest.mark.parametrize("d", range(2, 10))
    def test_lift_sign_equals_the_index_order_formula(self, d):
        rng = np.random.default_rng(40 + d)
        # a uniform direction, and one in the (e_1, e_d) plane whose
        # equator holds +-(0.8, 0, ..., 0, -0.6) and e_2, ..., e_{d-1}
        # exactly; and the near-equator rows of random points
        turn = np.zeros(d)
        turn[[0, -1]] = 0.6, 0.8
        tie = np.zeros(d)
        tie[[0, -1]] = 0.8, -0.6
        for r in (random_unit_vectors(d, 1, rng)[0], turn):
            u = random_unit_vectors(d, 2000, rng)
            u = np.concatenate([u, self.near_equator(r, u), [tie, -tie],
                                np.eye(d)[1:-1]])
            w = index_order(u * r)
            want = np.where(w == 0, _lead_sign(u), np.where(w > 0, 1.0, -1.0))
            assert np.array_equal(lift_sign(r, u), want)
            assert r is not turn or (w == 0).sum() >= d  # the exact ties
            assert np.array_equal(lift_sign(r, u[0]), want[0])

    @pytest.mark.parametrize("d", range(2, 10))
    def test_upper_is_the_sign_rule_of_lift_sign(self, d):
        # the boolean rule of the rotation search, on contiguous component
        # planes and on strided views, is the index-order formula and
        # lift_sign(r, u) > 0 bit for bit: on unit vectors of either sign
        # and on their canonical representatives, with the exact equator
        # ties of the turn direction
        rng = np.random.default_rng(50 + d)
        turn = np.zeros(d)
        turn[[0, -1]] = 0.6, 0.8
        tie = np.zeros(d)
        tie[[0, -1]] = 0.8, -0.6
        for r in (random_unit_vectors(d, 1, rng)[0], turn):
            u = random_unit_vectors(d, 2000, rng)
            u = np.concatenate([u, self.near_equator(r, u), [tie, -tie],
                                np.eye(d)[1:-1], -np.eye(d)[1:-1]])
            for v in (u, canonicalize(u)):
                w = index_order(v * r)
                want = np.where(w == 0, _lead_sign(v) > 0, w > 0)
                assert np.array_equal(lift_sign(r, v) > 0, want)
                strided = [v[:, k] for k in range(d)]
                for planes in (strided, [np.ascontiguousarray(p)
                                         for p in strided]):
                    got = _upper(r, planes)
                    assert got.dtype == bool and np.array_equal(got, want)
                assert r is not turn or (w == 0).sum() >= 2 * d - 2
                assert _upper(r, list(v[-1])) == want[-1]

    @pytest.mark.parametrize("d", range(2, 6))
    def test_stacked_upper_equals_one_row_upper(self, d):
        # a stack of directions is filled block by block of cells; each of
        # its rows is the one-row rule, on exact equator ties (u.r == 0)
        # in the first and the ragged last block
        rng = np.random.default_rng(70 + d)
        turn = np.zeros(d)
        turn[[0, -1]] = 0.6, 0.8
        tie = np.zeros(d)
        tie[[0, -1]] = 0.8, -0.6
        ties = np.concatenate([[tie, -tie], np.eye(d)[1:]])  # u.e_0 == 0 too
        u = random_unit_vectors(d, 2 * geometry._SIGN_BLOCK + 36, rng)
        u[:len(ties)] = ties
        u[-len(ties):] = ties
        dirs = np.concatenate([random_unit_vectors(d, 4, rng),
                               [turn, np.eye(d)[0], -turn]])
        for v in (u, canonicalize(u)):
            strided = [v[:, k] for k in range(d)]
            for planes in (strided, [np.ascontiguousarray(p)
                                     for p in strided]):
                stack = _upper(dirs, planes)
                assert stack.shape == (len(dirs), len(v))
                for r, got in zip(dirs, stack):
                    w = index_order(v * r)
                    want = np.where(w == 0, _lead_sign(v) > 0, w > 0)
                    assert np.array_equal(got, want)
                    assert np.array_equal(_upper(r, planes), got)
                grid = [p.reshape(-1, 4) for p in planes]
                assert np.array_equal(_upper(dirs.reshape(7, 1, d), grid),
                                      stack.reshape(7, 1, -1, 4))
            w = index_order(v[-len(ties):] * turn)
            assert (w == 0).sum() >= 2  # ties in the last block

    @pytest.mark.parametrize("d", range(1, 13))
    def test_norms_are_in_index_order(self, d):
        # numpy's norm over the last axis adds up to seven squares in index
        # order too, and eight or more in another order
        rng = np.random.default_rng(60 + d)
        v = (rng.standard_normal((3000, d))
             * rng.choice([1e-3, 1.0, 1e3], (3000, d)))
        for x in (v, v.reshape(30, 100, d), v[::-1, ::-1]):
            got = _norms(x)
            assert np.array_equal(got, np.sqrt(index_order(x * x)))
            if d <= 7:
                assert np.array_equal(got, np.linalg.norm(x, axis=-1))
        if d >= 8:
            assert not np.array_equal(_norms(v), np.linalg.norm(v, axis=-1))


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
