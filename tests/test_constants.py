import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bvlift import constants
from bvlift.constants import (avg_eucl_jump, avg_eucl_jump_closed,
                              avg_lifted_dist, avg_lifted_dist_closed,
                              ball_volume, c1d_const, ca_const, cj_estimate,
                              k_const, m_const, psi_closed, psi_estimate,
                              sphere_area)
from bvlift.geometry import (chord, dist_sphere, embed_tensor,
                             haar_rotations, random_unit_vectors)

SAMPLES = 200_000


def pair_at_angle(d, theta):
    n = np.zeros(d)
    n[-1] = 1.0
    m = np.zeros(d)
    m[-1] = np.cos(theta)
    m[-2] = np.sin(theta)
    return n, m


class TestSurfaceMeasures:
    def test_sphere_areas(self):
        assert sphere_area(0) == 2.0
        assert sphere_area(1) == pytest.approx(2 * np.pi, abs=1e-12)
        assert sphere_area(2) == pytest.approx(4 * np.pi, abs=1e-12)
        assert sphere_area(3) == pytest.approx(2 * np.pi ** 2, abs=1e-12)

    def test_ball_volumes(self):
        assert ball_volume(0) == 1.0
        assert ball_volume(1) == pytest.approx(2.0, abs=1e-12)
        assert ball_volume(2) == pytest.approx(np.pi, abs=1e-12)
        assert ball_volume(3) == pytest.approx(4 * np.pi / 3, abs=1e-12)

    def test_gamma_overflow_and_bad_dimensions(self):
        # where Gamma overflows a float (from Gamma(172)) the measures take
        # a log form; they read 0 only where the measure itself underflows
        assert sphere_area(343) > 0.0 and ball_volume(342) > 0.0
        assert sphere_area(454) > 0.0 and sphere_area(455) == 0.0
        assert ball_volume(452) > 0.0 and ball_volume(453) == 0.0
        assert m_const(400).value > 0.0 and m_const(3000).value == 0.0
        for k in (-1, 1.5):
            with pytest.raises(ValueError, match="integers >= 0"):
                sphere_area(k)

    @staticmethod
    def log_ball_volume(k):
        """log H^k(B^k) from vol(B^k) = 2 pi / k vol(B^(k - 2)), vol(B^0) = 1
        and vol(B^1) = 2, summed in log space."""
        return sum(math.log(2 * math.pi / j) for j in range(k, 1, -2)) \
            + (math.log(2.0) if k % 2 else 0.0)

    def test_log_form_matches_the_ball_recurrence(self):
        # M(400) = 2 vol(B^398) ~ 4.3e-274: Gamma(200) overflows, the
        # measure does not
        assert m_const(400).value == pytest.approx(
            2 * math.exp(self.log_ball_volume(398)), rel=1e-11, abs=0)
        for k in range(300, 440, 7):  # across the switch at k = 342
            assert ball_volume(k) == pytest.approx(
                math.exp(self.log_ball_volume(k)), rel=1e-11, abs=0)
            # H^k(S^k) = 2 pi vol(B^(k - 1))
            assert sphere_area(k) == pytest.approx(
                2 * math.pi * math.exp(self.log_ball_volume(k - 1)),
                rel=1e-11, abs=0)


class TestKConst:
    def test_one_dimensional(self):
        assert k_const(1).value == 1.0

    def test_circle(self):
        # closed-form oracle: (1/2pi) * circumference integral of |cos| = 2/pi
        assert k_const(2).value == pytest.approx(2 / np.pi, abs=1e-12)

    def test_two_sphere(self):
        # closed-form oracle: (1/2) int_0^pi |cos| sin = 1/2
        assert k_const(3).value == pytest.approx(0.5, abs=1e-12)

    def test_gamma_closed_form(self):
        # K_N = 2 Gamma(N/2) / ((N-1) sqrt(pi) Gamma((N-1)/2))
        from scipy.special import gamma
        for N in range(2, 8):
            closed = 2 * gamma(N / 2) / ((N - 1) * np.sqrt(np.pi)
                                         * gamma((N - 1) / 2))
            assert k_const(N).value == pytest.approx(closed, abs=1e-12)

    def test_recurrence_up_to_400(self):
        # K_{N+2} = K_N N / (N + 1) from K_1 = 1 and K_2 = 2/pi, the
        # rational factor kept exact; past N = 339 Gamma((N+1)/2) overflows
        ratio = {1: Fraction(1), 2: Fraction(1)}
        for N in range(3, 401):
            ratio[N] = ratio[N - 2] * Fraction(N - 2, N - 1)
        for N, r in ratio.items():
            res = k_const(N)
            want = float(r) * (2 / math.pi if N % 2 == 0 else 1.0)
            assert res.value == pytest.approx(want, rel=1e-12), N
            assert (res.method, res.error_estimate) == ("closed_form", 0.0)

    def test_rejects_N_below_one(self):
        with pytest.raises(ValueError, match="N must be"):
            k_const(0)


class TestMConst:
    def test_flat_case(self):
        assert m_const(2).value == 2.0

    def test_circle_case(self):
        assert m_const(3).value == pytest.approx(4.0, abs=1e-12)

    def test_matches_ball_volume_closed_form(self):
        for d in range(2, 7):
            assert m_const(d).value == pytest.approx(
                2 * ball_volume(d - 2), abs=1e-9)

    def test_flat_ratio_identity(self):
        # 1 + 2 M / H^{d-1}(S^{d-1}) = 1 + 2/pi in every dimension
        for d in range(2, 7):
            lhs = 1 + 2 * m_const(d).value / sphere_area(d - 1)
            assert lhs == pytest.approx(1 + 2 / np.pi, abs=1e-9)

    def test_rejects_d_below_two(self):
        with pytest.raises(ValueError, match="d must be"):
            m_const(1)


class TestAvgLiftedDist:
    def test_equal_points_exact_zero(self):
        n, _ = pair_at_angle(3, 0.0)
        res = avg_lifted_dist(n, n, 10_000, seed=0)
        assert res.value == 0.0
        assert res.method == "monte_carlo"

    def test_right_angle(self):
        n, m = pair_at_angle(3, np.pi / 2)
        res = avg_lifted_dist(n, m, SAMPLES, seed=1)
        tol = max(3 * res.error_estimate, 1e-12)
        assert abs(res.value - np.pi / 2) <= tol

    def test_third_angle_closed_form(self):
        # (2/pi)(pi/3)(2pi/3) = 4 pi / 9
        n, m = pair_at_angle(3, np.pi / 3)
        res = avg_lifted_dist(n, m, SAMPLES, seed=2)
        assert avg_lifted_dist_closed(np.pi / 3) == pytest.approx(
            4 * np.pi / 9, abs=1e-14)
        assert abs(res.value - 4 * np.pi / 9) <= 3 * res.error_estimate

    def test_fifty_random_triples_match_closed_form(self):
        rng = np.random.default_rng(3)
        for k in range(50):
            d = int(rng.integers(2, 5))
            n = random_unit_vectors(d, 1, rng)[0]
            m = random_unit_vectors(d, 1, rng)[0]
            theta = np.arccos(np.clip(n @ m, -1, 1))
            res = avg_lifted_dist(n, m, 40_000, seed=100 + k)
            tol = max(4 * res.error_estimate, 1e-12)
            assert abs(res.value - avg_lifted_dist_closed(theta)) <= tol


class TestPsi:
    def test_zero_angle_exact(self):
        res = psi_estimate(0.0, 3, 10_000, seed=0)
        assert res.value == 0.0

    def test_right_angle_quarter(self):
        res = psi_estimate(np.pi / 2, 3, SAMPLES, seed=1)
        assert abs(res.value - 0.25) <= 3 * res.error_estimate

    def test_quarter_angle_d4(self):
        res = psi_estimate(np.pi / 4, 4, SAMPLES, seed=2)
        assert psi_closed(np.pi / 4) == pytest.approx(1 / 8, abs=1e-15)
        assert abs(res.value - 1 / 8) <= 3 * res.error_estimate

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            psi_estimate(-0.1, 3, 1000)

    def test_additivity(self):
        # psi(a + b) = psi(a) + psi(b) up to Monte Carlo error
        a, b = 0.7, 1.1
        ra = psi_estimate(a, 3, SAMPLES, seed=3)
        rb = psi_estimate(b, 3, SAMPLES, seed=4)
        rab = psi_estimate(a + b, 3, SAMPLES, seed=5)
        err = np.sqrt(ra.error_estimate**2 + rb.error_estimate**2
                      + rab.error_estimate**2)
        assert abs(rab.value - ra.value - rb.value) <= 4 * err


class TestAvgEuclJump:
    def test_endpoints_vanish(self):
        for theta in (0.0, np.pi):
            res = avg_eucl_jump(theta, 10_000, seed=0, d=3)
            assert res.value == pytest.approx(0.0, abs=1e-12)
            assert avg_eucl_jump_closed(theta) == pytest.approx(0.0, abs=1e-12)

    def test_right_angle_sqrt2(self):
        # at a right angle the integrand is constant, so the estimate is
        # exact up to accumulation roundoff and the standard error is zero
        res = avg_eucl_jump(np.pi / 2, SAMPLES, seed=1, d=3)
        assert avg_eucl_jump_closed(np.pi / 2) == pytest.approx(
            np.sqrt(2), abs=1e-14)
        assert abs(res.value - np.sqrt(2)) <= max(3 * res.error_estimate, 1e-12)

    def test_closed_form_on_grid(self):
        for k, theta in enumerate((np.pi / 6, np.pi / 3, 2 * np.pi / 3)):
            res = avg_eucl_jump(theta, SAMPLES, seed=10 + k, d=2)
            assert abs(res.value - avg_eucl_jump_closed(theta)) \
                <= 4 * res.error_estimate

    def test_tensor_jump_bound(self):
        # averaged Euclidean jump <= (1 + 2/pi) sin(theta)
        for k, theta in enumerate(np.linspace(0.1, np.pi - 0.1, 7)):
            res = avg_eucl_jump(theta, 50_000, seed=20 + k, d=3)
            bound = (1 + 2 / np.pi) * np.sin(theta)
            assert res.value <= bound + 4 * res.error_estimate


class TestAverages:
    ESTIMATORS = {"avg_lifted_dist": "avg_lifted_dist", "psi": "psi_estimate",
                  "avg_eucl_jump": "avg_eucl_jump"}

    def test_entries_are_the_estimators_and_closed_forms(self):
        direct = {
            "avg_lifted_dist": (avg_lifted_dist(*pair_at_angle(4, 0.7), 5000,
                                                3), avg_lifted_dist_closed),
            "psi": (psi_estimate(0.7, 4, 5000, 3), psi_closed),
            "avg_eucl_jump": (avg_eucl_jump(0.7, 5000, 3, 4),
                              avg_eucl_jump_closed)}
        assert list(constants.AVERAGES) == list(direct)
        for name, (estimate, closed, _) in constants.AVERAGES.items():
            assert (estimate(0.7, 4, 5000, 3), closed) == direct[name]

    def test_entries_look_the_estimator_up_when_called(self, monkeypatch):
        # a rebound estimator (a tracing wrapper, say) is the one that runs
        for estimator in self.ESTIMATORS.values():
            monkeypatch.setattr(constants, estimator,
                                lambda *args, e=estimator: e)
        for name, (estimate, _, _) in constants.AVERAGES.items():
            assert estimate(0.7, 4, 10, 3) == self.ESTIMATORS[name]


class GivenDraw(np.random.Generator):
    """A generator whose standard normal draws are given points, in order.
    The sampler counts signs of its draw, so any points with the signs of a
    Gaussian draw stand for one; ``np.random.default_rng`` passes a
    generator through as it is."""

    def __init__(self, points):
        super().__init__(np.random.PCG64(0))
        self.points = points

    def standard_normal(self, size):
        k, d = size
        assert d == self.points.shape[1] and k <= len(self.points)
        head, self.points = self.points[:k], self.points[k:]
        return head


def unit_vector_formula(n, ms, samples, seed, chunk):
    """The sampler written with unit vectors: each chunk normalized by
    ``random_unit_vectors``, then one product ``r @ m`` per m."""
    n, *ms = np.array([n, *ms], dtype=float)
    rng = np.random.default_rng(seed)
    same, split = np.zeros((2, len(ms)), dtype=np.int64)
    for start in range(0, samples, chunk):
        r = random_unit_vectors(len(n), min(samples - start, chunk), rng)
        up = r @ n > 0
        for j, m in enumerate(ms):
            b = r @ m
            same[j] += np.count_nonzero((b > 0) == up)
            split[j] += np.count_nonzero((b < 0) & up)

    def estimate(count, x, y):
        p, q = count / samples, (samples - count) / samples
        return constants.ConstantResult(
            x * p + y * q, "monte_carlo",
            abs(x - y) * np.sqrt(p * q / samples), samples)

    out = []
    for m, s, c in zip(ms, same, split):
        theta = float(np.arccos(np.clip(n @ m, -1.0, 1.0)))
        out.append({"avg_lifted_dist": estimate(s, theta, np.pi - theta),
                    "psi": estimate(c, 1.0, 0.0),
                    "avg_eucl_jump": estimate(s, float(chord(n, m)),
                                              float(chord(n, -m)))})
    return out


class TestSphereSampler:
    """The estimators sample r = R^T e_d on the sphere, not rotations R, and
    count sign patterns of (r.n, r.m) in place of evaluating integrands."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_integrands_match_rotation_definitions(self, d):
        theta = 1.1
        n, m = pair_at_angle(d, theta)
        R = haar_rotations(d, 20_000, np.random.default_rng(d))
        wn, wm = R @ n, R @ m
        # the fold F onto the upper hemisphere, off its equator
        Fn, Fm = (np.where(w[:, -1:] > 0, w, -w) for w in (wn, wm))
        r = R[:, -1, :]  # the last row r = R^T e_d
        a, b = r @ n, r @ m
        assert np.allclose(a, wn[:, -1], rtol=0, atol=1e-15)
        off = (np.abs(a) > 1e-9) & (np.abs(b) > 1e-9)
        assert off.mean() > 0.99
        definitions = {
            "avg_lifted_dist": dist_sphere(Fn, Fm),
            "psi": (np.all(Fn == wn, axis=-1)
                    & np.all(Fm == -wm, axis=-1)).astype(float),
            "avg_eucl_jump": np.linalg.norm(Fn - Fm, axis=-1),
        }
        # a draw of the rotations of one sign class of (a, b) is on or off
        # each average's pattern throughout, so its estimate is the
        # integrand's value there, which every rotation of the class must take
        for sa in (True, False):
            for sb in (True, False):
                cls = off & ((a > 0) == sa) & ((b > 0) == sb)
                (got,) = constants._mc_over_sphere(n, [m], int(cls.sum()),
                                                   GivenDraw(r[cls]))
                for name, reference in definitions.items():
                    assert got[name].error_estimate == 0.0
                    assert np.max(np.abs(reference[cls] - got[name].value)) \
                        <= 1e-12

    def test_shared_draw_equals_single_draws(self, monkeypatch):
        monkeypatch.setattr(constants, "_MC_CHUNK", 1000)
        rng = np.random.default_rng(11)
        for k in range(6):
            d = int(rng.integers(2, 5))
            thetas = rng.uniform(0.0, np.pi, int(rng.integers(2, 6)))
            n = pair_at_angle(d, 0.0)[0]
            ms = [pair_at_angle(d, t)[1] for t in thetas]
            shared = constants._mc_over_sphere(n, ms, 2500, 40 + k)
            for theta, m, res in zip(thetas, ms, shared):
                (single,) = constants._mc_over_sphere(n, [m], 2500, 40 + k)
                assert res == single  # value, stderr and samples, bit for bit
                assert res["psi"] == psi_estimate(theta, d, 2500, 40 + k)
                assert res["avg_eucl_jump"] == avg_eucl_jump(
                    theta, 2500, 40 + k, d)

    def test_counts_equal_the_integrand_sums(self):
        # the count form x p + y (1 - p) and |x - y| sqrt(p (1 - p) / S)
        # against sum(v) / S and sqrt((sum(v^2) / S - mean^2) / S) of the
        # integrand values v on the same draw, evaluated in exact rationals
        # (in floats that form cancels to ~2e-15 relative on its own)
        samples = 2000
        for d in (2, 3, 4):
            for seed, theta in enumerate((0.3, np.pi / 3, 2.0, 2.9)):
                n, m = pair_at_angle(d, theta)
                r = random_unit_vectors(d, samples,
                                        np.random.default_rng(seed))
                a, b = r @ n, r @ m
                same = (a > 0) == (b > 0)
                t = float(np.arccos(np.clip(n @ m, -1.0, 1.0)))
                values = {
                    "avg_lifted_dist": np.where(same, t, np.pi - t),
                    "psi": ((a > 0) & (b < 0)).astype(float),
                    "avg_eucl_jump": np.where(same, np.linalg.norm(n - m),
                                              np.linalg.norm(n + m)),
                }
                (got,) = constants._mc_over_sphere(n, [m], samples, seed)
                for name, v in values.items():
                    v = [Fraction(x) for x in v.tolist()]
                    mean = sum(v) / samples
                    var = sum(x * x for x in v) / samples - mean * mean
                    stderr = math.sqrt(var / samples)
                    assert abs(got[name].value - float(mean)) \
                        <= 1e-15 * float(mean)
                    assert abs(got[name].error_estimate - stderr) \
                        <= 1e-15 * stderr

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_raw_draw_equals_unit_vector_formula(self, monkeypatch, d):
        # signs of g.m and of (g/|g|).m agree, so every count, value and
        # stderr is the unit-vector formula's, bit for bit
        rng = np.random.default_rng(100 + d)
        cases = []
        for k in range(1, 5):  # dense random n with 1-4 ms
            n, *ms = rng.standard_normal((1 + k, d))
            cases.append((n / np.linalg.norm(n),
                          [m / np.linalg.norm(m) for m in ms]))
        n = pair_at_angle(d, 0.0)[0]
        cases.append((n, [pair_at_angle(d, t)[1]
                          for t in (0.0, np.pi / 2, np.pi)]))
        for i, (n, ms) in enumerate(cases):
            for samples in (1, 65_536, 150_001):
                assert constants._mc_over_sphere(n, ms, samples, i) \
                    == unit_vector_formula(n, ms, samples, i, 200_000)
        monkeypatch.setattr(constants, "_MC_CHUNK", 1000)
        for i, (n, ms) in enumerate(cases):
            for samples in (999, 2500, 3001):
                assert constants._mc_over_sphere(n, ms, samples, i) \
                    == unit_vector_formula(n, ms, samples, i, 1000)

    def test_draw_memory_is_bounded_by_the_chunk(self):
        # one 1e6-sample d = 4 draw with four ms peaks near 7.5 MB; 200 000
        # normalized points per chunk, with one product per m, take 22.7 MB
        n = pair_at_angle(4, 0.0)[0]
        ms = [pair_at_angle(4, t)[1] for t in (0.5, 1.0, 2.0, 3.0)]
        tracemalloc.start()
        try:
            constants._mc_over_sphere(n, ms, 1_000_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_samples_rejected(self, samples):
        for estimate in (
                lambda: avg_lifted_dist(*pair_at_angle(3, 1.0), samples),
                lambda: psi_estimate(1.0, 3, samples),
                lambda: avg_eucl_jump(1.0, samples)):
            with pytest.raises(ValueError, match="samples"):
                estimate()

    def test_chunked_mean_equals_one_chunk_mean(self, monkeypatch):
        def estimates():
            return [avg_lifted_dist(*pair_at_angle(3, 0.9), 2500, seed=4),
                    psi_estimate(0.9, 3, 2500, seed=5),
                    avg_eucl_jump(0.9, 2500, seed=6, d=3)]

        one = estimates()
        monkeypatch.setattr(constants, "_MC_CHUNK", 1000)
        for x, y in zip(one, estimates()):
            assert x.error_estimate > 0
            assert abs(x.value - y.value) <= 1e-12
            assert abs(x.error_estimate - y.error_estimate) <= 1e-12


# Gauss-Legendre nodes and weights on [0, pi/2]
_T, _W = np.polynomial.legendre.leggauss(200)
QUARTER_NODES, QUARTER_WEIGHTS = (_T + 1) * np.pi / 4, _W * np.pi / 4


def sphere_integral_of_norm(V):
    """Integral of |V^t omega| over S^{d-2} for a (d-1) x N matrix V, d in
    {3, 4}.

    The integral is invariant under omega -> Q omega, so it is taken in the
    eigenframe of S = V V^t, where sqrt(omega^t S omega) is even in every
    coordinate: 4 times a quadrant of the circle or 8 times an octant of the
    sphere.  The angles start at the axis of the smallest eigenvalue, which
    keeps the integrand smooth inside the quadrant or octant (near zeros sit
    at its edges, where Gauss-Legendre nodes cluster).
    """
    lam = np.clip(np.linalg.eigvalsh(V @ V.T), 0.0, None)  # ascending
    a, w = QUARTER_NODES, QUARTER_WEIGHTS
    if len(lam) == 2:
        return 4 * w @ np.sqrt(lam[0] * np.cos(a) ** 2
                               + lam[1] * np.sin(a) ** 2)
    phi, theta = a[:, None], a[None, :]
    sq = (lam[0] * np.cos(phi) ** 2
          + np.sin(phi) ** 2 * (lam[1] * np.cos(theta) ** 2
                                + lam[2] * np.sin(theta) ** 2))
    return 8 * w @ (np.sqrt(sq) * np.sin(phi)) @ w


class TestCa:
    AREA = {3: 4 * np.pi, 4: 2 * np.pi ** 2}  # H^{d-1}(S^{d-1})

    def sup(self, N, d):
        return (ca_const(N, d).value - 1) * self.AREA[d] / 2

    def test_flat_target_any_N(self):
        for N in (1, 2, 5):
            assert ca_const(N, 2).value == pytest.approx(
                1 + 2 / np.pi, abs=1e-12)

    def test_rank_one_reduction(self):
        for d in (3, 4, 5):
            assert ca_const(1, d).value == pytest.approx(
                1 + 2 / np.pi, abs=1e-9)

    def test_two_three_reaches_sqrt_half(self):
        assert ca_const(2, 3).value == pytest.approx(1 + 1 / np.sqrt(2),
                                                     rel=1e-12)

    def test_lower_bound_everywhere(self):
        for (N, d) in ((2, 3), (3, 3), (2, 4)):
            assert ca_const(N, d).value >= 1 + 2 / np.pi

    def test_closed_forms(self):
        # k = min(N, d - 1) sets the value
        by_k = {1: 1 + 2 / np.pi, 2: 1 + 1 / np.sqrt(2),
                3: 1 + 4 / (np.pi * np.sqrt(3)), 4: 7 / 4,
                5: 1 + 16 / (3 * np.pi * np.sqrt(5))}
        for N in range(1, 6):
            for d in range(2, 9):
                res = ca_const(N, d)
                assert res.value == pytest.approx(by_k[min(N, d - 1)],
                                                  rel=1e-12), (N, d)
                assert (res.method, res.error_estimate) == ("closed_form",
                                                            0.0)

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_supremum_attained_at_scaled_projection(self, N, d):
        k = min(N, d - 1)
        V = np.zeros((d - 1, N))
        V[range(k), range(k)] = 1 / np.sqrt(k)
        assert sphere_integral_of_norm(V) == pytest.approx(self.sup(N, d),
                                                           abs=1e-9)

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_random_directions_stay_below(self, N, d):
        sup = self.sup(N, d)
        rng = np.random.default_rng(10 * N + d)
        for _ in range(200):
            V = rng.standard_normal((d - 1, N))
            g = sphere_integral_of_norm(V / np.linalg.norm(V))
            assert g <= sup + 1e-9
            if N == 1:  # every unit vector b gives the same integral
                assert g == pytest.approx(sup, abs=1e-9)

    def test_rejects_N_below_one_and_d_below_two(self):
        with pytest.raises(ValueError, match="N must be"):
            ca_const(0, 3)
        with pytest.raises(ValueError, match="d must be"):
            ca_const(2, 1)


class TestCj:
    def test_tensor_value(self):
        res = cj_estimate("tensor")
        assert res.value == pytest.approx(1 + 2 / np.pi, abs=1e-12)

    def test_pointwise_inequality_on_dense_grid(self):
        th = np.linspace(0, np.pi, 100_001)
        lhs = th * np.cos(th / 2) + (np.pi - th) * np.sin(th / 2)
        assert np.all(lhs <= (1 + np.pi / 2) * np.sin(th) + 1e-12)
        # and the bound is the supremum, reached as theta -> 0
        ratio = lhs[1:-1] / np.sin(th[1:-1])
        assert np.max(ratio) == pytest.approx(1 + np.pi / 2, abs=1e-4)

    def test_non_tensor_embedding_rejected(self):
        for embedding in ("identity", None, embed_tensor):
            with pytest.raises(ValueError, match="tensor"):
                cj_estimate(embedding)


class TestC1d:
    def test_value(self):
        assert c1d_const().value == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_integrand_limits(self):
        f = lambda t: 2 * np.sin(t / 2) / np.sin(t)
        assert f(1e-8) == pytest.approx(1.0, abs=1e-9)
        assert f(np.pi / 2) == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_supremum_attained_at_right_endpoint(self):
        t = np.linspace(1e-6, np.pi / 2, 10_000)
        vals = 2 * np.sin(t / 2) / np.sin(t)
        assert np.argmax(vals) == len(t) - 1
