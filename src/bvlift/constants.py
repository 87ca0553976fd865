"""Numerical evaluation of the optimality constants and averaging identities.

Every estimate is returned as a :class:`ConstantResult` carrying the method
used and an error estimate.  Monte Carlo estimates always report the sample
standard error; acceptance thresholds elsewhere in the package are phrased in
multiples of it.  Closed forms of the averaged quantities are provided next to
the Monte Carlo estimators so the two routes can be compared independently.
scipy is imported on first use, by the quadratures and ``sphere_area`` /
``ball_volume``, so that ``import bvlift`` needs only numpy.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import chord, random_unit_vectors

__all__ = [
    "ConstantResult",
    "sphere_area",
    "ball_volume",
    "sphere_quad",
    "k_const",
    "avg_lifted_dist",
    "avg_lifted_dist_closed",
    "psi_estimate",
    "psi_closed",
    "avg_eucl_jump",
    "avg_eucl_jump_closed",
    "AVERAGES",
    "m_const",
    "ca_const",
    "cj_estimate",
    "c1d_const",
]

_MC_CHUNK = 200_000  # sphere points held in memory at once


@dataclass
class ConstantResult:
    value: float
    method: str  # closed_form | quadrature | monte_carlo | optimization
    error_estimate: float = 0.0
    samples_or_nodes: int = 0
    params: dict = field(default_factory=dict)


def sphere_area(k):
    """Surface measure H^k(S^k); the zero-sphere {+-1} has counting measure 2."""
    from scipy.special import gamma
    return 2.0 * np.pi ** ((k + 1) / 2.0) / gamma((k + 1) / 2.0)


def ball_volume(k):
    """Lebesgue volume H^k(B^k) of the unit ball; a point for k = 0."""
    from scipy.special import gamma
    return np.pi ** (k / 2.0) / gamma(k / 2.0 + 1.0)


def sphere_quad(k, n=64):
    """Product Gauss grid on S^k in R^{k+1}: nodes and weights summing to the area.

    k = 0 is the two-point set {+-1}; k = 1 a midpoint rule on the circle;
    higher spheres recurse through Gauss-Legendre in the polar cosine.
    """
    if k == 0:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if k == 1:
        th = (np.arange(n) + 0.5) / n * 2.0 * np.pi
        return (np.stack([np.cos(th), np.sin(th)], axis=-1),
                np.full(n, 2.0 * np.pi / n))
    t, w = np.polynomial.legendre.leggauss(n)
    sub_pts, sub_w = sphere_quad(k - 1, n)
    s = np.sqrt(1.0 - t * t)
    pts = np.concatenate(
        [s[:, None, None] * sub_pts[None, :, :],
         np.broadcast_to(t[:, None, None], (n, len(sub_w), 1)).copy()],
        axis=-1)
    W = w[:, None] * (s ** (k - 2))[:, None] * sub_w[None, :]
    return pts.reshape(-1, k + 1), W.reshape(-1)


def _polar_integrals(*integrands):
    """Adaptive quadratures of the integrands over the polar angle [0, pi],
    split at pi/2 so that |cos| is smooth on each panel.  Returns the
    integrals and the sum of their error estimates, added panel by panel."""
    from scipy import integrate
    vals = [0.0] * len(integrands)
    err = 0.0
    for a, b in ((0.0, np.pi / 2), (np.pi / 2, np.pi)):
        for i, fn in enumerate(integrands):
            v, e = integrate.quad(fn, a, b, epsabs=1e-13, epsrel=1e-13)
            vals[i] += v
            err += e
    return vals, err


def k_const(N):
    """Spherical average of |omega . e| over S^{N-1}.

    Exact for N = 1 (average of |+-1|); adaptive quadrature in the polar
    angle otherwise.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N == 1:
        return ConstantResult(1.0, "closed_form")
    # K_N = int |cos| sin^{N-2} dphi / int sin^{N-2} dphi over [0, pi]
    (num, den), err = _polar_integrals(
        lambda p: abs(np.cos(p)) * np.sin(p) ** (N - 2),
        lambda p: np.sin(p) ** (N - 2))
    return ConstantResult(num / den, "quadrature", error_estimate=err)


def _mc_over_sphere(n, ms, samples, seed):
    """Rotation averages of the pairs (n, m), m in ``ms``, from one Monte
    Carlo draw: per m, the :data:`AVERAGES` names mapped to their estimates.

    A Haar rotation R enters only through r = R^T e_d, uniform on S^{d-1}:
    F sees (Rn).e_d = r.n, and |F(Rn) - F(Rm)| = |s_n n - s_m m| with
    s = sgn(r.n).  So each integrand is x on a sign pattern of (r.n, r.m)
    and y off it: the distance theta or pi - theta and the jump |n - m| or
    |n + m| as the signs agree or not, the split indicator 1 or 0 as
    r.n > 0 > r.m or not.  With p the share of samples on the pattern, the
    mean is x p + y (1 - p) and the standard error |x - y| sqrt(p (1 - p) /
    samples), the sample variance written exactly.  Chunks of at most
    ``_MC_CHUNK`` points draw in order from one generator seeded by
    ``seed``, so each m gets the counts of a draw of its pair alone.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n, *ms = np.array([n, *ms], dtype=float)
    rng = np.random.default_rng(seed)
    same, split = np.zeros((2, len(ms)), dtype=np.int64)
    for start in range(0, samples, _MC_CHUNK):
        r = random_unit_vectors(len(n), min(samples - start, _MC_CHUNK), rng)
        up = r @ n > 0
        for j, m in enumerate(ms):
            b = r @ m
            same[j] += np.count_nonzero((b > 0) == up)
            split[j] += np.count_nonzero((b < 0) & up)

    def estimate(count, x, y):
        p, q = count / samples, (samples - count) / samples
        return ConstantResult(x * p + y * q, "monte_carlo",
                              abs(x - y) * np.sqrt(p * q / samples), samples)

    thetas = [float(np.arccos(np.clip(n @ m, -1.0, 1.0))) for m in ms]
    return [{"avg_lifted_dist": estimate(s, theta, np.pi - theta),
             "psi": estimate(c, 1.0, 0.0),
             "avg_eucl_jump": estimate(s, float(chord(n, m)),
                                       float(chord(n, -m)))}
            for m, theta, s, c in zip(ms, thetas, same, split)]


def _pair_at_angle(d, theta):
    """Unit vectors (n, m) in R^d at geodesic angle theta (canonical frame)."""
    if not (0.0 <= theta <= np.pi):
        raise ValueError("theta must be in [0, pi]")
    if d < 2:
        raise ValueError("d must be >= 2")
    n = np.zeros(d)
    n[-1] = 1.0
    m = np.zeros(d)
    m[-1] = np.cos(theta)
    m[-2] = np.sin(theta)
    return n, m


def avg_lifted_dist(n, m, samples, seed=0):
    """Monte Carlo average of dist(F(Rn), F(Rm)) over Haar rotations."""
    return _mc_over_sphere(n, [m], samples, seed)[0]["avg_lifted_dist"]


def avg_lifted_dist_closed(theta):
    """Closed form of the averaged lifted distance: (2/pi) theta (pi - theta)."""
    return 2.0 / np.pi * theta * (np.pi - theta)


def psi_estimate(theta, d, samples, seed=0):
    """Monte Carlo estimate of mu({R : Rn.e_d > 0 and Rm.e_d < 0}) at angle theta."""
    n, m = _pair_at_angle(d, theta)
    return _mc_over_sphere(n, [m], samples, seed)[0]["psi"]


def psi_closed(theta):
    """Closed form of the hemisphere-split measure: theta / (2 pi)."""
    return theta / (2.0 * np.pi)


def avg_eucl_jump(theta, samples, seed=0, d=3):
    """Monte Carlo average of |F(Rn) - F(Rm)| over Haar rotations."""
    n, m = _pair_at_angle(d, theta)
    return _mc_over_sphere(n, [m], samples, seed)[0]["avg_eucl_jump"]


def _jump_numerator(theta):
    # theta cos(theta/2) + (pi - theta) sin(theta/2)
    return theta * np.cos(theta / 2.0) + (np.pi - theta) * np.sin(theta / 2.0)


def avg_eucl_jump_closed(theta):
    """Closed form: (2/pi)((pi - theta) sin(theta/2) + theta cos(theta/2))."""
    return 2.0 / np.pi * _jump_numerator(theta)


# name -> (estimate(theta, d, samples, seed), closed_form(theta), identity);
# an estimate looks its estimator up by name when called, so a rebound one runs
AVERAGES = {
    "avg_lifted_dist": (
        lambda theta, d, samples, seed:
            avg_lifted_dist(*_pair_at_angle(d, theta), samples, seed),
        avg_lifted_dist_closed,
        "mean over rotations of dist(F(Rn), F(Rm)) = (2/pi) theta (pi - theta)"),
    "psi": (
        lambda theta, d, samples, seed: psi_estimate(theta, d, samples, seed),
        psi_closed,
        "measure of opposite-hemisphere rotations = theta / (2 pi)"),
    "avg_eucl_jump": (
        lambda theta, d, samples, seed: avg_eucl_jump(theta, samples, seed, d),
        avg_eucl_jump_closed,
        "mean |F(Rn) - F(Rm)| = (2/pi)((pi-theta) sin(theta/2) "
        "+ theta cos(theta/2))"),
}


def m_const(d):
    """sup_b of the integral of |b . omega| over S^{d-2} (independent of b).

    Computed by quadrature in the polar angle; S^0 = {+-1} for d = 2 gives
    the value 2 directly.  Matches the closed form 2 H^{d-2}(B^{d-2}).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if d == 2:
        return ConstantResult(2.0, "closed_form")
    # integrate |cos| sin^{d-3} over the polar angle, times the area of the
    # sub-sphere S^{d-3} (the two points of S^0 for d = 3)
    (val,), err = _polar_integrals(
        lambda p: abs(np.cos(p)) * np.sin(p) ** (d - 3))
    sub = sphere_area(d - 3)
    return ConstantResult(val * sub, "quadrature", error_estimate=err * sub)


def ca_const(N, d, restarts=64, seed=0, quad_n=96, max_iter=1000):
    """Constant 1 + (2/H^{d-1}(S^{d-1})) sup |V^t omega| integrals over S^{d-2}.

    The supremum runs over (d-1) x N matrices V of unit Frobenius norm.  For
    d = 2 the integrand is identically |V|_F so the supremum is 2 exactly;
    for N = 1 it reduces by rotational invariance to :func:`m_const`.  The
    general case uses multi-start ascent V <- normalize(grad g(V)), which is
    monotone for this convex positively homogeneous objective, with the inner
    integral evaluated on a product Gauss grid.  The reported error estimate
    combines the final stationarity gap with the spread of the restart optima,
    so a non-converged ascent is visible.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    lam = sphere_area(d - 1)
    if d == 2:
        return ConstantResult(1.0 + 4.0 / lam, "closed_form",
                              params={"sup": 2.0})
    if N == 1:
        # rank-one V: the integral is rotation invariant and equals m_const
        m = m_const(d)
        return ConstantResult(1.0 + 2.0 * m.value / lam, "quadrature",
                              error_estimate=2.0 * m.error_estimate / lam,
                              params={"sup": m.value})
    pts, w = sphere_quad(d - 2, quad_n)
    rng = np.random.default_rng(seed)
    best = -np.inf
    best_gap = np.inf
    values = []
    for _ in range(restarts):
        V = rng.standard_normal((d - 1, N))
        V /= np.linalg.norm(V)
        prev = -np.inf
        for _ in range(max_iter):
            P = pts @ V
            norms = np.sqrt(np.einsum("qk,qk->q", P, P))
            g = float(w @ norms)
            grad = (pts * (w / np.maximum(norms, 1e-300))[:, None]).T @ P
            gnorm = np.linalg.norm(grad)
            V = grad / gnorm
            if g - prev < 1e-15 * max(1.0, abs(g)):
                break
            prev = g
        values.append(g)
        if g > best:
            best = g
            best_gap = gnorm - g  # >= 0, zero exactly at a fixed point
    values = sorted(values, reverse=True)
    spread = values[0] - values[min(len(values) - 1, max(1, restarts // 4))]
    err = 2.0 * (abs(best_gap) + spread) / lam
    return ConstantResult(1.0 + 2.0 * best / lam, "optimization",
                          error_estimate=err,
                          samples_or_nodes=len(w),
                          params={"sup": best, "restarts": restarts})


def cj_estimate(embedding="tensor", grid_points=100_000):
    """Jump constant (2/pi) sup over angles of the averaged-jump/embedded-jump ratio.

    For the tensor embedding, the only one supported, the embedded jump cost
    is sin(theta), the ratio is bounded by 1 + pi/2 on all of [0, pi]
    (checked on a dense grid) and attains it in the limit theta -> 0, so the
    constant 1 + 2/pi is returned in closed form.
    """
    if embedding != "tensor":
        raise ValueError(f"only the 'tensor' embedding is supported, got "
                         f"{embedding!r}")
    if grid_points < 100:
        raise ValueError("grid_points must be >= 100")
    thetas = np.linspace(0.0, np.pi, grid_points)[1:-1]
    bound = 1.0 + np.pi / 2.0
    # numerator <= (1 + pi/2) sin(theta) on the whole grid, with the
    # bound attained in the limit theta -> 0: the sup of the ratio is bound
    excess = float(np.max(_jump_numerator(thetas) - bound * np.sin(thetas)))
    if excess > 1e-12:
        raise AssertionError(
            "grid point violates the (1 + pi/2) sin(theta) bound")
    ratio = _jump_numerator(thetas) / np.sin(thetas)
    return ConstantResult(1.0 + 2.0 / np.pi, "closed_form",
                          samples_or_nodes=grid_points,
                          params={"sup_ratio_on_grid": float(np.max(ratio)),
                                  "max_bound_excess": excess})


def c1d_const():
    """One-dimensional optimal constant sup 2 sin(theta/2)/sin(theta) on (0, pi/2].

    The ratio simplifies to 1/cos(theta/2), increasing, so the supremum is
    attained at theta = pi/2 where it equals sqrt(2); a grid scan plus the
    endpoint confirms this numerically.
    """
    thetas = np.linspace(1e-9, np.pi / 2.0, 20001)
    vals = 2.0 * np.sin(thetas / 2.0) / np.sin(thetas)
    val = float(max(np.max(vals), 2.0 * np.sin(np.pi / 4.0)))
    return ConstantResult(val, "quadrature", samples_or_nodes=len(thetas),
                          params={"argmax": np.pi / 2.0})
