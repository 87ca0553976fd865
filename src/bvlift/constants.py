"""The optimality constants in closed form, and the averaging identities.

Every value is returned as a :class:`ConstantResult` carrying the method
used and an error estimate.  The constants are closed forms (error 0); Monte
Carlo estimates of the averaged quantities always report the sample standard
error, and acceptance thresholds elsewhere in the package are phrased in
multiples of it.  Closed forms of the averaged quantities are provided next
to the Monte Carlo estimators so the two routes can be compared
independently.  Gamma at integers and half-integers is a factorial form,
so the module needs numpy only, and no function of it imports scipy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import chord

__all__ = [
    "ConstantResult",
    "sphere_area",
    "ball_volume",
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

_MC_CHUNK = 65_536  # Gaussian points held in memory at once


@dataclass
class ConstantResult:
    value: float
    method: str  # closed_form | monte_carlo
    error_estimate: float = 0.0
    samples_or_nodes: int = 0


def _gamma_half(m):
    """Gamma(m/2) for an integer m >= 1 in exact form: (n - 1)! at m = 2n,
    sqrt(pi) (2n)! / (4^n n!) at m = 2n + 1; inf past the float range."""
    if m < 1 or m != int(m):
        raise ValueError("sphere and ball dimensions are integers >= 0")
    n, odd = divmod(int(m), 2)
    try:
        if odd:
            return math.sqrt(math.pi) * (math.factorial(2 * n)
                                         / (4 ** n * math.factorial(n)))
        return float(math.factorial(n - 1))
    except OverflowError:
        return math.inf


def _pi_power_over_gamma(x, m):
    """pi^x / Gamma(m/2); where Gamma(m/2) overflows (m >= 344), the log
    form exp(x log pi - lgamma(m/2)), which reads 0.0 where the quotient
    underflows."""
    g = _gamma_half(m)
    if g < math.inf:
        return np.pi ** x / g
    return math.exp(x * math.log(math.pi) - math.lgamma(m / 2.0))


def sphere_area(k):
    """Surface measure H^k(S^k); the zero-sphere {+-1} has counting measure 2."""
    return 2.0 * _pi_power_over_gamma((k + 1) / 2.0, k + 1)


def ball_volume(k):
    """Lebesgue volume H^k(B^k) of the unit ball; a point for k = 0."""
    return _pi_power_over_gamma(k / 2.0, k + 2)


def k_const(N):
    """Spherical average K_N of |omega . e| over S^{N-1}.

    K_N = Gamma(N/2) / (sqrt(pi) Gamma((N+1)/2)): K_1 = 1, K_2 = 2/pi and
    K_3 = 1/2.  Past N = 339, where Gamma((N+1)/2) overflows, the gamma
    ratio is a log-gamma difference, good to a relative 3e-13 at N = 400.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N <= 2:
        return ConstantResult((1.0, 2.0 / np.pi)[N - 1], "closed_form")
    if N < 340:
        ratio = math.gamma(N / 2.0) / math.gamma((N + 1) / 2.0)
    else:
        ratio = math.exp(math.lgamma(N / 2.0) - math.lgamma((N + 1) / 2.0))
    return ConstantResult(ratio / math.sqrt(math.pi), "closed_form")


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
    samples), the sample variance written exactly.

    The uniform point is r = g/|g| for a standard Gaussian g in R^d
    (Muller 1959), and sgn(r.n) = sgn(g.n) since |g| > 0, so the signs are
    counted on g itself and g is never normalized.  Chunks of at most
    ``_MC_CHUNK`` points draw in order from one generator seeded by
    ``seed`` (the stream ``geometry.random_unit_vectors`` normalizes), so
    each m gets the counts of a draw of its pair alone.  One product of a
    chunk with n and the ms stacked gives the rows g.n, g.m_1, ...
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    nms = np.array([n, *ms], dtype=float)
    n, *ms = nms
    rng = np.random.default_rng(seed)
    same, split = np.zeros((2, len(ms)), dtype=np.int64)
    for start in range(0, samples, _MC_CHUNK):
        g = rng.standard_normal((min(samples - start, _MC_CHUNK), len(n)))
        a, *bs = nms @ g.T
        up = a > 0
        for j, b in enumerate(bs):
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


def avg_eucl_jump_closed(theta):
    """Closed form: (2/pi)((pi - theta) sin(theta/2) + theta cos(theta/2))."""
    return 2.0 / np.pi * (theta * np.cos(theta / 2.0)
                          + (np.pi - theta) * np.sin(theta / 2.0))


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
    """sup_b of the integral of |b . omega| over S^{d-2}, b a unit vector.

    The integral does not depend on b; |b . omega| is the Jacobian of the
    projection of S^{d-2} onto b^perp, which covers the unit ball B^{d-2}
    twice, so it is 2 H^{d-2}(B^{d-2}) (2 for S^0 = {+-1}).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    return ConstantResult(2.0 * ball_volume(d - 2), "closed_form")


def ca_const(N, d):
    """Constant 1 + (2/H^{d-1}(S^{d-1})) sup |V^t omega| integrals over S^{d-2}.

    The supremum runs over (d-1) x N matrices V of unit Frobenius norm, and
    equals 1 + 2 / (pi K_k sqrt(k)) with k = min(N, d - 1): 1 + 2/pi for
    k = 1, 1 + 1/sqrt(2) for k = 2, 1 + 4/(pi sqrt(3)) for k = 3, 7/4 for
    k = 4.

    Proof.  The integral g(S) of sqrt(omega^t S omega) over S^{d-2} depends
    on V through S = V V^t only, which is positive semidefinite with trace 1
    and rank at most k.  g is concave in S (a square root of a linear form)
    and invariant under S -> Q S Q^t, so it is a concave symmetric function
    of the eigenvalues of S.  On the eigenvalues supported on k given
    coordinates, averaging over their permutations does not lower it, so
    the maximum is at S = P/k, P a rank-k projection.  There, with
    omega = x/|x| for a standard Gaussian x in R^{d-1}, E|P omega| =
    E|Px| / E|x| = K_{d-1} / K_k, and H^{d-1}(S^{d-1}) = pi K_{d-1}
    H^{d-2}(S^{d-2}), which gives the value above.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    k = min(N, d - 1)
    return ConstantResult(
        1.0 + 2.0 / (np.pi * k_const(k).value * math.sqrt(k)),
        "closed_form")


def cj_estimate(embedding="tensor"):
    """Jump constant (2/pi) sup over angles of the averaged-jump/embedded-jump ratio.

    For the tensor embedding, the only one supported, the embedded jump cost
    is sin(theta) and the averaged jump is (2/pi) times
    theta cos(theta/2) + (pi - theta) sin(theta/2), which stays below
    (1 + pi/2) sin(theta) on [0, pi] and reaches it as theta -> 0: the
    constant is 1 + 2/pi.
    """
    if embedding != "tensor":
        raise ValueError(f"only the 'tensor' embedding is supported, got "
                         f"{embedding!r}")
    return ConstantResult(1.0 + 2.0 / np.pi, "closed_form")


def c1d_const():
    """One-dimensional optimal constant sup 2 sin(theta/2)/sin(theta) on (0, pi/2].

    The ratio simplifies to 1/cos(theta/2), increasing, so the supremum is
    attained at theta = pi/2, where it equals sqrt(2).
    """
    return ConstantResult(math.sqrt(2.0), "closed_form")
