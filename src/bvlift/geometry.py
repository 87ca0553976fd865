"""Pointwise geometry of the sphere, the projective space and their lifting maps.

Conventions used throughout the package:

* a *unit vector* is a float array of shape ``(..., d)`` with Euclidean norm 1
  (within 1e-12), a point of the sphere S^{d-1};
* a *projective point* (line direction) is stored as a canonical unit
  representative of the class {+-n}, see :func:`canonicalize`;
* a *rotation* is a ``(d, d)`` orthogonal matrix with determinant +1.

All functions are pure and vectorized over leading axes.
"""

import numpy as np

__all__ = [
    "canonicalize",
    "chord",
    "chord_distance",
    "dist_sphere",
    "dist_proj",
    "embed_tensor",
    "uniaxial_q",
    "eucl_jump_cost",
    "lift_map_F",
    "lift_sign",
    "haar_rotations",
    "random_unit_vectors",
]


def canonicalize(v):
    """Canonical representative of the projective class {+-v}.

    The representative is chosen so that the coordinate of largest absolute
    value (lowest index on ties) is nonnegative.  This is numerically stable
    everywhere on the sphere, unlike a first-nonzero-coordinate rule, and it
    is exactly sign-invariant: canonicalize(v) == canonicalize(-v) bit for
    bit, and idempotent.
    """
    v = np.asarray(v, dtype=float)
    return v * _lead_sign(v)[..., None]


def _lead_sign(v):
    """The sign in {-1, +1} that makes the coordinate of largest absolute
    value (lowest index on ties) of ``v`` nonnegative."""
    idx = np.argmax(np.abs(v), axis=-1)
    lead = np.take_along_axis(v, idx[..., None], axis=-1)[..., 0]
    return np.where(lead < 0, -1.0, 1.0)


def _check_same_dim(n, m):
    if n.shape[-1] != m.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {n.shape[-1]} vs {m.shape[-1]}")


def _lane_sum(term, n, out, tmp):
    """``out`` = the sum over k < n of ``term(k, buf)``, which writes term k
    into the array ``buf`` and returns it; ``tmp`` is scratch.

    The even and the odd terms are summed in two lanes that are added last,
    the order of numpy's ``einsum`` over a last axis of length 1 to 7.
    """
    term(0, out)
    for k in range(2, n, 2):
        out += term(k, tmp)
    if n > 1:
        odd = term(1, tmp)
        for k in range(3, n, 2):
            odd = odd.copy() if odd is tmp else odd
            odd += term(k, tmp)
        out += odd
    return out


def _squared_chords(a, b, plus=False, out=None):
    """Squared chords |a - b|^2 and, with ``plus``, |a + b|^2 of vector arrays.

    ``a`` and ``b`` are sequences of the d component planes of the vectors
    (arrays of any strides that broadcast together).  Both squares are
    subtracted or added, squared and accumulated in place, into the arrays
    ``(minus, plus, scratch)`` of ``out`` if given (``plus`` may be None
    without ``plus``).  Returns ``(minus, plus)``, with ``plus`` None unless
    requested.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(a[0]), np.shape(b[0]))
        out = (np.empty(shape), np.empty(shape) if plus else None,
               np.empty(shape))
    minus, plus_out, tmp = out
    for op, c2 in [(np.subtract, minus), (np.add, plus_out)][:2 if plus else 1]:
        _lane_sum(lambda k, buf: np.square(op(a[k], b[k], out=buf), out=buf),
                  len(a), c2, tmp)
    return minus, plus_out if plus else None


def chord(a, b, proj=False):
    """Chord |a - b| of two unit vectors, or min(|a - b|, |a + b|) for lines.

    Every distance of the package is a closed form of this chord (see
    :func:`chord_distance`), squared by :func:`_squared_chords`.
    Bit-identical representatives are at chord exactly 0, and with ``proj``
    a sign flip of either representative leaves the result bit for bit
    unchanged.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_same_dim(a, b)
    d = a.shape[-1]
    minus, plus = _squared_chords([a[..., k] for k in range(d)],
                                 [b[..., k] for k in range(d)], proj)
    return np.sqrt(np.minimum(minus, plus) if proj else minus)


def chord_distance(q, metric, out=None):
    """Distance of a pair of unit vectors at chord ``q`` in one of the metrics.

    * ``"geodesic"``: the angle 2 arcsin(q/2);
    * ``"euclidean_sphere"``: the chord q itself;
    * ``"euclidean_tensor"``: sin(theta) = q sqrt(1 - q^2/4), the Frobenius
      distance of the tensor embeddings when q is the projective chord.

    Unlike arccos of a dot product these stay well conditioned for nearly
    parallel pairs and give exactly 0 at q = 0.  ``out``, an array of the
    shape of ``q`` other than ``q`` itself, receives the distance, except
    in ``"euclidean_sphere"``, which returns ``q``.
    """
    if metric == "geodesic":
        r = np.minimum(np.multiply(q, 0.5, out=out), 1.0, out=out)
        return np.multiply(np.arcsin(r, out=out), 2.0, out=out)
    if metric == "euclidean_tensor":
        r = np.multiply(np.multiply(q, 0.25, out=out), q, out=out)
        r = np.maximum(0.0, np.subtract(1.0, r, out=out), out=out)
        return np.multiply(q, np.sqrt(r, out=out), out=out)
    if metric == "euclidean_sphere":
        return q
    raise ValueError(f"unknown metric {metric!r}")


def dist_sphere(n, m):
    """Geodesic distance on S^{d-1}: the angle 2 arcsin(|n - m| / 2) in [0, pi]."""
    return chord_distance(chord(n, m), "geodesic")


def dist_proj(u, v):
    """Geodesic distance on the projective space: min(theta, pi - theta).

    The angle 2 arcsin(q / 2) of the smaller chord q = min(|u - v|, |u + v|);
    invariant under sign flips of either representative; values in
    [0, pi/2].
    """
    return chord_distance(chord(u, v, proj=True), "geodesic")


def embed_tensor(u):
    """Tensor embedding of a projective point: (1/sqrt 2) n (x) n.

    Sign independent; the image has Frobenius norm 1/sqrt(2).  Returns an
    array of shape ``(..., d, d)``.
    """
    u = np.asarray(u, dtype=float)
    return u[..., :, None] * u[..., None, :] / np.sqrt(2.0)


def uniaxial_q(u, s_star):
    """Uniaxial Q-tensor with order parameter ``s_star``: s (n (x) n - I/d).

    Symmetric and traceless; sign independent in the representative.
    """
    u = np.asarray(u, dtype=float)
    d = u.shape[-1]
    return s_star * (u[..., :, None] * u[..., None, :] - np.eye(d) / d)


def eucl_jump_cost(u, v):
    """Euclidean jump cost of two projective points: sin(theta).

    Equals the Frobenius distance of the tensor embeddings,
    ``|embed_tensor(u) - embed_tensor(v)|_F``, by the identity
    (1/sqrt2)|n(x)n - m(x)m| = sin(arccos|n.m|).
    """
    return chord_distance(chord(u, v, proj=True), "euclidean_tensor")


def lift_map_F(n):
    """Symmetric folding map onto the upper hemisphere: n if n.e_d > 0, else -n.

    On the equator (n.e_d == 0, measure zero) the canonical representative is
    returned, which keeps F(n) == F(-n) exact everywhere.  This is the
    rotated lifting of :func:`lift_sign` at the identity rotation.
    """
    n = np.asarray(n, dtype=float)
    return n * lift_sign(np.eye(n.shape[-1]), n)[..., None]


def lift_sign(R, u):
    """Sign s in {-1, +1} of the rotated lifting R^{-1} F(R u) = s u.

    F(Ru) is an exact sign flip of Ru, so the rotated lifting of a
    projective point u is ``s[..., None] * u``, which reproduces the input
    class bit for bit.  The sign is +1 where (R u).e_d > 0, -1 where it is
    < 0, and on the equator the one that yields the canonical representative.
    (R u).e_d is summed over the d components by :func:`_lane_sum`, in the
    order of numpy's ``einsum``, which is slow over a last axis this short.
    """
    R = np.asarray(R, dtype=float)
    u = np.asarray(u, dtype=float)
    w_last = _lane_sum(lambda k, buf: np.multiply(u[..., k], R[-1, k], out=buf),
                       u.shape[-1], np.empty(u.shape[:-1]),
                       np.empty(u.shape[:-1]))
    s = np.where(w_last > 0, 1.0, -1.0)
    eq = w_last == 0
    if np.any(eq):
        s = np.where(eq, _lead_sign(u), s)  # the canonical tie-break
    return s


def haar_rotations(d, size, rng):
    """Batch of Haar-distributed SO(d) matrices, shape ``(size, d, d)``.

    Columns of a standard normal matrix are orthonormalized by (twice-applied)
    modified Gram-Schmidt with positive normalization factors, which gives the
    Haar measure on O(d); the last column's sign is flipped where the
    determinant is -1, mapping the reflection coset onto SO(d) measure
    preservingly.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    rng = np.random.default_rng(rng)
    A = rng.standard_normal((size, d, d))
    Q = np.empty_like(A)
    for j in range(d):
        v = A[:, :, j].copy()
        for _ in range(2):  # second pass keeps orthogonality ~1e-15
            for k in range(j):
                proj = np.einsum("ij,ij->i", Q[:, :, k], v)
                v -= proj[:, None] * Q[:, :, k]
        Q[:, :, j] = v / np.linalg.norm(v, axis=1)[:, None]
    det = np.linalg.det(Q)
    Q[det < 0, :, -1] *= -1.0
    return Q


def random_unit_vectors(d, size, rng):
    """Uniformly distributed points of S^{d-1}, shape ``(size, d)``."""
    rng = np.random.default_rng(rng)
    v = rng.standard_normal((size, d))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)
