"""Pointwise geometry of the sphere, the projective space and their lifting maps.

Conventions used throughout the package:

* a *unit vector* is a float array of shape ``(..., d)`` with Euclidean norm 1
  (within 1e-12), a point of the sphere S^{d-1};
* a *projective point* (line direction) is stored as a canonical unit
  representative of the class {+-n}, see :func:`canonicalize`;
* a *direction* r is a unit vector of shape ``(d,)``, standing for the
  rotations R with R^T e_d = r (see :func:`lift_sign`).

All functions are pure and vectorized over leading axes.
"""

import numpy as np

_SIGN_BLOCK = 32768  # cells per block of a stack of signs (see _upper)

__all__ = [
    "canonicalize",
    "chord",
    "chord_distance",
    "dist_sphere",
    "dist_proj",
    "embed_tensor",
    "uniaxial_q",
    "eucl_jump_cost",
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


def _squared_chords(a, b, plus=False, out=None):
    """Squared chords |a - b|^2 and, with ``plus``, |a + b|^2 of vector arrays.

    ``a`` and ``b`` are sequences of the d component planes of the vectors
    (arrays of any strides that broadcast together).  Each chord's squared
    components are added in index order, 0, 1, ..., d - 1, in place, into
    the arrays ``(minus, plus, scratch)`` of ``out`` if given (``plus`` may
    be None without ``plus``).  Returns ``(minus, plus)``, with ``plus``
    None unless requested.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(a[0]), np.shape(b[0]))
        out = (np.empty(shape), np.empty(shape) if plus else None,
               np.empty(shape))
    minus, plus_out, tmp = out
    for op, c2 in [(np.subtract, minus), (np.add, plus_out)][:2 if plus else 1]:
        np.square(op(a[0], b[0], out=c2), out=c2)
        for k in range(1, len(a)):
            c2 += np.square(op(a[k], b[k], out=tmp), out=tmp)
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


def _upper(r, u):
    """Where the rotated lifting along the direction r keeps u: u.r > 0,
    and on the equator u.r == 0 where u is its canonical representative.

    ``u`` is a sequence of the d component planes of the vectors (arrays
    of any strides and one shape), and ``r`` a direction of d floats or a
    stack of them, of shape ``(..., d)``.  Per element u.r adds its terms
    in index order, 0, 1, ..., d - 1.  A stack is filled one block of
    ``_SIGN_BLOCK`` cells at a time, so the block stays in cache while
    every direction reads it.  Returns a boolean array of shape
    ``r.shape[:-1]`` plus the planes' shape.  The one sign rule of
    :func:`lift_sign` and the rotation search.
    """
    r = np.asarray(r, dtype=float)
    rows = r.reshape(-1, r.shape[-1]).tolist()
    flat = [np.ravel(p) for p in u]
    n = flat[0].size
    up = np.empty((len(rows), n), bool)
    w = np.empty(min(n, _SIGN_BLOCK))
    tmp, eq = np.empty_like(w), np.empty(w.shape, bool)
    for s in range(0, n, _SIGN_BLOCK):
        cells = slice(s, min(s + _SIGN_BLOCK, n))
        block = [p[cells] for p in flat]
        b = cells.stop - s
        wb, tb, eb = w[:b], tmp[:b], eq[:b]
        for row, ub in zip(rows, up[:, cells]):
            np.multiply(block[0], row[0], out=wb)
            for k in range(1, len(block)):
                wb += np.multiply(block[k], row[k], out=tb)
            np.greater(wb, 0.0, out=ub)
            if np.equal(wb, 0.0, out=eb).any():  # the canonical tie-break,
                ub[eb] = _lead_sign(  # on the tied cells only
                    np.stack([p[eb] for p in block], axis=-1)) > 0
    return up.reshape(r.shape[:-1] + np.shape(u[0]))


def lift_sign(r, u):
    """Sign s in {-1, +1} of the rotated lifting R^{-1} F(R u) = s u, for F
    the fold onto the upper hemisphere and any rotation R with R^T e_d = r.

    s is +1 where u.r > 0, -1 where it is < 0, and on the equator the one
    that yields the canonical representative; s u reproduces the class of u
    bit for bit.  The float form of :func:`_upper`, which adds the d terms
    of u.r in index order.  r must have shape ``(d,)``: a ``(d, d)``
    rotation raises ValueError.
    """
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    if r.shape != u.shape[-1:]:
        raise ValueError(f"direction shape {r.shape}, vectors {u.shape}")
    return np.where(_upper(r, [u[..., k] for k in range(r.size)]), 1.0, -1.0)


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


def _norms(v):
    """Euclidean norms over the last axis of a float array, its squares
    added in index order, 0, 1, ..., d - 1, in place.  Equal to
    ``np.linalg.norm(v, axis=-1)`` bit for bit for d <= 7 (numpy sums
    eight or more terms in another order)."""
    n = np.square(v[..., 0], out=np.empty(v.shape[:-1]))
    tmp = np.empty_like(n)
    for k in range(1, v.shape[-1]):
        n += np.square(v[..., k], out=tmp)
    return np.sqrt(n, out=n)


def random_unit_vectors(d, size, rng):
    """Uniformly distributed points of S^{d-1}, shape ``(size, d)``."""
    rng = np.random.default_rng(rng)
    v = rng.standard_normal((size, d))
    return v / _norms(v)[:, None]
