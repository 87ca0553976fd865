"""Constructive lifting algorithms for line fields on grids.

A lifting of a projective-valued field u assigns a sign to each cell's
representative so the resulting sphere-valued field n satisfies [n] = u
exactly.  Three constructions are provided: a rotation-averaging search that
makes the existential bound algorithmic (:func:`lift_rotation_search`), the
greedy one-dimensional lifting that never creates extra jumps
(:func:`lift_1d`; :func:`lift_greedy_1d` on fields), and a boundary-prescribed
lifting through a thresholded harmonic extension (:func:`lift_with_boundary`).
Each returns a :class:`LiftResult`: the lifting as a ``"unit"`` field, its
energy, and the measured distance of its projection to u.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import cg

from .fields import (EnergyReport, GridField, _face_energies,
                     avg_directional_energy, embedded_tv)
from .geometry import canonicalize, dist_proj, haar_rotations, lift_sign

__all__ = [
    "LiftResult",
    "BoundaryMismatchError",
    "lift_rotation_search",
    "lift_1d",
    "lift_greedy_1d",
    "lift_with_boundary",
    "boundary_cells",
    "solve_laplace",
]


_LAPLACE_TOL = 1e-10  # maximal residual of the harmonic extension


class BoundaryMismatchError(ValueError):
    """Boundary data that is not a lifting of the field."""


@dataclass
class LiftResult:
    field: GridField          # unit-valued lifting
    energy: EnergyReport
    rotation: np.ndarray = None   # set by the rotation search
    projection_check: float = 0.0  # max over cells of dist_proj([n], u)


def _projection_check(n_field, u_field):
    inside = u_field.inside()
    return float(dist_proj(n_field.values, u_field.values)[inside].max())


def lift_rotation_search(u, trials=64, seed=0, metric="geodesic"):
    """Best-of-``trials`` Haar-sampled rotation liftings of a line field.

    Each rotation R induces the cellwise lifting s u with s = sgn((R u).e_d).
    Candidates are ranked by the finite-difference energy
    (:func:`embedded_tv`) of the lifted field in the requested metric, one
    at a time, from a stream of their signs in one metric of the face
    kernel: u's projective face chords, the larger ones and their
    distances are computed once, and each candidate copies the projective
    ones and overwrites the faces its sign products s_i s_j flip.  The
    first minimizer is built as a field and returned.  The expected energy
    of a random candidate already satisfies the averaging bound, so the
    sample minimum does with margin.
    """
    if u.kind != "proj":
        raise ValueError("rotation search expects a proj field")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rots = haar_rotations(u.d, trials, seed)
    # both Euclidean requests rank by the sphere chord energy: the tensor
    # energy of a lifting is that of its projection, the same for all
    rank = "geodesic" if metric == "geodesic" else "euclidean_sphere"
    reports = _face_energies(u, rank, (lift_sign(R, u.values) for R in rots))
    rep, R = min(zip(reports, rots), key=lambda c: c[0].total)
    n = u.with_values(u.values * lift_sign(R, u.values)[..., None], kind="unit")
    return LiftResult(field=n, energy=rep, rotation=R,
                      projection_check=_projection_check(n, u))


def lift_1d(seq):
    """Greedy lifting of a sequence of projective points.

    The first value is the canonical representative; each next value takes
    the sign closest to its predecessor, so every sphere step equals the
    projective step (<= pi/2) and the sphere TV equals the projective TV
    exactly.  Ties at exactly pi/2 keep the canonical representative.

    Accepts shape ``(L, d)`` or a batch ``(B, L, d)``; returns the same shape.
    """
    seq = np.asarray(seq, dtype=float)
    if seq.ndim < 2 or seq.shape[-2] < 1:
        raise ValueError("need a nonempty sequence of points")
    reps = canonicalize(seq)
    batched = reps.ndim == 3
    r = reps if batched else reps[None]
    signs = np.ones(r.shape[:-1])
    for k in range(1, r.shape[1]):
        # c = n_{k-1} . rep_k; the closer sign is sgn(c), canonical on ties
        c = np.einsum("bk,bk->b", r[:, k - 1], r[:, k]) * signs[:, k - 1]
        signs[:, k] = np.where(c < 0, -1.0, 1.0)
    out = r * signs[..., None]
    return out if batched else out[0]


def lift_greedy_1d(u):
    """Greedy lifting (:func:`lift_1d`) of a line field on an interval.  Its
    energy is the geodesic TV, equal to that of u (``params["projective_tv"]``);
    both are exact direction averages that skip the masked cells."""
    if u.kind != "proj":
        raise ValueError("greedy1d lifting expects a proj field")
    if u.N != 1:
        raise ValueError("greedy1d requires a one-dimensional field")
    n = u.with_values(lift_1d(u.values), kind="unit")
    rep = avg_directional_energy(n, metric="geodesic")
    rep.params["projective_tv"] = avg_directional_energy(
        u, metric="geodesic").total
    return LiftResult(field=n, energy=rep,
                      projection_check=_projection_check(n, u))


def boundary_cells(mask):
    """Cells inside the mask adjacent to the outside or to the grid edge."""
    mask = np.asarray(mask, dtype=bool)
    padded = np.pad(mask, 1, constant_values=False)
    interior = padded.copy()
    for a in range(mask.ndim):
        for shift in (1, -1):
            interior &= np.roll(padded, shift, axis=a)
    inner = interior[(slice(1, -1),) * mask.ndim]
    return mask & ~inner


def solve_laplace(boundary_values, boundary, interior):
    """Five-point Laplace equation on a masked 2D grid.

    Boundary cells hold ``boundary_values``, other non-interior cells 0, and
    interior cells solve mean(four neighbors) = phi by conjugate gradients on
    the grid Laplacian restricted to them (symmetric positive definite).
    Raises unless the maximal residual |mean(neighbors) - phi| is below 1e-10.
    """
    phi = np.where(boundary, boundary_values, 0.0).astype(float)
    inner = interior.ravel()
    if not inner.any():
        return phi
    # neighbor sums of the five-point stencil, rows of the interior cells
    eye = [sparse.identity(n) for n in phi.shape]
    path = [sparse.diags([1.0, 1.0], [-1, 1], shape=(n, n)) for n in phi.shape]
    adj = (sparse.kron(path[0], eye[1])
           + sparse.kron(eye[0], path[1])).tocsr()[inner]
    A = 4.0 * sparse.identity(adj.shape[0]) - adj[:, inner]
    b = adj @ phi.ravel()
    x, _ = cg(A, b, rtol=0.0, atol=_LAPLACE_TOL)
    res = np.abs(A @ x - b).max() / 4.0
    if not res < _LAPLACE_TOL:
        raise RuntimeError(
            f"Laplace solve stopped at residual {res}, above {_LAPLACE_TOL}")
    phi[interior] = x
    return phi


def lift_with_boundary(u, n0, trials=64, seed=0):
    """Lifting of a 2D line field matching a prescribed boundary orientation.

    Steps: (i) find any lifting by rotation search; (ii) form the boundary
    sign f, the dot product of that lifting with the prescribed trace;
    (iii) extend f harmonically into the interior; (iv) threshold the
    extension at 0 to a sign field; (v) flip the lifting by it.  The output
    carries ``n0`` verbatim on every boundary cell and projects to u
    everywhere; ``n0`` must be a unit field on u's grid.
    """
    if u.kind != "proj":
        raise ValueError("expects a proj field")
    if u.N != 2:
        raise ValueError("boundary lifting is implemented for N = 2 grids")
    for key, want in [("kind", "unit"), ("dims", u.dims), ("d", u.d),
                      ("spacing", u.spacing), ("origin", u.origin)]:
        if getattr(n0, key) != want:
            raise ValueError(f"boundary data {key} must be {want!r}, "
                             f"got {getattr(n0, key)!r}")
    inside = u.inside()
    bnd = boundary_cells(inside)  # not empty: u has a cell inside
    # the prescribed trace must be a lifting of u on the boundary
    rep_diff = np.linalg.norm(canonicalize(n0.values) - u.values, axis=-1)
    bad = bnd & (rep_diff > 1e-10)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise BoundaryMismatchError(
            f"boundary data is not a lifting of the field at cell {idx}")

    base = lift_rotation_search(u, trials=trials, seed=seed, metric="geodesic")
    ntilde = base.field.values
    f = np.zeros(u.dims)
    dots = np.einsum("...k,...k->...", ntilde, n0.values)
    f[bnd] = np.where(dots[bnd] >= 0, 1.0, -1.0)

    interior = inside & ~bnd
    phi = solve_laplace(f, bnd, interior)
    fbar = np.where(phi > 0.0, 1.0, -1.0)
    fbar[bnd] = f[bnd]

    n_vals = ntilde * fbar[..., None]
    n_vals[bnd] = n0.values[bnd]
    n = u.with_values(n_vals, kind="unit")
    return LiftResult(field=n,
                      energy=embedded_tv(n, "euclidean_sphere"),
                      rotation=None,
                      projection_check=_projection_check(n, u))
