"""Constructive lifting algorithms for line fields on grids.

A lifting of a projective-valued field u assigns a sign to each cell's
representative so the resulting sphere-valued field n satisfies [n] = u
exactly.  Three constructions are provided: a rotation-averaging search that
makes the existential bound algorithmic (:func:`lift_rotation_search`), the
greedy one-dimensional lifting that never creates extra jumps
(:func:`lift_1d`; :func:`lift_greedy_1d` on fields), and a boundary-prescribed
lifting through a thresholded harmonic extension (:func:`lift_with_boundary`).
Each returns a :class:`LiftResult`: the lifting as a ``"unit"`` field, its
energy, and the measured distance of its projection to u.  scipy
(``scipy.sparse`` and its ``splu``) is imported on first use, by the
Laplace solve of :func:`lift_with_boundary`.
"""

from dataclasses import dataclass

import numpy as np

from .fields import (EnergyReport, GridField, _half_offsets, _lattice_sums,
                     avg_directional_energy, embedded_tv)
from .geometry import (_upper, canonicalize, dist_proj, lift_sign,
                       random_unit_vectors)

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
_COARSEST = 300  # unknowns of a multigrid level factored directly
_RANK_GROUP = 64  # candidate directions ranked per pair-kernel call


class BoundaryMismatchError(ValueError):
    """Boundary data that is not a lifting of the field."""


@dataclass
class LiftResult:
    field: GridField          # unit-valued lifting
    energy: EnergyReport
    direction: np.ndarray = None  # r of shape (d,), set by the rotation search
    projection_check: float = 0.0  # max over cells of dist_proj([n], u)


def _projection_check(n_field, u_field):
    inside = u_field.inside()
    return float(dist_proj(n_field.values, u_field.values)[inside].max())


def _best_direction(u, trials, seed, rank):
    """The first of ``trials`` random directions (``random_unit_vectors(u.d,
    trials, seed)``) whose lifting has the least face sum in ``rank``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dirs = random_unit_vectors(u.d, trials, seed)
    faces = _half_offsets(u.N, 1)
    planes = [np.ascontiguousarray(u.values[..., k]) for k in range(u.d)]
    totals = []
    # at most one group of signs, and no planes of ours in the last kernel
    # call (it makes its own), are held at a time
    for i in range(0, trials, _RANK_GROUP):
        signs = _upper(dirs[i:i + _RANK_GROUP], planes)
        if i + _RANK_GROUP >= trials:
            del planes
        # per face offset a row of one sum per candidate
        totals.append(_lattice_sums(u, [(rank, s) for s in signs],
                                    faces).sum(axis=0))
        del signs
    return dirs[np.argmin(np.concatenate(totals))]


def lift_rotation_search(u, trials=64, seed=0, metric="geodesic"):
    """Best-of-``trials`` liftings of a line field along random directions.

    Each direction r uniform on S^{d-1}, the last row of a Haar rotation R,
    induces the cellwise lifting s u = R^{-1} F(R u) with s = sgn(u.r).
    Candidates are ranked by their face sums, the pair distances of s u
    over the forward faces (the unit offsets) in the requested metric,
    which the averaging bound controls.  The pair kernel
    (:func:`_lattice_sums`) takes ``_RANK_GROUP`` candidates per call, so
    memory does not grow with ``trials``, and their signs are one boolean
    :func:`_upper` of the group's stacked directions, on contiguous
    component planes of u made once per search and released before the
    last kernel call.  The first minimizer is built as a field by
    :func:`lift_sign` and reported by :func:`embedded_tv`.  The expected
    face sum of a random candidate already satisfies the bound, so the
    sample minimum does with margin.
    """
    if u.kind != "proj":
        raise ValueError("rotation search expects a proj field")
    # both Euclidean requests rank by the sphere chord energy: the tensor
    # energy of a lifting is that of its projection, the same for all
    rank = "geodesic" if metric == "geodesic" else "euclidean_sphere"
    r = _best_direction(u, trials, seed, rank)
    n = u.with_values(u.values * lift_sign(r, u.values)[..., None], kind="unit")
    return LiftResult(field=n, energy=embedded_tv(n, rank), direction=r,
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

    CG is preconditioned by one symmetric V-cycle of smoothed-aggregation
    multigrid (Vaněk, Mandel & Brezina 1996).  A level's unknowns are
    aggregated by 3 x 3 blocks of their cells (of the fine grid, then of
    the block grid); the prolongation is the aggregates' indicator smoothed
    by one Jacobi step of weight 4/(3 rho), rho the Gershgorin bound of
    D^-1 A, with its vanishing columns (empty blocks) dropped, and the
    coarse operator is P^T A P.  Coarsening stops at 300 unknowns or when
    a level would not halve, and that level is factored by ``splu``; so a
    nearly decoupled interior (a random mask) is solved directly.  The
    cycle smooths by one damped Jacobi sweep before and after each coarse
    correction.  Disks take about 30 iterations at any grid.
    """
    from scipy import sparse
    from scipy.sparse.linalg import LinearOperator, cg, splu
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
    del adj  # not held through the multigrid setup

    # (A, P, w) per level above the coarsest, w the Jacobi weights / diag
    levels = []
    op, pos = A, np.nonzero(interior)
    while op.shape[0] > _COARSEST:
        # 4/(3 rho) / diag, rho the Gershgorin bound of D^-1 A (every row
        # holds its positive diagonal)
        diag = op.diagonal()
        rows = np.add.reduceat(np.abs(op.data), op.indptr[:-1])
        w = 4.0 / (3.0 * (rows / diag).max()) / diag
        width = int(pos[1].max()) // 3 + 1
        agg = pos[0] // 3 * width + pos[1] // 3
        T = sparse.csr_matrix((np.ones(op.shape[0]),
                               (np.arange(op.shape[0]), agg)))
        # P = T - diag(w) A T, the rows of A T scaled in place
        P = op @ T
        P.data *= np.repeat(-w, np.diff(P.indptr))
        P = P + T
        P.eliminate_zeros()
        keep = np.flatnonzero(np.bincount(P.indices, minlength=P.shape[1]))
        if 2 * keep.size > op.shape[0]:
            break
        P = P[:, keep]
        levels.append((op, P, w))
        op, pos = (P.T @ op @ P).tocsr(), np.divmod(keep, width)
    coarsest = splu(op.tocsc())

    def v_cycle(r):
        down = []  # (residual, pre-smoothed correction) per level
        for op, P, w in levels:
            x = w * r
            down.append((r, x))
            r = P.T @ (r - op @ x)
        x = coarsest.solve(r)
        for (op, P, w), (r, pre) in zip(levels[::-1], down[::-1]):
            x = pre + P @ x
            x += w * (r - op @ x)
        return x

    M = LinearOperator(A.shape, matvec=v_cycle)
    x, _ = cg(A, b, rtol=0.0, atol=_LAPLACE_TOL, M=M)
    res = np.abs(A @ x - b).max() / 4.0
    if not res < _LAPLACE_TOL:
        raise RuntimeError(
            f"Laplace solve stopped at residual {res}, above {_LAPLACE_TOL}")
    phi[interior] = x
    return phi


def lift_with_boundary(u, n0, trials=64, seed=0):
    """Lifting of a 2D line field matching a prescribed boundary orientation.

    Steps: (i) find any lifting, the rotation search's best candidate,
    unmeasured (``trials`` and ``seed`` as there); (ii) form the boundary
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
    # the prescribed trace must be a lifting of u on the boundary cells,
    # taken in C order
    trace = n0.values[bnd]
    bad = np.linalg.norm(canonicalize(trace) - u.values[bnd], axis=-1) > 1e-10
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bnd)[np.argmax(bad)])
        raise BoundaryMismatchError(
            f"boundary data is not a lifting of the field at cell {idx}")

    r = _best_direction(u, trials, seed, "geodesic")
    ntilde = u.values * lift_sign(r, u.values)[..., None]
    f = np.zeros(u.dims)
    dots = np.einsum("...k,...k->...", ntilde[bnd], trace)
    f[bnd] = np.where(dots >= 0, 1.0, -1.0)

    interior = inside & ~bnd
    phi = solve_laplace(f, bnd, interior)
    fbar = np.where(phi > 0.0, 1.0, -1.0)  # f on the boundary, where phi = f

    n_vals = ntilde * fbar[..., None]
    n_vals[bnd] = trace
    n = u.with_values(n_vals, kind="unit")
    return LiftResult(field=n,
                      energy=embedded_tv(n, "euclidean_sphere"),
                      projection_check=_projection_check(n, u))
