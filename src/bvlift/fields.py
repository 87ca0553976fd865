"""Grid fields and the discrete BV-energy estimators.

A :class:`GridField` holds values of one of two kinds on a regular
N-dimensional grid over a box, optionally masked, with at least one cell
inside:

* ``"proj"`` -- line fields; values are canonical unit representatives,
* ``"unit"`` -- sphere-valued fields (liftings).

Three estimators of the BV energy are provided.  The mollified double
integral (:func:`mollified_energy`) and the direction-averaged seminorm
built from one-dimensional restrictions (:func:`directional_tv`,
:func:`avg_directional_energy`) estimate the same continuum quantity, both
from the lattice-offset pair sums of one kernel (:func:`_lattice_sums`).
An anisotropy-corrected finite difference total variation
(:func:`embedded_tv`) estimates the plain embedded seminorm, whose
absolutely continuous part they share, and counts its jump faces.
"""

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .geometry import (_lane_sum, _squared_chords, canonicalize,
                       chord_distance, random_unit_vectors)

__all__ = [
    "GridField",
    "EnergyReport",
    "UnderResolvedError",
    "METRICS",
    "write_field",
    "read_field",
    "mollified_energy",
    "mollified_energy_extrapolated",
    "directional_tv",
    "avg_directional_energy",
    "embedded_tv",
    "default_jump_threshold",
]

METRICS = ("geodesic", "euclidean_sphere", "euclidean_tensor")
_ROWS_PER_WRITE = 4096  # field-file rows formatted at once


@dataclass
class GridField:
    """Regular grid of direction values over a box.

    ``values`` has shape ``dims + (d,)``; cell centers sit at
    ``origin[a] + (i + 1/2) * spacing`` along each axis.  ``mask`` marks the
    cells belonging to the domain (None means all); a field has at least one
    cell inside, so no estimator meets an empty domain.  Fields are treated
    as immutable after construction.
    """

    dims: tuple
    spacing: float
    origin: tuple
    kind: str  # proj | unit
    values: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        self.dims = tuple(int(x) for x in self.dims)
        self.origin = tuple(float(x) for x in self.origin)
        self.values = np.asarray(self.values, dtype=float)
        if not np.isfinite(self.values).all():
            raise ValueError("field values must be finite")
        if not (np.isfinite([*self.origin, self.spacing]).all()
                and self.spacing > 0):
            raise ValueError("spacing must be finite and positive, and origin "
                             f"finite, got {self.spacing} and {self.origin}")
        if self.kind not in ("proj", "unit"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.values.shape[:-1] != self.dims:
            raise ValueError(
                f"values shape {self.values.shape} does not match dims {self.dims}")
        if len(self.origin) != len(self.dims):
            raise ValueError("origin length must match dims")
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.dims:
                raise ValueError("mask shape must match dims")
        if not self.inside().any():  # also a grid without cells
            raise ValueError("empty mask: no cell inside the domain")
        norms = np.linalg.norm(self.values, axis=-1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("unit/proj values must have norm 1")
        if self.kind == "proj":
            self.values = canonicalize(self.values)

    @property
    def N(self):
        return len(self.dims)

    @property
    def d(self):
        return self.values.shape[-1]

    def inside(self):
        """Boolean array of cells belonging to the domain."""
        if self.mask is None:
            return np.ones(self.dims, dtype=bool)
        return self.mask

    def with_values(self, values, kind=None):
        """Copy of the grid geometry carrying new values."""
        return GridField(self.dims, self.spacing, self.origin,
                         kind or self.kind, values, self.mask)


@dataclass
class EnergyReport:
    """Decomposed energy estimate.  ``ac_part``/``jump_part`` are None when
    the estimator returns a total only."""

    total: float
    metric: str
    estimator: str  # mollified | directional_avg | embedded_tv
    ac_part: float = None
    jump_part: float = None
    params: dict = dc_field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


class UnderResolvedError(ValueError):
    """A mollifier radius below two grid cells."""


# ---------------------------------------------------------------------------
# metric dispatch

def _chord_rule(metric, kind, signed=False):
    """Whether ``metric`` compares the pairs of a ``kind`` field f, or with
    ``signed`` of a lifting s f (values s_i f_i, s_i = +-1), by the
    projective chord: line fields always are, and the tensor metric sees
    only the lines of unit values.  Else a pair of s f reads |a - b| or
    |a + b| of f by its sign product s_i s_j; s u of a line field u is
    sphere valued.  Raises ValueError for an unknown metric, and for
    ``euclidean_sphere``, the metric of liftings, on a line field.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if signed and kind == "proj":
        kind = "unit"
    if kind == "proj" and metric == "euclidean_sphere":
        raise ValueError(
            "euclidean_sphere embedding is sign-discontinuous on proj "
            "fields; use euclidean_tensor or geodesic")
    return kind == "proj" or metric == "euclidean_tensor"


def default_jump_threshold(metric, angle=np.pi / 4):
    """Metric distance of a step of the given angle, at chord 2 sin(angle/2)."""
    return chord_distance(2.0 * np.sin(angle / 2.0), metric)


# ---------------------------------------------------------------------------
# field files

def write_field(f, path):
    """Write a field file: one JSON header line, then one CSV row per cell.

    Rows are row-major, d columns of 17-significant-digit decimals (exact
    round trip for doubles), plus a trailing 0/1 mask column when a mask is
    present.
    """
    header = {
        "version": 1,
        "dims": list(f.dims),
        "spacing": f.spacing,
        "origin": list(f.origin),
        "d": f.d,
        "kind": f.kind,
        "mask": "inline" if f.mask is not None else "none",
    }
    rows = f.values.reshape(-1, f.d)
    if f.mask is not None:
        rows = np.column_stack([rows, f.mask.reshape(-1)])
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":"))
                 + "\n")
        # one % format per chunk of rows, the row format of np.savetxt
        for i in range(0, len(rows), _ROWS_PER_WRITE):
            chunk = rows[i:i + _ROWS_PER_WRITE]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def read_field(path):
    """Read a field file written by :func:`write_field`."""
    with open(path) as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as e:
            raise ValueError(f"malformed field header: {e}") from None
        for key in ("version", "dims", "spacing", "origin", "d", "kind", "mask"):
            if key not in header:
                raise ValueError(f"field header missing {key!r}")
        dims, d, origin = header["dims"], header["d"], header["origin"]
        N = len(dims) if type(dims) is list else 0  # dims is checked first
        number = (int, float)  # matched by type(), which excludes bools
        for key, ok, want in [
                ("version", type(header["version"]) is int
                 and header["version"] == 1, "1"),
                ("dims", type(dims) is list and dims and all(
                    type(n) is int and n >= 1 for n in dims), "ints >= 1"),
                ("d", type(d) is int and d >= 1, "an int >= 1"),
                ("spacing", type(header["spacing"]) in number, "a number"),
                ("origin", type(origin) is list and len(origin) == N
                 and all(type(x) in number for x in origin),
                 f"a list of {N} numbers"),
                ("mask", header["mask"] in ("inline", "none"),
                 '"inline" or "none"')]:
            if not ok:
                raise ValueError(
                    f"field {key} must be {want}, got {header[key]!r}")
        ncells = math.prod(dims)
        has_mask = header["mask"] == "inline"
        want = d + (1 if has_mask else 0)
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (ncells, want):
        raise ValueError(
            f"field body has shape {data.shape}, expected {(ncells, want)}")
    values = data[:, :d].reshape((*dims, d))
    mask = data[:, d].reshape(dims) if has_mask else None
    if has_mask and (bad := mask[(mask != 0.0) & (mask != 1.0)]).size:
        raise ValueError(f"field mask must be 0 or 1, got {bad[0]}")
    return GridField(dims, float(header["spacing"]), tuple(origin),
                     header["kind"], values, mask)


# ---------------------------------------------------------------------------
# mollified double-integral energy

def _half_offsets(N, rmax):
    """Lattice offsets with 0 < |k| <= rmax, one per {k, -k} pair: the one
    whose first nonzero component is positive, in lexicographic order."""
    k = np.indices((2 * rmax + 1,) * N).reshape(N, -1).T - rmax
    lead = k[np.arange(len(k)), (k != 0).argmax(axis=1)]
    keep = (lead > 0) & ((k * k).sum(axis=1) <= rmax * rmax)
    return [tuple(off) for off in k[keep].tolist()]


def _offset_slices(off, dims):
    """Slices ``(src, dst)`` of the cells x and x + off of the pairs at
    lattice offset ``off`` on a grid of ``dims``; empty past the grid."""
    return tuple(tuple(slice(max(0, s * o), max(0, n + s * o))
                       for o, n in zip(off, dims)) for s in (-1, 1))


def _thread_count(threads=None):
    """Worker threads: ``threads`` if given, else ``BVLIFT_THREADS``, else
    the CPUs this process may run on.  Raises ValueError for a count
    below 1, or a ``BVLIFT_THREADS`` that is not an integer >= 1."""
    if threads is not None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        return threads
    env = os.environ.get("BVLIFT_THREADS")
    if env is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(
            f"BVLIFT_THREADS must be an integer >= 1, got {env!r}")
    return n


def _lattice_sums(f, requests, offsets, axes=None):
    """The pair kernel: sums of pair distances at each of ``offsets``.

    Returns one row per offset of one value per ``(metric, signs)``
    request, of f for signs None, else of the lifting s f (see
    :func:`_chord_rule`): the offset's sum, or with ``axes`` (one layer
    axis per offset) the new array of its sums S[k] by the layer k along
    its axis of the lower cell.  An offset past the grid gets its row of
    zeros without a pass.
    Per offset the squared chords |a - b|^2 and |a + b|^2 are computed
    once, on contiguous component planes, then the projective chord (the
    smaller; |a - b| if every request reads that), set to 0 on the pairs
    leaving the mask (chord 0 is at distance exactly 0 in every metric),
    and its distances, one metric at a time in one buffer.  A request that
    reads |a - b| or |a + b| by its sign product s_i s_j (+1 without signs)
    copies them and overwrites the in-mask pairs it flips, where s_i s_j is
    not the sign of the smaller chord, gathered by index, with the
    distances of the larger chord.

    Thread i of t = min(:func:`_thread_count`, offsets) threads sums the
    offsets i, i + t, i + 2t, ... into buffers it allocates once; for
    t <= 1 the calling thread does, and no pool starts.  Each offset's
    sums are computed by one thread alone, over a C-contiguous array of the
    overlap's shape, so they are the same bit for bit whatever the count.
    """
    # per request: None if it reads the projective chord, else where it
    # reads |a - b|: everywhere (True) or where s_i s_j = +1 (s > 0)
    rules = [None if _chord_rule(metric, f.kind, signs is not None)
             else True if signs is None else signs > 0
             for metric, signs in requests]
    plus = any(rule is not True for rule in rules)  # else all read |a - b|
    patched = plus and any(rule is not None for rule in rules)
    by_metric = {}  # metric -> [(request index, rule)]
    for i, ((metric, _), rule) in enumerate(zip(requests, rules)):
        by_metric.setdefault(metric, []).append((i, rule if plus else None))
    inside = f.inside()
    planes = [np.ascontiguousarray(f.values[..., k]) for k in range(f.d)]

    def offset_sums(off, axis, buf):
        shape = tuple(max(0, n - abs(o)) for o, n in zip(off, f.dims))
        if 0 in shape:
            return [0.0 if axis is None else np.zeros(shape[axis])
                    for _ in requests]
        src, dst = _offset_slices(off, f.dims)
        m2, p2, q, dist, copy, ok, pref, flip = (
            None if b is None else b[:math.prod(shape)].reshape(shape)
            for b in buf)
        _squared_chords([p[src] for p in planes], [p[dst] for p in planes],
                        plus, out=(m2, p2, q))  # q is their scratch
        np.sqrt(np.minimum(m2, p2, out=q) if plus else m2, out=q)
        if f.mask is not None:
            np.logical_and(inside[src], inside[dst], out=ok)
            np.multiply(q, ok, out=q)
        if patched:
            np.less_equal(m2, p2, out=pref)
        across = tuple(c for c in range(f.N) if c != axis)  # a layer's axes
        vals = [None] * len(requests)
        for metric, reqs in by_metric.items():
            dists = chord_distance(q, metric, out=dist)
            for i, rule in reqs:
                if rule is not None:
                    same = (rule if rule is True
                            else np.equal(rule[src], rule[dst], out=flip))
                    np.not_equal(same, pref, out=flip)
                    if f.mask is not None:
                        np.logical_and(flip, ok, out=flip)
                    idx = np.flatnonzero(flip)
                    larger = np.sqrt(np.maximum(m2.reshape(-1)[idx],
                                                p2.reshape(-1)[idx]))
                    np.copyto(copy, dists)
                    copy.reshape(-1)[idx] = chord_distance(larger, metric)
                row = dists if rule is None else copy
                vals[i] = (float(row.sum()) if axis is None
                           else row.sum(axis=across))
        return vals

    def part_sums(part):
        n = math.prod(f.dims)
        buf = [np.empty(n) if need else None for need in (
            True, plus, True, True, patched)] + [
                np.empty(n, bool) for _ in range(3)]  # ok, pref, flip
        return [offset_sums(off, axis, buf) for off, axis in part]

    jobs = list(zip(offsets, axes or [None] * len(offsets)))
    t = min(_thread_count(), len(jobs))
    if t <= 1:
        return part_sums(jobs)
    with ThreadPoolExecutor(max_workers=t) as ex:
        parts = list(ex.map(part_sums, [jobs[i::t] for i in range(t)]))
    return [parts[i % t][i // t] for i in range(len(jobs))]


def _pair_sums(f, requests, rmax):
    """Sums of pair distances for every half-lattice offset up to rmax
    cells: :func:`_lattice_sums` over :func:`_half_offsets`, as one
    ``{offset: sum}`` dict per ``(metric, signs)`` request."""
    offsets = _half_offsets(f.N, rmax)
    rows = _lattice_sums(f, requests, offsets)  # rmax >= 1: never empty
    return [dict(zip(offsets, sums)) for sums in zip(*rows)]


def _energy_from_pair_sums(sums, eps, h, N):
    tot = 0.0
    count = 0
    for off, s in sums.items():
        r = math.hypot(*off) * h
        if r <= eps:
            tot += 2.0 * s / r
            count += 2
    # kernel mass normalized exactly on the lattice ball (the center cell,
    # whose integrand vanishes, is excluded)
    rho = 1.0 / (count * h ** N)
    return tot * rho * h ** (2 * N)


def _mollifier_pair_sums(f, requests, eps):
    """:func:`_pair_sums` of the requests out to the largest radius in
    ``eps``.  A radius below two cells (which includes eps <= 0) is rejected
    as under-resolved, a non-finite radius as malformed."""
    h = f.spacing
    if not np.all(np.isfinite(eps)):
        raise ValueError(f"mollifier eps must be finite, got {list(eps)}")
    if min(eps) < 2.0 * h:
        raise UnderResolvedError(
            f"mollifier eps {min(eps)} under-resolved by grid spacing {h}")
    # all |k| <= eps/h; m h / h may round up
    return _pair_sums(f, requests, math.ceil(max(eps) / h - 1e-9))


def mollified_energy(f, eps, metric="geodesic"):
    """Riemann sum of the mollified double integral over masked cell pairs.

    Pairs up to |x - y| <= eps contribute dist(u(x), u(y)) / |x - y| with the
    ball-indicator kernel, whose mass is normalized exactly on the discrete
    offset set.  Returns the total only (no decomposition).  A radius below
    two cells (which includes eps <= 0) is rejected as under-resolved, a
    non-finite radius as malformed.
    """
    (sums,) = _mollifier_pair_sums(f, [(metric, None)], [eps])
    total = _energy_from_pair_sums(sums, eps, f.spacing, f.N)
    return EnergyReport(total, metric, "mollified",
                        params={"eps": eps, "eps_over_h": eps / f.spacing})


def mollified_energy_extrapolated(f, metric="geodesic", multipliers=(8, 16, 32)):
    """Mollified energies at eps = m*h, linearly extrapolated to eps -> 0.

    The leading estimator error is O(eps), so an affine least-squares fit in
    eps is evaluated at zero; the fit needs two distinct finite multipliers.
    Pair sums are shared across the eps sequence.
    """
    return _extrapolated_energies(f, [(metric, None)], multipliers)[0]


def _extrapolated_energies(f, requests, multipliers=(8, 16, 32)):
    """:func:`mollified_energy_extrapolated` of each ``(metric, signs)``
    request of :func:`_pair_sums`, all from one pair pass."""
    multipliers = sorted(multipliers)
    if len(set(multipliers)) < 2:
        raise ValueError("extrapolation needs two distinct mollifier "
                         f"multipliers, got {multipliers}")
    h = f.spacing
    eps = np.array([m * h for m in multipliers])
    A = np.vstack([np.ones_like(eps), eps]).T
    reports = []
    for (metric, _), sums in zip(requests, _mollifier_pair_sums(
            f, requests, eps)):
        es = np.array([_energy_from_pair_sums(sums, e, h, f.N) for e in eps])
        coef, *_ = np.linalg.lstsq(A, es, rcond=None)
        reports.append(EnergyReport(
            float(coef[0]), metric, "mollified",
            params={"eps_over_h": list(multipliers),
                    "energies": [float(x) for x in es],
                    "extrapolated": True}))
    return reports


# ---------------------------------------------------------------------------
# directional total variation

def _line_bundle_tvs(f, omegas, metric):
    """:func:`directional_tv` of each direction of ``omegas``.

    The line of intercept b visits the transverse cell b + rint(k s) in
    layer k along the dominant axis a, s the slopes of omega over omega_a:
    the lines are translates, so each cell of layer k starts one pair of
    step k, at offset e_a + delta_k, delta_k = rint((k+1) s) - rint(k s).
    All directions read their per-layer sums along their dominant axes
    from one :func:`_lattice_sums` call over the step offsets they use.
    """
    bundles = []  # (a, |omega_a|, deltas, sorted distinct deltas)
    for omega in omegas:
        omega = np.asarray(omega, dtype=float)
        if omega.shape != (f.N,):
            raise ValueError(f"omega must be a unit vector in R^{f.N}")
        if not 0 < (norm := np.linalg.norm(omega)) < math.inf:  # or NaN
            raise ValueError(f"omega must be finite and nonzero, got {omega}")
        omega = omega / norm
        a = int(np.argmax(np.abs(omega)))
        slopes = np.delete(omega, a) / omega[a]
        deltas = np.diff(np.rint(np.arange(f.dims[a])[:, None] * slopes),
                         axis=0).astype(int)  # delta_k of each step k
        bundles.append((a, abs(omega[a]), deltas,
                        sorted(set(map(tuple, deltas.tolist())))))
    used = sorted({(a, d) for a, _, _, ds in bundles for d in ds})
    rows = _lattice_sums(f, [(metric, None)],
                         [(*d[:a], 1, *d[a:]) for a, d in used],
                         axes=[a for a, _ in used])
    layers = {key: S for key, (S,) in zip(used, rows)}  # (a, delta) -> S
    tvs = []
    for a, weight, deltas, steps in bundles:
        tv = 0.0
        for delta in steps:
            tv += float(layers[a, delta][(deltas == delta).all(axis=1)].sum())
        tvs.append(float(weight * f.spacing ** (f.N - 1) * tv))
    return tvs


def directional_tv(f, omega, metric="geodesic"):
    """Total variation of the one-dimensional restrictions along direction omega.

    A bundle of grid-sampled lines parallel to omega (one per unit intercept
    in the slab orthogonal to the dominant axis, nearest-cell traversal with
    k s rounded once for all lines) is summed with transverse weight
    |omega_a| h^{N-1}.  Pairs crossing the mask are dropped.
    """
    return _line_bundle_tvs(f, [omega], metric)[0]


def avg_directional_energy(f, directions=64, seed=0, metric="geodesic",
                           omegas=None):
    """Average of :func:`directional_tv` over sampled directions of S^{N-1}.

    For N = 1 both elements of S^0 give the same restriction, so the value is
    exact.  The sample standard error is reported in ``params`` (conservative
    for the stratified N = 2 sampling).  ``omegas`` replaces the sampled
    directions, which share their per-layer pair sums.
    """
    if f.N == 1:
        omegas = [[1.0]]
    elif directions < 4:
        raise ValueError("directions must be >= 4")
    rng = np.random.default_rng(seed)
    if omegas is None and f.N == 2:
        # equispaced angles with one random offset: unbiased, low variance
        phi = (np.arange(directions) + rng.random()) / directions * 2.0 * np.pi
        omegas = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    elif omegas is None:
        omegas = random_unit_vectors(f.N, directions, rng)
    if len(omegas) == 0:
        raise ValueError("omegas must hold at least one direction")
    tvs = np.array(_line_bundle_tvs(f, omegas, metric))
    stderr = float(tvs.std(ddof=1) / np.sqrt(len(tvs))) if len(tvs) > 1 else 0.0
    return EnergyReport(float(tvs.mean()), metric, "directional_avg",
                        params={"directions": len(tvs), "stderr": stderr})


# ---------------------------------------------------------------------------
# embedded finite-difference total variation

def _forward_faces(dims):
    """(axis, lower cells, upper cells) slices of the forward faces of a grid:
    the pairs at the unit lattice offsets."""
    for a, off in enumerate(np.eye(len(dims), dtype=int)):
        yield (a, *_offset_slices(off, dims))


def _face_data(f, metric, signs=None):
    """Forward-face validity, distances and chords of f, or lazily of each
    lifting s f of an iterable ``signs`` of sign arrays.

    Yields ``(valid, dists, chords, proj)`` (see :func:`_chord_rule`),
    arrays of shape ``dims + (N,)``, exactly 0 on faces leaving the mask
    or the grid.  f's face chords and distances are computed once: the
    projective ones (|a - b| for f in a metric that reads it), and for
    liftings the larger ones too.  Each lifting copies the projective
    arrays and overwrites the faces it flips as :func:`_lattice_sums`
    does, one lifting's arrays at a time.
    """
    proj = _chord_rule(metric, f.kind, signs is not None)
    inside = f.inside()
    comps = [f.values[..., k] for k in range(f.d)]
    valid = np.zeros(f.dims + (f.N,), dtype=bool)
    minus = np.zeros(valid.shape)
    plus = np.zeros(valid.shape) if proj or signs is not None else None
    for a, src, dst in _forward_faces(f.dims):
        ok = inside[src] & inside[dst]
        valid[src + (a,)] = ok
        minus2, plus2 = _squared_chords(
            [c[src] for c in comps], [c[dst] for c in comps], plus is not None)
        minus[src + (a,)] = np.sqrt(minus2) * ok
        if plus is not None:
            plus[src + (a,)] = np.sqrt(plus2) * ok
    del inside, ok, minus2, plus2  # the last axis's temporaries
    chords = minus if plus is None else np.minimum(minus, plus)
    flips = signs is not None and not proj  # else f's chord is read as is
    if flips:
        pref = minus <= plus
        larger = np.maximum(minus, plus, out=plus).reshape(-1)
    del minus, plus  # f's chords, before the distances are built
    dists = chord_distance(chords, metric)
    if not flips:
        for _ in [None] if signs is None else signs:
            yield valid, dists, chords, proj
        return
    larger_dists = chord_distance(larger, metric)
    for s in signs:
        pos = s > 0
        flip = np.zeros(valid.shape, dtype=bool)
        for a, src, dst in _forward_faces(f.dims):
            np.equal(pos[src], pos[dst], out=flip[src + (a,)])
        idx = np.flatnonzero(np.not_equal(flip, pref, out=flip))
        s_chords = chords.copy()
        s_chords.reshape(-1)[idx] = larger[idx]
        # a euclidean_sphere distance is the chord itself
        s_dists = s_chords if dists is chords else dists.copy()
        s_dists.reshape(-1)[idx] = larger_dists[idx]
        yield valid, s_dists, s_chords, proj
        del pos, flip, idx, s_chords, s_dists  # before the next lifting's


def embedded_tv(f, metric="euclidean_sphere", jump_threshold=None):
    """Anisotropy-corrected finite-difference TV with a jump/smooth split.

    Per cell the forward differences of the embedded values form a D x N
    matrix whose Frobenius norm sqrt(sum over axes of step^2), summed with
    weight h^{N-1}, estimates the absolutely continuous part; faces whose
    metric step exceeds the jump threshold are counted separately as jump
    faces with cost = metric distance x face area (their number is
    ``params["jump_faces"]``), and the cells touching them are left out of
    the smooth sum.  Unless given explicitly as a metric distance, the
    threshold is the distance of a step of angle
    ``max(pi/4, 8 x median step angle)``, capped at the top of the metric's
    range: pi, or pi/2 when the chord is projective (beyond pi/2 the tensor
    distance sin(theta) falls again).  An explicit threshold must be finite
    and positive.
    """
    return next(_face_energies(f, metric, jump_threshold=jump_threshold))


def _face_energies(f, metric, signs=None, jump_threshold=None):
    """:func:`embedded_tv` report of f, or lazily of each lifting s f of an
    iterable ``signs`` of sign arrays, from :func:`_face_data`."""
    if jump_threshold is not None and not (
            np.isfinite(jump_threshold) and jump_threshold > 0):
        raise ValueError("jump threshold must be finite and positive, "
                         f"got {jump_threshold}")
    h = f.spacing
    owner = None
    for valid, dists, chords, proj in _face_data(f, metric, signs):
        if owner is None:  # the cells of a valid face, alike for all liftings
            owner = valid.any(axis=-1)
        # embedded step: the chord, or the step sin(theta) of the tensor
        # embedding (1/sqrt 2) n (x) n when the chord is projective
        steps = chord_distance(chords, "euclidean_tensor") if proj else chords
        threshold = jump_threshold
        if threshold is None:
            # the step angle 2 arcsin(q/2) is monotone in the chord q; the
            # median partitions its temporary copy of the valid chords in place
            med = (float(chord_distance(
                np.median(chords[valid], overwrite_input=True), "geodesic"))
                if valid.any() else 0.0)
            threshold = default_jump_threshold(
                metric, min(max(np.pi / 4.0, 8.0 * med),
                            np.pi / 2 if proj else np.pi))
        isjump = valid & (dists > threshold)

        # a cell is excluded from the smooth sum if any face it touches jumps
        near_jump = np.zeros(f.dims, dtype=bool)
        for a, src, dst in _forward_faces(f.dims):
            ja = isjump[src + (a,)]
            near_jump[src] |= ja
            near_jump[dst] |= ja

        frob = np.sqrt(_lane_sum(lambda a, buf: np.square(
            steps[..., a], out=buf), f.N, np.empty(f.dims), np.empty(f.dims)))
        ac = float((h ** (f.N - 1) * frob)[owner & ~near_jump].sum())
        jump = float((dists[isjump]).sum() * h ** (f.N - 1))
        yield EnergyReport(ac + jump, metric, "embedded_tv",
                           ac_part=ac, jump_part=jump,
                           params={"jump_threshold": float(threshold),
                                   "jump_faces": int(isjump.sum())})
        del dists, chords, steps, isjump, near_jump, frob
