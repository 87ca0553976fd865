"""Grid fields and the discrete BV-energy estimators.

A :class:`GridField` holds values of one of two kinds on a regular
N-dimensional grid over a box, optionally masked, with at least one cell
inside:

* ``"proj"`` -- line fields; values are canonical unit representatives,
* ``"unit"`` -- sphere-valued fields (liftings).

Three estimators of the BV energy are provided.  The mollified double
integral (:func:`mollified_energy`) and the direction average of the total
variation of one-dimensional restrictions (:func:`avg_directional_energy`,
which takes given directions as ``omegas``) estimate the same continuum
quantity, both from the lattice-offset pair sums of one kernel
(:func:`_lattice_sums`).
An anisotropy-corrected finite difference total variation
(:func:`embedded_tv`) estimates the plain embedded seminorm, whose
absolutely continuous part they share, and counts its jump faces, from the
face data of one field (:func:`_face_data`).
"""

import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .geometry import (_norms, _squared_chords, canonicalize, chord_distance,
                       random_unit_vectors)

__all__ = [
    "GridField",
    "EnergyReport",
    "UnderResolvedError",
    "METRICS",
    "write_field",
    "read_field",
    "mollified_energy",
    "mollified_energy_extrapolated",
    "avg_directional_energy",
    "embedded_tv",
    "default_jump_threshold",
]

METRICS = ("geodesic", "euclidean_sphere", "euclidean_tensor")


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
        try:  # math.pow raises where numpy would warn
            normal = math.pow(self.spacing, 2 * self.N) >= sys.float_info.min
        except OverflowError:
            normal = False
        if not normal:
            raise ValueError(f"spacing {self.spacing} out of range: spacing^"
                             f"{2 * self.N} is not a normal float in {self.N}D")
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
        with np.errstate(over="ignore"):  # an overflow fails the check too
            if np.max(np.abs(_norms(self.values) - 1.0)) > 1e-9:
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
    """Write a field file: one sorted compact JSON header line with
    ``"version": 2``, then the values as little-endian float64 in C order
    and, when a mask is present, one byte per cell: 1 inside, 0 outside.
    """
    header = {
        "version": 2,
        "dims": list(f.dims),
        "spacing": f.spacing,
        "origin": list(f.origin),
        "d": f.d,
        "kind": f.kind,
        "mask": "inline" if f.mask is not None else "none",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":"))
                 .encode() + b"\n")
        fh.write(np.ascontiguousarray(f.values, "<f8").tobytes())
        if f.mask is not None:
            fh.write(np.ascontiguousarray(f.mask, np.uint8).tobytes())


def read_field(path):
    """Read a field file written by :func:`write_field`: a strict header,
    a body of exactly the length it gives and mask bytes 0 or 1; the other
    checks are :class:`GridField`'s.  Values may be a read-only view."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        body = fh.read()
    try:
        header = json.loads(header_line)
    except ValueError as e:
        raise ValueError(f"malformed field header: {e}") from None
    if type(header) is not dict:
        raise ValueError("field header must be a JSON object")
    for key in ("version", "dims", "spacing", "origin", "d", "kind", "mask"):
        if key not in header:
            raise ValueError(f"field header missing {key!r}")
    dims, d, origin = header["dims"], header["d"], header["origin"]
    N = len(dims) if type(dims) is list else 0  # dims is checked first

    def number(x):  # by type(), which excludes bools; an int fits a float
        return type(x) is float or (
            type(x) is int and abs(x) <= sys.float_info.max)
    for key, ok, want in [
            ("version", type(header["version"]) is int
             and header["version"] == 2,
             "2 (text files of version 1 are no longer read)"),
            ("dims", type(dims) is list and dims and all(
                type(n) is int and n >= 1 for n in dims), "ints >= 1"),
            ("d", type(d) is int and d >= 1, "an int >= 1"),
            ("spacing", number(header["spacing"]), "a number"),
            ("origin", type(origin) is list and len(origin) == N
             and all(map(number, origin)),
             f"a list of {N} numbers"),
            ("mask", header["mask"] in ("inline", "none"),
             '"inline" or "none"')]:
        if not ok:
            raise ValueError(
                f"field {key} must be {want}, got {header[key]!r}")
    ncells = math.prod(dims)
    has_mask = header["mask"] == "inline"
    nbytes = (8 * d + has_mask) * ncells
    if len(body) != nbytes:
        raise ValueError(f"field body has {len(body)} bytes, expected {nbytes}"
                         f": {ncells} cells of {d} float64 values"
                         + (" and a mask byte" if has_mask else ""))
    values = np.frombuffer(body, "<f8", ncells * d).reshape((*dims, d))
    mask = (np.frombuffer(body, np.uint8, offset=8 * d * ncells)
            .reshape(dims) if has_mask else None)
    if has_mask and (bad := mask[mask > 1]).size:
        raise ValueError(f"field mask bytes must be 0 or 1, got {bad[0]}")
    return GridField(dims, float(header["spacing"]), tuple(origin),
                     header["kind"], values, mask)


# ---------------------------------------------------------------------------
# mollified double-integral energy

def _half_offsets(N, rmax, dims=None):
    """Lattice offsets with 0 < |k| <= rmax, one per {k, -k} pair: the one
    whose first nonzero component is positive, in lexicographic order, as
    the rows of a ``(count, N)`` int array.  Given ``dims``, only those
    with a pair on that grid, |k_a| < dims[a], are enumerated."""
    reach = np.minimum(rmax, np.subtract(dims, 1)) if dims else np.full(N, rmax)
    k = np.indices(tuple(2 * reach + 1)).reshape(N, -1).T - reach
    lead = k[np.arange(len(k)), (k != 0).argmax(axis=1)]
    keep = (lead > 0) & ((k * k).sum(axis=1) <= rmax * rmax)
    return k[keep]


def _lattice_ball(N, m):
    """Number of lattice points k of Z^N with |k|^2 <= m, by recursion over
    the axes, the last in closed form."""
    if N == 1:
        return 2 * math.isqrt(m) + 1
    r = math.isqrt(m)
    return sum(_lattice_ball(N - 1, m - j * j) for j in range(-r, r + 1))


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
    :func:`_chord_rule`; s_i = s_j marks the same pairs whether s holds
    +-1 floats or booleans): the ``(offsets, requests)`` array of sums, or
    with ``axes`` (one layer axis per offset) rows of the new arrays of
    sums S[k] by the layer k along that axis of the pair's lower cell.
    Offsets past the grid get their rows of zeros before the thread split.
    Each pair set is evaluated once: offsets k and -k, and repeats, are
    one job, keyed by the one whose first nonzero component is positive,
    whose distance arrays feed every row (and layer axis) of the set.  The
    pair at index i of the overlap is {x, x + k} for k and for -k, and
    (a - b)^2 = (b - a)^2, a + b = b + a exactly, so their arrays are
    equal element by element.
    Per pair set the squared chords |a - b|^2 and |a + b|^2 are computed
    once, on contiguous component planes, then the projective chord (the
    smaller; |a - b| if every request reads that), set to 0 on the pairs
    leaving the mask (chord 0 is at distance exactly 0 in every metric),
    and its distances, one metric at a time in one buffer.  A request that
    reads |a - b| or |a + b| by its sign product s_i s_j (+1 without signs)
    patches them in place: it saves the in-mask pairs it flips, where
    s_i s_j is not the sign of the smaller chord, gathered by index,
    writes the distances of the larger chord there, sums, and writes the
    saved distances back.  No request copies the distances, and each sums
    the array a copy would hold, so every sum is the same bit for bit.

    Thread i of t = min(:func:`_thread_count`, pair sets with pairs)
    threads sums their i-th, (i + t)-th, ... into buffers it allocates
    once; for t <= 1 the calling thread does, and no pool starts.  Each
    pair set's sums are computed by one thread alone, over a C-contiguous
    array of the overlap's shape, so they are the same bit for bit whatever
    the count.
    """
    # per request: None if it reads the projective chord, else where it
    # reads |a - b|: everywhere (True) or where s_i = s_j (the signs s)
    rules = [None if _chord_rule(metric, f.kind, signs is not None)
             else True if signs is None else signs
             for metric, signs in requests]
    plus = any(rule is not True for rule in rules)  # else all read |a - b|
    patched = plus and any(rule is not None for rule in rules)
    by_metric = {}  # metric -> [(request index, rule)]
    for i, ((metric, _), rule) in enumerate(zip(requests, rules)):
        by_metric.setdefault(metric, []).append((i, rule if plus else None))
    inside = f.inside()
    planes = [np.ascontiguousarray(f.values[..., k]) for k in range(f.d)]

    def pair_set_sums(off, rows, buf):
        shape = tuple(n - abs(o) for o, n in zip(off, f.dims))
        src, dst = _offset_slices(off, f.dims)
        m2, p2, q, dist, ok, pref, flip = (
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
        # per row, the axes a layer spans (None: the whole overlap)
        sums = [(out[row], None if axes is None else tuple(
            c for c in range(f.N) if c != axes[row])) for row in rows]
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
                    flat = dists.reshape(-1)  # a view: dists is contiguous
                    saved = flat[idx]
                    flat[idx] = chord_distance(larger, metric)
                for row, across in sums:
                    row[i] = (float(dists.sum()) if across is None
                              else dists.sum(axis=across))
                if rule is not None:
                    flat[idx] = saved  # the next request reads dists

    def part_sums(part):
        n = math.prod(f.dims)
        buf = [np.empty(n) if need else None for need in (
            True, plus, True, True)] + [
                np.empty(n, bool) for _ in range(3)]  # ok, pref, flip
        for off, rows in part:
            pair_set_sums(off, rows, buf)

    offsets = np.reshape(offsets, (-1, f.N))
    shapes = np.maximum(np.subtract(f.dims, np.abs(offsets)), 0)  # overlaps
    fits = np.flatnonzero(shapes.all(axis=1))
    out = (np.zeros((len(offsets), len(requests))) if axes is None else [
        [np.zeros(s[a])] * len(requests) for s, a in zip(shapes, axes)])
    # one job per pair set: its key, the sign of k whose first nonzero
    # component is positive, and the rows it fills
    lead = np.take_along_axis(offsets, (offsets != 0).argmax(axis=1)[:, None],
                              axis=1)
    keys, which = np.unique(np.where(lead < 0, -offsets, offsets)[fits],
                            axis=0, return_inverse=True)
    rows = [[] for _ in keys]
    for row, j in zip(fits.tolist(), which.reshape(-1).tolist()):
        rows[j].append(row)
    jobs = list(zip(keys.tolist(), rows))
    t = min(_thread_count(), len(jobs))
    if t <= 1:
        part_sums(jobs)
    else:
        with ThreadPoolExecutor(max_workers=t) as ex:  # a worker's error raises
            list(ex.map(part_sums, [jobs[i::t] for i in range(t)]))
    return out


def _pair_sums(f, requests, rmax):
    """Sums of pair distances for every half-lattice offset up to rmax
    cells with a pair on f's grid: the :func:`_half_offsets` array and the
    ``(offsets, requests)`` array of their :func:`_lattice_sums`."""
    offsets = _half_offsets(f.N, rmax, f.dims)
    return offsets, _lattice_sums(f, requests, offsets)


def _mollified_energies(f, requests, eps):
    """The ``(requests, radii)`` array of :func:`mollified_energy` of each
    ``(metric, signs)`` request at each radius of ``eps``, with its radius
    checks, from one pass of :func:`_pair_sums`.  The offsets k (for
    {k, -k}) on the grid with r = |k| h <= eps add 2 s_k / r of their sum
    s_k in offset order; the kernel mass is normalized on the whole lattice
    ball, counted by :func:`_lattice_ball` up to the largest |k|^2 that
    passes the same float test, without the center cell, whose integrand
    vanishes.
    """
    h, N = f.spacing, f.N
    if not np.all(np.isfinite(eps)):
        raise ValueError(
            f"mollifier eps must be finite, got {[float(e) for e in eps]}")
    if min(eps) < 2.0 * h:
        raise UnderResolvedError(
            f"mollifier eps {min(eps)} under-resolved by grid spacing {h}")
    if max(eps) / h > (cap := 2.0 ** (20 / max(N - 1, 1))):
        # the lattice ball takes about (eps/h)^(N-1) steps to count
        raise ValueError(f"mollifier eps {max(eps)} spans more than {cap:g} "
                         f"cells, the largest ball counted in {N}D")
    # all |k| <= eps/h; m h / h may round up
    rmax = math.ceil(max(eps) / h - 1e-9)
    offsets, sums = _pair_sums(f, requests, rmax)
    r = np.sqrt((offsets * offsets).sum(axis=1)) * h  # |k|^2 is exact
    terms = 2.0 * sums / r[:, None]
    energies = []
    for e in eps:
        m = min(rmax * rmax, int((e / h) ** 2) + 2)  # r <= e is monotone
        while math.sqrt(m) * h > e:  # in |k|^2, and m = 1 passes
            m -= 1
        # the last running sum; a grid of one cell has no offset
        total = np.cumsum(terms[r <= e], 0)[-1:].sum(0)
        energies.append(total * (h ** N / (_lattice_ball(N, m) - 1)))
    return np.array(energies).T


def mollified_energy(f, eps, metric="geodesic"):
    """Riemann sum of the mollified double integral over masked cell pairs.

    Pairs up to |x - y| <= eps contribute dist(u(x), u(y)) / |x - y| with the
    ball-indicator kernel, whose mass is normalized exactly on the discrete
    offset set.  Returns the total only (no decomposition).  A radius below
    two cells (which includes eps <= 0) is rejected as under-resolved, a
    non-finite one or one past the largest ball counted as malformed.
    """
    total = float(_mollified_energies(f, [(metric, None)], [eps])[0, 0])
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
    request of :func:`_lattice_sums`, all from one pair pass."""
    multipliers = sorted(multipliers)
    if len(set(multipliers)) < 2:
        raise ValueError("extrapolation needs two distinct mollifier "
                         f"multipliers, got {multipliers}")
    eps = [m * f.spacing for m in multipliers]
    # the fit is in m = eps / h, where no grid scale makes lstsq drop a column
    A = np.vstack([np.ones(len(multipliers)), multipliers]).T
    reports = []
    for (metric, _), es in zip(requests, _mollified_energies(f, requests, eps)):
        coef, *_ = np.linalg.lstsq(A, es, rcond=None)
        reports.append(EnergyReport(
            float(coef[0]), metric, "mollified",
            params={"eps_over_h": list(multipliers),
                    "energies": [float(x) for x in es],
                    "extrapolated": True}))
    return reports


# ---------------------------------------------------------------------------
# directional total variation

def avg_directional_energy(f, directions=64, seed=0, metric="geodesic",
                           omegas=None):
    """Average over directions omega of S^{N-1} of the total variation of
    the one-dimensional restrictions along omega.

    The directions are ``omegas`` if given (each finite and nonzero, of
    shape (N,); it is normalised), else for N = 2 the D = ``directions``
    distinct lines at angles (k + r) pi / D, one uniform offset r (unbiased,
    low variance), uniform points of S^{N-1} for N >= 3, and omega = 1 for
    N = 1.  omega and -omega give the same restriction, so the value is
    exact for N = 1, and the half circle holds the lines for N = 2.
    Each direction is measured by a bundle of grid-sampled lines, one per
    unit intercept b in the slab orthogonal to its dominant axis a, summed
    with transverse weight |omega_a| h^{N-1}; pairs crossing the mask are
    dropped.  Line b visits the transverse cell b + rint(k s) in layer k,
    s the slopes of omega over omega_a: the lines are translates, so each
    cell of layer k starts one pair of step k, at offset e_a + delta_k,
    delta_k = rint((k+1) s) - rint(k s).  All directions read their
    per-layer sums along their dominant axes from one :func:`_lattice_sums`
    call over the step offsets they use.  The sample standard error is
    reported in ``params`` (conservative for the stratified N = 2 sampling).
    """
    if f.N > 1 and directions < 4:
        raise ValueError("directions must be >= 4")
    rng = np.random.default_rng(seed)
    if omegas is None and f.N == 1:
        omegas = [[1.0]]
    elif omegas is None and f.N == 2:
        phi = (np.arange(directions) + rng.random()) / directions * np.pi
        omegas = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    elif omegas is None:
        omegas = random_unit_vectors(f.N, directions, rng)
    if len(omegas) == 0:
        raise ValueError("omegas must hold at least one direction")

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
    h = f.spacing ** (f.N - 1)
    tvs = np.array([
        weight * h * sum(float(layers[a, delta][(deltas == delta).all(axis=1)]
                               .sum()) for delta in steps)
        for a, weight, deltas, steps in bundles])
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


def _face_data(f, metric):
    """Forward-face validity, distances and chords of f in one metric.

    Returns ``(valid, dists, chords, proj)``: arrays of shape
    ``dims + (N,)``, exactly 0 on faces leaving the mask or the grid, and
    whether the chord is the projective one, min(|a - b|, |a + b|), rather
    than |a - b| (see :func:`_chord_rule`).  A lifting's face sums are the
    pair kernel's (:func:`_lattice_sums`) at the unit offsets.
    """
    proj = _chord_rule(metric, f.kind)
    inside = f.inside()
    comps = [f.values[..., k] for k in range(f.d)]
    valid = np.zeros(f.dims + (f.N,), dtype=bool)
    chords = np.zeros(valid.shape)
    for a, src, dst in _forward_faces(f.dims):
        ok = inside[src] & inside[dst]
        valid[src + (a,)] = ok
        m2, p2 = _squared_chords(
            [c[src] for c in comps], [c[dst] for c in comps], proj)
        chords[src + (a,)] = np.sqrt(np.minimum(m2, p2) if proj else m2) * ok
    return valid, chord_distance(chords, metric), chords, proj


def embedded_tv(f, metric="geodesic", jump_threshold=None):
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
    and positive.  The face data is :func:`_face_data`'s.
    """
    if jump_threshold is not None and not (
            np.isfinite(jump_threshold) and jump_threshold > 0):
        raise ValueError("jump threshold must be finite and positive, "
                         f"got {jump_threshold}")
    h = f.spacing
    valid, dists, chords, proj = _face_data(f, metric)
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

    frob = _norms(steps)
    ac = float((h ** (f.N - 1) * frob)[valid.any(axis=-1) & ~near_jump].sum())
    jump = float((dists[isjump]).sum() * h ** (f.N - 1))
    return EnergyReport(ac + jump, metric, "embedded_tv",
                        ac_part=ac, jump_part=jump,
                        params={"jump_threshold": float(threshold),
                                "jump_faces": int(isjump.sum())})
