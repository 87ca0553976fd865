"""Property tests of the exact invariants of the distances and estimators.

Each property holds exactly in floating point, so every comparison is
bit for bit or an exact inequality.  The one tolerance is the rounding
bound of a sum taken in another order, against the line-by-line reference
of the directional estimator.
"""

import itertools
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bvlift import fields
from bvlift.fields import (_ROWS_PER_WRITE, METRICS, GridField, _face_data,
                           _face_energies, _half_offsets, _lattice_sums,
                           _pair_sums,
                           avg_directional_energy, directional_tv,
                           embedded_tv, mollified_energy,
                           mollified_energy_extrapolated, read_field,
                           write_field)
from bvlift.geometry import (canonicalize, chord, chord_distance, dist_proj,
                             dist_sphere, eucl_jump_cost, haar_rotations,
                             lift_sign)

SETTINGS = settings(max_examples=60, deadline=None)


def _normalize(v):
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / norms


@st.composite
def unit_vectors(draw, n=None, d=None):
    """(n, d) array of unit vectors; coordinates include 0 and +-1 exactly."""
    n = draw(st.integers(1, 8)) if n is None else n
    d = draw(st.integers(2, 4)) if d is None else d
    raw = draw(hnp.arrays(float, (n, d), elements=st.floats(
        -1.0, 1.0, allow_subnormal=False)))
    # rows too short to normalize are replaced by a basis vector
    short = np.linalg.norm(raw, axis=-1) < 1e-3
    raw[short] = 0.0
    raw[short, 0] = 1.0
    return _normalize(raw)


@st.composite
def grid_fields(draw, kind, dims_max=5, N_choices=(1, 2), masked=None):
    N = draw(st.sampled_from(N_choices))
    dims = tuple(draw(st.integers(2, dims_max)) for _ in range(N))
    d = draw(st.sampled_from((2, 3)))
    cells = int(np.prod(dims))
    vals = draw(unit_vectors(cells, d)).reshape(dims + (d,))
    mask = None
    if masked or masked is None and draw(st.booleans()):
        mask = draw(hnp.arrays(bool, dims))
        mask.flat[draw(st.integers(0, cells - 1))] = True  # never empty
    spacing = draw(st.floats(1e-3, 10.0))
    origin = tuple(draw(st.floats(-100.0, 100.0)) for _ in range(N))
    return GridField(dims, spacing, origin, kind, vals, mask)


def _metrics(kind, signed=False):
    """The metrics a request without (or with) signs may ask of a field of
    the kind: euclidean_sphere, the metric of liftings, needs signs on a
    line field."""
    if kind == "proj" and not signed:
        return ("geodesic", "euclidean_tensor")
    return METRICS


def _distance(metric, kind):
    """The pair distance of a field of the kind: a closed form of the chord,
    projective for line fields and for the tensor metric."""
    proj = kind == "proj" or metric == "euclidean_tensor"
    return lambda a, b: chord_distance(chord(a, b, proj), metric)


def _signs(draw, n):
    return np.where(draw(hnp.arrays(bool, (n,))), -1.0, 1.0)[:, None]


@SETTINGS
@given(st.data())
def test_sign_flip_of_proj_representatives_is_bit_identical(data):
    a = data.draw(unit_vectors())
    n, d = a.shape
    b = data.draw(st.one_of(unit_vectors(n, d), st.just(a.copy())))
    sa, sb = _signs(data.draw, n), _signs(data.draw, n)
    for metric in METRICS:
        dist = _distance(metric, "proj")
        assert np.array_equal(dist(sa * a, sb * b), dist(a, b)), metric
    assert np.array_equal(dist_proj(sa * a, sb * b), dist_proj(a, b))
    assert np.array_equal(eucl_jump_cost(sa * a, sb * b), eucl_jump_cost(a, b))


@SETTINGS
@given(unit_vectors())
def test_identical_representatives_are_at_distance_zero(a):
    for metric in METRICS:
        for kind in ("unit", "proj"):
            got = _distance(metric, kind)(a, a.copy())
            assert np.all(got == 0.0), (metric, kind, got.max())
    assert np.all(dist_sphere(a, a) == 0.0)
    assert np.all(dist_proj(a, a) == 0.0)
    assert np.all(dist_proj(a, -a) == 0.0)
    assert np.all(eucl_jump_cost(a, a) == 0.0)


@SETTINGS
@given(st.data())
def test_lifting_distances_never_below_its_projection(data):
    n = data.draw(grid_fields("unit"))
    u = n.with_values(canonicalize(n.values), kind="proj")
    a, b = n.values.reshape(-1, n.d)[:-1], n.values.reshape(-1, n.d)[1:]
    ca, cb = u.values.reshape(-1, n.d)[:-1], u.values.reshape(-1, n.d)[1:]
    rmax = data.draw(st.integers(2, 3))
    eps = rmax * n.spacing
    for metric in METRICS:
        assert np.all(_distance(metric, "unit")(a, b)
                      >= _distance(metric, "proj")(ca, cb)), metric
    for metric in _metrics("proj"):
        dn, du = (next(_face_data(f, metric))[1] for f in (n, u))
        assert np.all(dn >= du), metric
        (sn,), (su,) = (_pair_sums(f, [(metric, None)], rmax)
                        for f in (n, u))
        assert all(sn[k] >= su[k] for k in sn), metric
        assert (mollified_energy(n, eps, metric).total
                >= mollified_energy(u, eps, metric).total), metric
        # both fields sum the same pairs in the same order
        for omega in data.draw(st.lists(directions(n.N), min_size=1,
                                        max_size=3)):
            assert (directional_tv(n, omega, metric)
                    >= directional_tv(u, omega, metric)), (metric, omega)


@SETTINGS
@given(st.data())
def test_field_files_round_trip_bit_for_bit(data):
    kind = data.draw(st.sampled_from(("proj", "unit")))
    f = data.draw(grid_fields(kind, N_choices=(1, 2, 3), dims_max=4))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.fld")
        write_field(f, path)
        g = read_field(path)
    assert (g.dims, g.spacing, g.origin, g.kind) == (
        f.dims, f.spacing, f.origin, f.kind)
    assert np.array_equal(g.values, f.values)
    assert g.values.tobytes() == f.values.tobytes()  # also the sign of -0.0
    if f.mask is None:
        assert g.mask is None
    else:
        assert np.array_equal(g.mask, f.mask)


@SETTINGS
@given(unit_vectors(n=1), st.sampled_from(("proj", "unit")),
       st.integers(4, 12), st.integers(1, 2))
def test_constant_field_has_exactly_zero_energy(v, kind, grid, N):
    dims = (grid,) * N
    vals = np.broadcast_to(v[0], dims + v.shape[-1:])
    f = GridField(dims, 1.0 / grid, (0.0,) * N, kind, vals)
    for metric in _metrics(kind):
        assert mollified_energy(f, 2 * f.spacing, metric).total == 0.0
        assert avg_directional_energy(f, directions=4, metric=metric).total \
            == 0.0
        assert embedded_tv(f, metric).total == 0.0


def _requests(data, u):
    """Random (metric, signs) requests of _pair_sums on the field u."""
    out = []
    for _ in range(data.draw(st.integers(1, 4))):
        signs = None
        if data.draw(st.booleans()):
            signs = np.where(data.draw(hnp.arrays(bool, u.dims)), -1.0, 1.0)
        metrics = _metrics(u.kind, signs is not None)
        out.append((data.draw(st.sampled_from(metrics)), signs))
    return out


def _loop_half_offsets(N, rmax):
    """The lexicographic np.ndindex loop that _half_offsets vectorizes."""
    rng = range(-rmax, rmax + 1)
    out = []
    for k in np.ndindex(*(len(rng),) * N):
        off = tuple(rng[i] for i in k)
        if all(o == 0 for o in off):
            continue
        if sum(o * o for o in off) > rmax * rmax:
            continue
        # keep the representative whose first nonzero component is positive
        for o in off:
            if o > 0:
                out.append(off)
                break
            if o < 0:
                break
    return out


def test_half_offsets_equal_the_reference_loop():
    for N in (1, 2, 3):
        for rmax in (0, 1, 2, 3, 5, 8, 13):
            got = _half_offsets(N, rmax)
            assert got == _loop_half_offsets(N, rmax), (N, rmax)
            assert all(type(o) is int for off in got for o in off)


def _reference_pair_sums(f, metric, rmax):
    """Per-offset sums of the pair distances, one offset slice at a time."""
    dist = _distance(metric, f.kind)
    inside = f.inside()
    sums = {}
    for off in _half_offsets(f.N, rmax):
        src = tuple(slice(max(0, -o), max(0, n - o))
                    for o, n in zip(off, f.dims))
        dst = tuple(slice(max(0, o), max(0, n + o))
                    for o, n in zip(off, f.dims))
        ok = inside[src] & inside[dst]
        sums[off] = float((dist(f.values[src], f.values[dst]) * ok).sum())
    return sums


@SETTINGS
@given(st.data())
def test_signed_pair_sums_equal_the_explicit_lifting(data):
    u = data.draw(grid_fields("proj", N_choices=(1, 2, 3), dims_max=4))
    rmax = data.draw(st.integers(1, 5))
    signs = np.where(data.draw(hnp.arrays(bool, u.dims)), -1.0, 1.0)
    n = u.with_values(u.values * signs[..., None], "unit")
    for metric in METRICS:
        (got,) = _pair_sums(u, [(metric, signs)], rmax)
        (want,) = _pair_sums(n, [(metric, None)], rmax)
        assert got == want == _reference_pair_sums(n, metric, rmax), metric


@SETTINGS
@given(st.data())
def test_multi_request_pair_sums_equal_single_requests(data):
    kind = data.draw(st.sampled_from(("proj", "unit")))
    u = data.draw(grid_fields(kind, N_choices=(1, 2, 3), dims_max=4))
    rmax = data.draw(st.integers(1, 5))
    requests = _requests(data, u)
    together = _pair_sums(u, requests, rmax)
    assert len(together) == len(requests)
    for (metric, signs), got in zip(requests, together):
        (want,) = _pair_sums(u, [(metric, signs)], rmax)
        assert got == want
        if signs is None:
            assert got == _reference_pair_sums(u, metric, rmax)


@SETTINGS
@given(st.data())
def test_mollified_energy_is_an_entry_of_the_extrapolation(data):
    # both entry points share one radius check and one pair pass
    kind = data.draw(st.sampled_from(("proj", "unit")))
    f = data.draw(grid_fields(kind, N_choices=(1, 2, 3), masked=True))
    ms = data.draw(st.lists(st.floats(2.0, 5.0), min_size=2, max_size=3,
                            unique=True))
    for metric in _metrics(kind):
        rep = mollified_energy_extrapolated(f, metric, ms)
        assert rep.params["energies"] == [
            mollified_energy(f, m * f.spacing, metric).total
            for m in sorted(ms)], metric


def _lifting(u, signs):
    """The field s u, sphere valued for a line field u."""
    return u.with_values(u.values * signs[..., None],
                         kind="unit" if u.kind == "proj" else u.kind)


@SETTINGS
@given(st.data())
def test_face_energies_equal_embedded_tv_of_each_request(data):
    # f itself and one lifting s f, each as its explicit field, in every
    # metric the kind allows without and with signs
    kind = data.draw(st.sampled_from(("proj", "unit")))
    u = data.draw(grid_fields(kind, N_choices=(1, 2, 3)))
    signs = np.where(data.draw(hnp.arrays(bool, u.dims)), -1.0, 1.0)
    threshold = data.draw(st.one_of(st.none(), st.floats(0.01, 3.0)))
    for metric in _metrics(kind):
        got = [rep.to_dict() for rep in _face_energies(
            u, metric, jump_threshold=threshold)]
        assert got == [embedded_tv(u, metric, threshold).to_dict()], metric
    for metric in _metrics(kind, True):
        got = [rep.to_dict() for rep in _face_energies(
            u, metric, [signs], threshold)]
        assert got == [embedded_tv(_lifting(u, signs), metric,
                                   threshold).to_dict()], metric


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_pair_sums_do_not_depend_on_the_thread_count(data):
    # the mollified pair sums, values and key order alike, and the
    # directional energies, whose line bundles run on the same kernel
    kind = data.draw(st.sampled_from(("proj", "unit")))
    u = data.draw(grid_fields(kind, N_choices=(1, 2, 3), dims_max=8))
    rmax = data.draw(st.integers(1, 6))
    requests = _requests(data, u)
    runs = []
    for threads in ("1", "2", "3"):
        with mock.patch.dict(os.environ, {"BVLIFT_THREADS": threads}):
            runs.append((
                [list(sums.items()) for sums in _pair_sums(u, requests, rmax)],
                [avg_directional_energy(u, directions=8, metric=m).to_dict()
                 for m in _metrics(kind)]))
    assert runs[0] == runs[1] == runs[2]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_requests_sharing_a_pick_equal_single_requests(data):
    # requests of one metric share its distances, which each lifting
    # copies and patches: the unsigned ones, the projective ones, one sign
    # array object given twice, and equal sign arrays that are distinct
    # objects
    kind = data.draw(st.sampled_from(("proj", "unit")))
    u = data.draw(grid_fields(kind, N_choices=(1, 2, 3), dims_max=4))
    rmax = data.draw(st.integers(1, 5))  # offsets past the grid too
    signs = np.where(data.draw(hnp.arrays(bool, u.dims)), -1.0, 1.0)
    requests = data.draw(st.permutations(
        [(metric, s) for s in (None, signs, signs, signs.copy())
         for metric in _metrics(kind, s is not None)]))
    with mock.patch.dict(os.environ, {"BVLIFT_THREADS": "1"}):
        want = [list(_pair_sums(u, [r], rmax)[0].items()) for r in requests]
    for threads in ("1", "3"):
        with mock.patch.dict(os.environ, {"BVLIFT_THREADS": threads}):
            got = _pair_sums(u, requests, rmax)
        assert [list(sums.items()) for sums in got] == want, threads


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_face_energies_of_a_stream_of_sign_requests(data):
    # the liftings of one metric patch their chords and distances from
    # those of f, computed once, and are drawn from the stream one at a time
    kind = data.draw(st.sampled_from(("proj", "unit")))
    u = data.draw(grid_fields(kind, N_choices=(1, 2, 3)))
    metric = data.draw(st.sampled_from(_metrics(kind, True)))
    stream = [np.where(data.draw(hnp.arrays(bool, u.dims)), -1.0, 1.0)
              for _ in range(data.draw(st.integers(2, 6)))]
    # random fields jump by more than the default threshold's cap nowhere
    threshold = data.draw(st.one_of(st.none(), st.floats(0.01, 3.0)))
    drawn = []

    def signs():
        for s in stream:
            drawn.append(s)
            yield s

    reports = _face_energies(u, metric, signs(), threshold)
    for k, s in enumerate(stream):
        assert next(reports).to_dict() == embedded_tv(
            _lifting(u, s), metric, threshold).to_dict(), k
        assert len(drawn) == k + 1
    assert next(reports, None) is None


# ---------------------------------------------------------------------------
# the flip rule: a lifting s f reads f's projective chord, except on the
# pairs where s_i s_j is not the sign of the smaller chord, which read the
# larger one


def _flip_cases():
    """(field, signs) pairs of small grids on which many pairs flip."""
    rng = np.random.default_rng(20)
    dims = (6, 5)
    mask = rng.random(dims) < 0.7
    mask[0, 0] = True
    cases = []
    for kind in ("proj", "unit"):
        for d in (2, 3):
            # orthogonal representatives: |a - b| = |a + b| exactly
            ties = np.eye(d)[rng.integers(0, d, dims)]
            # a rough field: most random sign products flip its pairs
            rough = _normalize(rng.standard_normal(dims + (d,)))
            if kind == "unit":
                ties *= rng.choice([-1.0, 1.0], dims + (1,))
            for vals in (ties, rough):
                for m in (None, mask):
                    signs = rng.choice([-1.0, 1.0], dims)
                    cases.append((GridField(dims, 0.5, (0.0, 0.0), kind,
                                            vals, m), signs))
    return cases


@pytest.mark.parametrize("u, signs", _flip_cases())
def test_flip_rule_pair_sums_equal_the_explicit_lifting(u, signs):
    n = _lifting(u, signs)
    requests = ([(m, signs) for m in _metrics(u.kind, True)]
                + [(m, None) for m in _metrics(u.kind)])
    want = [_reference_pair_sums(u if s is None else n, m, 3)
            for m, s in requests]
    assert _pair_sums(u, requests, 3) == want
    for r, w in zip(requests, want):
        assert _pair_sums(u, [r], 3) == [w], r


@pytest.mark.parametrize("u, signs", _flip_cases())
def test_flip_rule_face_data_equal_the_explicit_lifting(u, signs):
    n = _lifting(u, signs)
    for metric in _metrics(u.kind, True):
        got = next(_face_data(u, metric, [signs]))
        want = next(_face_data(n, metric))
        for g, w in zip(got[:3], want[:3]):
            assert np.array_equal(g, w), metric
        (rep,) = _face_energies(u, metric, [signs])
        assert rep.to_dict() == embedded_tv(n, metric).to_dict(), metric


def test_unsigned_sphere_request_beside_a_projective_one():
    # |a - b| of a rough unit field differs from the projective chord on
    # about half its pairs, which the sphere request patches
    rng = np.random.default_rng(21)
    dims = (7, 6)
    u = GridField(dims, 1.0, (0.0, 0.0), "unit",
                  _normalize(rng.standard_normal(dims + (3,))))
    requests = [("euclidean_tensor", None), ("euclidean_sphere", None),
                ("geodesic", None)]
    got = _pair_sums(u, requests, 4)
    assert got == [_reference_pair_sums(u, m, 4) for m, _ in requests]


@pytest.mark.parametrize("metric", ["geodesic", "euclidean_sphere"])
def test_3d_stream_of_candidates_equals_the_explicit_liftings(metric):
    rng = np.random.default_rng(22)
    dims = (6, 5, 4)
    rough = _normalize(rng.standard_normal(dims + (3,)))
    u = GridField(dims, 0.25, (0.0, 0.0, 0.0), "proj", rough,
                  rng.random(dims) < 0.8)
    stream = [lift_sign(R, u.values) for R in haar_rotations(3, 4, rng)]
    stream += [rng.choice([-1.0, 1.0], dims) for _ in range(3)]
    reports = _face_energies(u, metric, iter(stream))
    for k, s in enumerate(stream):
        assert next(reports).to_dict() == embedded_tv(
            _lifting(u, s), metric).to_dict(), k
    assert next(reports, None) is None


def test_offsets_past_the_grid_are_not_evaluated():
    # radius 6 on a 5 x 3 grid: most offsets of the half ball have no pair
    rng = np.random.default_rng(23)
    u = GridField((5, 3), 1.0, (0.0, 0.0), "proj",
                  _normalize(rng.standard_normal((5, 3, 2))))
    fits = [off for off in _half_offsets(2, 6)
            if all(abs(o) < n for o, n in zip(off, u.dims))]
    with mock.patch.dict(os.environ, {"BVLIFT_THREADS": "1"}), \
            mock.patch.object(fields, "_squared_chords",
                              wraps=fields._squared_chords) as squares:
        (got,) = _pair_sums(u, [("geodesic", None)], 6)
    assert squares.call_count == len(fits) < len(got)
    assert got == _reference_pair_sums(u, "geodesic", 6)
    # with an axis, the row of an empty overlap has that axis's length
    rows = _lattice_sums(u, [("geodesic", None)], [(0, 3), (5, 0)],
                         axes=[0, 0])
    assert [row[0].tolist() for row in rows] == [[0.0] * 5, []]


def _savetxt_bytes(f, path):
    """The field file of f as np.savetxt writes it."""
    header = {"version": 1, "dims": list(f.dims), "spacing": f.spacing,
              "origin": list(f.origin), "d": f.d, "kind": f.kind,
              "mask": "none" if f.mask is None else "inline"}
    rows = f.values.reshape(-1, f.d)
    if f.mask is not None:
        rows = np.column_stack([rows, f.mask.reshape(-1)])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", comments="",
               header=json.dumps(header, sort_keys=True,
                                 separators=(",", ":")))
    with open(path, "rb") as fh:
        return fh.read()


# -0.0, subnormals and the 1e300 scale, next to ordinary components
EXTREME = st.sampled_from((-0.0, 5e-324, -2.5e-310, 1e300,
                           -1.7976931348623157e308, 1.0 / 3.0, -0.1))


@SETTINGS
@given(st.data())
def test_field_files_are_the_bytes_of_savetxt(data):
    kind = data.draw(st.sampled_from(("proj", "unit")))
    f = data.draw(grid_fields(kind, N_choices=(1, 2, 3), dims_max=4))
    # the writer formats any double: values past the field checks too
    f.values = data.draw(hnp.arrays(float, f.values.shape, elements=(
        st.floats(allow_nan=False, allow_infinity=False) | EXTREME)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.fld")
        write_field(f, path)
        with open(path, "rb") as fh:
            got = fh.read()
        assert got == _savetxt_bytes(f, os.path.join(tmp, "ref.fld"))


def test_field_files_across_write_chunks_are_the_bytes_of_savetxt():
    # rows are formatted in chunks: exactly one, one and a row, and a
    # masked 3D field of two chunks and a part
    rng = np.random.default_rng(5)
    for dims, masked in (((_ROWS_PER_WRITE,), False),
                         ((_ROWS_PER_WRITE + 1,), True),
                         ((17, 16, 31), True)):
        vals = rng.standard_normal(dims + (3,))
        vals /= np.linalg.norm(vals, axis=-1, keepdims=True)
        mask = rng.random(dims) < 0.7 if masked else None
        f = GridField(dims, 0.1, (0.0,) * len(dims), "unit", vals, mask)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.fld")
            write_field(f, path)
            with open(path, "rb") as fh:
                got = fh.read()
            assert got == _savetxt_bytes(f, os.path.join(tmp, "ref.fld"))


@st.composite
def directions(draw, N):
    """A nonzero direction of R^N; half of them have coordinates in
    {0, +-1, ..., +-4}: axes and diagonals, where the dominant axis ties,
    and slopes such as 1/2, 1/4 and 3/4, where the nearest-cell rounding
    meets exact halves."""
    if draw(st.booleans()):
        w = draw(hnp.arrays(float, N, elements=st.sampled_from(
            tuple(float(c) for c in range(-4, 5)))))
    else:
        w = draw(hnp.arrays(float, N, elements=st.floats(-1.0, 1.0)))
    if np.linalg.norm(w) < 1e-3:
        w[draw(st.integers(0, N - 1))] = 1.0
    return w


def _reference_directional_tv(f, omega, metric):
    """directional_tv line by line, and its number of pairs: the line of
    intercept b visits the transverse cell b + rint(k s) in layer k along
    the dominant axis a, s the slopes over omega_a, and the distances of
    its in-mask pairs are summed by math.fsum."""
    omega = omega / np.linalg.norm(omega)
    inside = f.inside()
    a = int(np.argmax(np.abs(omega)))
    others = [t for t in range(f.N) if t != a]
    slopes = omega[others] / omega[a]
    steps = [np.rint(k * slopes).astype(int) for k in range(f.dims[a])]
    lo, hi = np.min(steps, axis=0), np.max(steps, axis=0)
    lower, upper = [], []
    for b in itertools.product(*(range(-h, f.dims[t] - l) for t, l, h in
                                 zip(others, lo, hi))):
        line = []  # the cells of the line, None outside the grid or mask
        for k, step in enumerate(steps):
            cell = [k] * f.N
            for t, c in zip(others, np.add(b, step).tolist()):
                cell[t] = c
            ok = all(0 <= c < n for c, n in zip(cell, f.dims))
            line.append(tuple(cell) if ok and inside[tuple(cell)] else None)
        for x, y in zip(line, line[1:]):
            if x is not None and y is not None:
                lower.append(f.values[x])
                upper.append(f.values[y])
    dists = (_distance(metric, f.kind)(np.array(lower), np.array(upper))
             if lower else [])
    tv = math.fsum(dists)
    return abs(omega[a]) * f.spacing ** (f.N - 1) * tv, len(lower)


@SETTINGS
@given(st.data())
def test_directional_tv_equals_the_reference_loop(data):
    # the kernel sums the pairs by layer, in another order than fsum: each
    # of the n rounded additions and the two products err by at most one
    # unit roundoff of the sum of the nonnegative distances
    kind = data.draw(st.sampled_from(("proj", "unit")))
    f = data.draw(grid_fields(kind, N_choices=(1, 2, 3), dims_max=7))
    for _ in range(3):
        omega = data.draw(directions(f.N))
        for metric in _metrics(kind):
            got = directional_tv(f, omega, metric)
            want, n = _reference_directional_tv(f, omega, metric)
            assert abs(got - want) <= (n + 2) * 2.0 ** -53 * want, (
                omega, metric, got, want)
