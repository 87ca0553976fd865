"""Property tests of the exact invariants of the distances and estimators.

Each property holds exactly in floating point, so every comparison is
bit for bit or an exact inequality.  The one tolerance is the rounding
bound of a sum taken in another order, against the line-by-line reference
of the directional estimator.
"""

import functools
import itertools
import json
import math
import os
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bvlift import fields
from bvlift.fields import (METRICS, GridField, _extrapolated_energies,
                           _face_data, _forward_faces, _half_offsets,
                           _lattice_ball, _lattice_sums, _pair_sums,
                           avg_directional_energy, embedded_tv,
                           mollified_energy, mollified_energy_extrapolated,
                           read_field, write_field)
from bvlift.geometry import (canonicalize, chord, chord_distance, dist_proj,
                             dist_sphere, eucl_jump_cost, lift_sign,
                             random_unit_vectors)

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
        dn, du = (_face_data(f, metric)[1] for f in (n, u))
        assert np.all(dn >= du), metric
        sn, su = (_pair_sums(f, [(metric, None)], rmax)[1] for f in (n, u))
        assert np.all(sn >= su), metric
        assert (mollified_energy(n, eps, metric).total
                >= mollified_energy(u, eps, metric).total), metric
        # both fields sum the same pairs in the same order
        for omega in data.draw(st.lists(directions(n.N), min_size=1,
                                        max_size=3)):
            tv_n, tv_u = (avg_directional_energy(g, metric=metric,
                                                 omegas=[omega]).total
                          for g in (n, u))
            assert tv_n >= tv_u, (metric, omega)


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


def _on_grid(off, dims):
    """Whether the lattice offset ``off`` has a pair on a grid of ``dims``."""
    return all(abs(o) < n for o, n in zip(off, dims))


def test_half_offsets_equal_the_reference_loop():
    # the whole half ball, and only its offsets with a pair on a grid
    for N in (1, 2, 3):
        for rmax in (0, 1, 2, 3, 5, 8, 13):
            want = _loop_half_offsets(N, rmax)
            for dims in (None, (1, 4, 9)[:N], (6, 2, 14)[:N], (20,) * N):
                got = _half_offsets(N, rmax, dims)
                fits = [list(off) for off in want
                        if dims is None or _on_grid(off, dims)]
                assert got.shape == (len(fits), N), (N, rmax, dims)
                assert got.dtype.kind == "i"
                assert got.tolist() == fits, (N, rmax, dims)


def test_lattice_ball_equals_an_enumeration():
    for N in (1, 2, 3):
        r2 = np.sort([sum(o * o for o in k)
                      for k in itertools.product(range(-15, 16), repeat=N)])
        for m in range(201):  # 15^2 > 200: the box holds the ball
            assert _lattice_ball(N, m) == np.searchsorted(r2, m, "right"), \
                (N, m)


def _reference_offset_sums(f, metric, off, axis=None):
    """The sum of the in-mask pair distances of f at the lattice offset
    ``off``, from its own slices (its sign as given): a float, or with
    ``axis`` the sums by the layer of the pair's lower cell along it."""
    inside = f.inside()
    src = tuple(slice(max(0, -o), max(0, n - o)) for o, n in zip(off, f.dims))
    dst = tuple(slice(max(0, o), max(0, n + o)) for o, n in zip(off, f.dims))
    dists = (_distance(metric, f.kind)(f.values[src], f.values[dst])
             * (inside[src] & inside[dst]))
    if axis is None:
        return float(dists.sum())
    return dists.sum(axis=tuple(c for c in range(f.N) if c != axis))


def _reference_pair_sums(f, metric, rmax):
    """Per-offset sums of the pair distances, one offset slice at a time,
    over the half-ball offsets with a pair on f's grid, in their order."""
    return np.array([_reference_offset_sums(f, metric, off)
                     for off in _loop_half_offsets(f.N, rmax)
                     if _on_grid(off, f.dims)])


@functools.cache
def _loop_ball_count(eps, h, N):
    """The offsets k != 0 of the whole lattice ball |k| h <= eps, counted
    one at a time."""
    reach = math.ceil(eps / h) + 1
    return sum(0 < math.sqrt(sum(o * o for o in k)) * h <= eps
               for k in itertools.product(range(-reach, reach + 1), repeat=N))


def _loop_mollified_energy(offsets, sums, eps, h, N):
    """The offset loop that the mollified energies vectorize: one request's
    sums at the offsets (rows) over the ball |k| h <= eps, added one offset
    at a time, with the kernel mass normalized on the whole lattice ball,
    offsets past the grid included."""
    tot = 0.0
    for off, s in zip(offsets.tolist(), sums.tolist()):
        r = math.hypot(*off) * h
        if r <= eps:
            tot += 2.0 * s / r
    return tot * (h ** N / _loop_ball_count(eps, h, N))


@SETTINGS
@given(st.data())
def test_signed_pair_sums_equal_the_explicit_lifting(data):
    u = data.draw(grid_fields("proj", N_choices=(1, 2, 3), dims_max=4))
    rmax = data.draw(st.integers(1, 5))
    signs = np.where(data.draw(hnp.arrays(bool, u.dims)), -1.0, 1.0)
    n = u.with_values(u.values * signs[..., None], "unit")
    for metric in METRICS:
        got = _pair_sums(u, [(metric, signs)], rmax)[1][:, 0]
        want = _pair_sums(n, [(metric, None)], rmax)[1][:, 0]
        assert np.array_equal(got, want), metric
        assert np.array_equal(got, _reference_pair_sums(n, metric, rmax))


@SETTINGS
@given(st.data())
def test_multi_request_pair_sums_equal_single_requests(data):
    kind = data.draw(st.sampled_from(("proj", "unit")))
    u = data.draw(grid_fields(kind, N_choices=(1, 2, 3), dims_max=4))
    rmax = data.draw(st.integers(1, 5))
    requests = _requests(data, u)
    offsets, together = _pair_sums(u, requests, rmax)
    assert together.shape == (len(offsets), len(requests))
    for (metric, signs), got in zip(requests, together.T):
        (want,) = _pair_sums(u, [(metric, signs)], rmax)[1].T
        assert np.array_equal(got, want)
        if signs is None:
            assert np.array_equal(got, _reference_pair_sums(u, metric, rmax))


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


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_mollified_energies_equal_the_reference_loop(data):
    # a single request at a single radius sums one column of terms, where
    # a pairwise sum would move the last bits; radii past the grid count
    # offsets without pairs in the kernel mass
    kind = data.draw(st.sampled_from(("proj", "unit")))
    f = data.draw(grid_fields(kind, N_choices=(1, 2, 3), masked=True))
    h = f.spacing
    ms = sorted(data.draw(st.lists(st.integers(2, 12) | st.floats(2.0, 12.0),
                                   min_size=2, max_size=3, unique=True)))
    requests = _requests(data, f)
    for threads in ("1", "3"):
        with mock.patch.dict(os.environ, {"BVLIFT_THREADS": threads}):
            # a larger ball holds the same offsets in the same order
            offsets, sums = _pair_sums(f, requests, int(ms[-1]) + 1)
            want = [[_loop_mollified_energy(offsets, col, m * h, h, f.N)
                     for m in ms] for col in sums.T]
            reports = _extrapolated_energies(f, requests, ms)
            assert [r.params["energies"] for r in reports] == want, threads
            for (metric, signs), energies in zip(requests, want):
                (rep,) = _extrapolated_energies(f, [(metric, signs)], ms)
                assert rep.params["energies"] == energies, threads
                if signs is None:
                    assert [mollified_energy(f, m * h, metric).total
                            for m in ms] == energies, threads


def _lifting(u, signs):
    """The field s u, sphere valued for a line field u."""
    return u.with_values(u.values * signs[..., None],
                         kind="unit" if u.kind == "proj" else u.kind)


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
                [a.tobytes() for a in _pair_sums(u, requests, rmax)],
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
        want = np.hstack([_pair_sums(u, [r], rmax)[1] for r in requests])
    for threads in ("1", "3"):
        with mock.patch.dict(os.environ, {"BVLIFT_THREADS": threads}):
            got = _pair_sums(u, requests, rmax)[1]
        assert got.tobytes() == want.tobytes(), threads


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
    want = np.column_stack([_reference_pair_sums(u if s is None else n, m, 3)
                            for m, s in requests])
    assert np.array_equal(_pair_sums(u, requests, 3)[1], want)
    for r, w in zip(requests, want.T):
        assert np.array_equal(_pair_sums(u, [r], 3)[1][:, 0], w), r


@pytest.mark.parametrize("u, signs", _flip_cases())
def test_flip_rule_face_data_equal_the_explicit_lifting(u, signs):
    # the face distances of the explicit lifting, summed axis by axis over
    # the overlap's shape, are the pair kernel's sums of the flipped
    # request at the unit offsets
    n = _lifting(u, signs)
    units = [tuple(e) for e in np.eye(u.N, dtype=int).tolist()]
    for metric in _metrics(u.kind, True):
        dists = _face_data(n, metric)[1]
        want = [[float(np.ascontiguousarray(dists[src + (a,)]).sum())]
                for a, src, _ in _forward_faces(u.dims)]
        got = _lattice_sums(u, [(metric, signs)], units)
        assert got.tolist() == want, metric


def test_unsigned_sphere_request_beside_a_projective_one():
    # |a - b| of a rough unit field differs from the projective chord on
    # about half its pairs, which the sphere request patches
    rng = np.random.default_rng(21)
    dims = (7, 6)
    u = GridField(dims, 1.0, (0.0, 0.0), "unit",
                  _normalize(rng.standard_normal(dims + (3,))))
    requests = [("euclidean_tensor", None), ("euclidean_sphere", None),
                ("geodesic", None)]
    got = _pair_sums(u, requests, 4)[1]
    assert np.array_equal(got, np.column_stack(
        [_reference_pair_sums(u, m, 4) for m, _ in requests]))


@pytest.mark.parametrize("metric", ["geodesic", "euclidean_sphere"])
def test_3d_stream_of_candidates_equals_the_explicit_liftings(metric):
    # candidates as the rotation search sends them, boolean signs in one
    # pair-kernel call at the unit offsets, each read as its lifting, as
    # are the same signs given as +-1 floats
    rng = np.random.default_rng(22)
    dims = (6, 5, 4)
    rough = _normalize(rng.standard_normal(dims + (3,)))
    u = GridField(dims, 0.25, (0.0, 0.0, 0.0), "proj", rough,
                  rng.random(dims) < 0.8)
    stream = [lift_sign(r, u.values) for r in random_unit_vectors(3, 4, rng)]
    stream += [rng.choice([-1.0, 1.0], dims) for _ in range(3)]
    want = np.column_stack([_reference_pair_sums(_lifting(u, s), metric, 1)
                            for s in stream])
    for signs in ([s > 0 for s in stream], stream):
        got = _pair_sums(u, [(metric, s) for s in signs], 1)[1]
        assert np.array_equal(got, want)


def test_offsets_past_the_grid_are_not_evaluated():
    # radius 6 on a 5 x 3 grid: most offsets of the half ball have no
    # pair; _pair_sums does not enumerate them, and the kernel given them
    # returns their rows of zeros without a worker getting them
    rng = np.random.default_rng(23)
    u = GridField((5, 3), 1.0, (0.0, 0.0), "proj",
                  _normalize(rng.standard_normal((5, 3, 2))))
    offsets = _half_offsets(2, 6)
    fits = (np.abs(offsets) < u.dims).all(axis=1)
    want = np.zeros(len(offsets))
    want[fits] = _reference_pair_sums(u, "geodesic", 6)
    assert 0 < fits.sum() < len(offsets)
    for threads in ("1", "3"):
        with mock.patch.dict(os.environ, {"BVLIFT_THREADS": threads}), \
                mock.patch.object(fields, "_offset_slices",
                                  wraps=fields._offset_slices) as slices:
            got = _lattice_sums(u, [("geodesic", None)], offsets)[:, 0]
        assert sorted(c.args[0] for c in slices.call_args_list) == \
            offsets[fits].tolist()
        assert np.array_equal(got, want), threads
    pair_offsets, sums = _pair_sums(u, [("geodesic", None)], 6)
    assert np.array_equal(pair_offsets, offsets[fits])
    assert np.array_equal(sums[:, 0], want[fits])
    # with an axis, the row of an empty overlap has that axis's length
    rows = _lattice_sums(u, [("geodesic", None)], [(0, 3), (5, 0)],
                         axes=[0, 0])
    assert [row[0].tolist() for row in rows] == [[0.0] * 5, []]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_one_pair_set_fills_every_row_and_layer_axis(data):
    # offsets k and -k, and repeats, are one pair set evaluated once; each
    # row, whole or by layers along any axis, is the sum from its own
    # offset's slices, and equals a call with that offset alone
    kind = data.draw(st.sampled_from(("proj", "unit")))
    u = data.draw(grid_fields(kind, N_choices=(1, 2, 3), dims_max=4))
    requests = _requests(data, u)
    picks = data.draw(st.lists(st.sampled_from(_half_offsets(u.N, 2).tolist()),
                               min_size=1, max_size=5))  # past the grid too
    offsets = data.draw(st.permutations(
        picks + [[-o for o in k] for k in picks] + picks[:2]))
    axes = [data.draw(st.integers(0, u.N - 1)) for _ in offsets]
    for threads in ("1", "3"):
        with mock.patch.dict(os.environ, {"BVLIFT_THREADS": threads}):
            whole = _lattice_sums(u, requests, offsets)
            layers = _lattice_sums(u, requests, offsets, axes=axes)
            alone = [_lattice_sums(u, requests, [off])[0] for off in offsets]
        for off, axis, row, by_layer, one in zip(offsets, axes, whole, layers,
                                                 alone):
            assert np.array_equal(row, one), (threads, off)
            for (metric, signs), got, got_layers in zip(requests, row,
                                                        by_layer):
                f = u if signs is None else _lifting(u, signs)
                assert got == _reference_offset_sums(f, metric, off)
                assert np.array_equal(got_layers, _reference_offset_sums(
                    f, metric, off, axis)), (threads, off, axis)


@pytest.mark.parametrize("dims, pair_sets", [((5, 4), 4), ((5, 4, 3), 13)])
def test_line_steps_are_evaluated_once_per_pair_set(dims, pair_sets):
    # the step offsets e_a + delta, delta in {-1, 0, 1}^(N-1), of every
    # dominant axis a: 6 in 2D and 27 in 3D, but only 4 and 13 pair sets
    rng = np.random.default_rng(24)
    N = len(dims)
    u = GridField(dims, 0.5, (0.0,) * N, "proj",
                  _normalize(rng.standard_normal(dims + (3,))),
                  rng.random(dims) < 0.8)
    steps = [[*d[:a], 1, *d[a:]] for a in range(N)
             for d in itertools.product((-1, 0, 1), repeat=N - 1)]
    axes = [a for a in range(N) for _ in range(3 ** (N - 1))]
    for threads in ("1", "3"):
        with mock.patch.dict(os.environ, {"BVLIFT_THREADS": threads}), \
                mock.patch.object(fields, "_offset_slices",
                                  wraps=fields._offset_slices) as slices:
            rows = _lattice_sums(u, [("geodesic", None)], steps, axes=axes)
        assert slices.call_count == pair_sets, threads
        for off, axis, (got,) in zip(steps, axes, rows):
            assert np.array_equal(got, _reference_offset_sums(
                u, "geodesic", off, axis)), (threads, off)


def _reference_bytes(f):
    """The field file of f, built without numpy's byte conversions: the
    header line, each value packed by struct in C order, a byte per mask
    cell."""
    header = {"version": 2, "dims": list(f.dims), "spacing": f.spacing,
              "origin": list(f.origin), "d": f.d, "kind": f.kind,
              "mask": "none" if f.mask is None else "inline"}
    values = [float(x) for i in np.ndindex(*f.dims) for x in f.values[i]]
    out = (json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
           ).encode() + struct.pack(f"<{len(values)}d", *values)
    if f.mask is not None:
        out += bytes(1 if f.mask[i] else 0 for i in np.ndindex(*f.dims))
    return out


def _write_and_read(f):
    """The bytes write_field writes for f, and read_field of them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.fld")
        write_field(f, path)
        with open(path, "rb") as fh:
            return fh.read(), read_field(path)


# -0.0, subnormals and the 1e300 scale, next to ordinary components
EXTREME = st.sampled_from((-0.0, 5e-324, -2.5e-310, 1e300,
                           -1.7976931348623157e308, 1.0 / 3.0, -0.1))


@st.composite
def layout_fields(draw):
    """A field of N = 1-3 axes and d = 1-4 components, masked or not, of
    either kind.  Some cells are axis vectors whose other components are
    -0.0 or subnormal (their norm is still exactly 1), and the values may
    be a view that is not C-contiguous."""
    N, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    dims = tuple(draw(st.integers(1, 4)) for _ in range(N))
    cells = math.prod(dims)
    vals = draw(unit_vectors(cells, d)) if d > 1 else np.ones((cells, 1))
    axis = draw(hnp.arrays(bool, cells))
    vals[axis] = draw(hnp.arrays(float, (int(axis.sum()), d), elements=(
        st.sampled_from((0.0, -0.0, 5e-324, -2.5e-310)))))
    vals[axis, draw(st.integers(0, d - 1))] = draw(st.sampled_from((1., -1.)))
    mask = None
    if draw(st.booleans()):
        mask = draw(hnp.arrays(bool, dims))
        mask.flat[draw(st.integers(0, cells - 1))] = True  # never empty
    f = GridField(dims, draw(st.floats(1e-3, 10.0)),
                  tuple(draw(st.floats(-100.0, 100.0)) for _ in range(N)),
                  draw(st.sampled_from(("proj", "unit"))),
                  vals.reshape(dims + (d,)), mask)
    if draw(st.booleans()):  # the same values, a view of a (d, *dims) array
        f.values = np.moveaxis(
            np.ascontiguousarray(np.moveaxis(f.values, -1, 0)), 0, -1)
    return f


@SETTINGS
@given(layout_fields())
def test_field_files_are_the_bytes_of_the_reference_layout(f):
    got, g = _write_and_read(f)
    assert got == _reference_bytes(f)
    # bit for bit, so -0.0 and 0.0 differ
    assert g.values.shape == f.values.shape
    assert g.values.tobytes() == np.ascontiguousarray(f.values).tobytes()
    assert (g.mask is None) == (f.mask is None)
    assert g.mask is None or np.array_equal(g.mask, f.mask)
    assert (g.dims, g.spacing, g.origin, g.kind) == \
        (f.dims, f.spacing, f.origin, f.kind)
    assert _write_and_read(g)[0] == got


@SETTINGS
@given(st.data())
def test_field_files_of_any_double_are_the_bytes_of_the_reference_layout(
        data):
    # the writer packs any double: values past the field checks too
    kind = data.draw(st.sampled_from(("proj", "unit")))
    f = data.draw(grid_fields(kind, N_choices=(1, 2, 3), dims_max=4))
    f.values = data.draw(hnp.arrays(float, f.values.shape, elements=(
        st.floats(allow_nan=False, allow_infinity=False) | EXTREME)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.fld")
        write_field(f, path)
        with open(path, "rb") as fh:
            assert fh.read() == _reference_bytes(f)


def test_large_field_files_are_the_bytes_of_the_reference_layout():
    # thousands of cells: one axis, unmasked and masked, and a masked 3D
    # field, all given as transposed views; the bytes also round-trip
    rng = np.random.default_rng(5)
    for dims, masked in (((4096,), False), ((4097,), True),
                         ((17, 16, 31), True)):
        vals = rng.standard_normal((3,) + dims)
        vals = np.moveaxis(vals / np.linalg.norm(vals, axis=0), 0, -1)
        mask = rng.random(dims) < 0.7 if masked else None
        f = GridField(dims, 0.1, (0.0,) * len(dims), "unit", vals, mask)
        assert not f.values.flags.c_contiguous
        got, g = _write_and_read(f)
        assert got == _reference_bytes(f)
        assert g.values.tobytes() == f.values.tobytes()
        assert masked == (g.mask is not None)
        assert not masked or np.array_equal(g.mask, f.mask)


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
    """The directional energy at the one direction omega, line by line, and
    its number of pairs: the line of intercept b visits the transverse cell
    b + rint(k s) in layer k along the dominant axis a, s the slopes over
    omega_a, and the distances of its in-mask pairs are summed by
    math.fsum."""
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
            got = avg_directional_energy(f, metric=metric,
                                         omegas=[omega]).total
            want, n = _reference_directional_tv(f, omega, metric)
            assert abs(got - want) <= (n + 2) * 2.0 ** -53 * want, (
                omega, metric, got, want)
