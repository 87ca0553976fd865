import filecmp
from unittest import mock

import numpy as np
import pytest

from bvlift import fields
from bvlift.constants import k_const
from bvlift.fields import (GridField, UnderResolvedError, _chord_rule,
                           _energy_from_pair_sums, _face_data, _pair_sums, _thread_count,
                           avg_directional_energy, default_jump_threshold,
                           directional_tv, embedded_tv,
                           mollified_energy, mollified_energy_extrapolated,
                           read_field, write_field)
from bvlift.geometry import chord, chord_distance
from bvlift.lifting import lift_greedy_1d, lift_rotation_search
from bvlift.verify import make_half_vortex, make_half_vortex_lifting

K2 = k_const(2).value


def angle_field(grid, angle_fn, box=((0.0, 1.0), (0.0, 1.0)), kind="proj",
                mask=None):
    (x0, x1), (y0, y1) = box
    h = (x1 - x0) / grid
    gy = int(round((y1 - y0) / h))
    cx = x0 + (np.arange(grid) + 0.5) * h
    cy = y0 + (np.arange(gy) + 0.5) * h
    X, Y = np.meshgrid(cx, cy, indexing="ij")
    g = angle_fn(X, Y)
    vals = np.stack([np.cos(g), np.sin(g)], axis=-1)
    return GridField((grid, gy), h, (x0, y0), kind, vals, mask)


def constant_field(grid=32, d=2, kind="proj"):
    vals = np.zeros((grid, grid, d))
    vals[..., 0] = 1.0
    return GridField((grid, grid), 1.0 / grid, (0.0, 0.0), kind, vals)


def jump_field(grid=128):
    return angle_field(grid, lambda X, Y: np.where(X < 0, 0.0, np.pi / 2),
                       box=((-0.5, 0.5), (-0.5, 0.5)))


class TestGridField:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridField((4, 4), 0.0, (0, 0), "proj", np.zeros((4, 4, 2)))
        for kind in ("nope", "vector"):
            with pytest.raises(ValueError, match="unknown field kind"):
                GridField((4, 4), 0.1, (0, 0), kind, np.ones((4, 4, 1)))
        with pytest.raises(ValueError):
            GridField((4, 4), 0.1, (0, 0), "unit", np.zeros((4, 4, 2)))
        with pytest.raises(ValueError):
            GridField((4, 4), 0.1, (0, 0), "proj", np.ones((3, 4, 2)))
        nan = np.zeros((4, 4, 2))
        nan[..., 0] = 1.0
        nan[1, 2] = np.nan
        for kind in ("proj", "unit"):
            with pytest.raises(ValueError, match="finite"):
                GridField((4, 4), 0.1, (0, 0), kind, nan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spacing_or_origin(self, bad):
        vals = np.zeros((4, 4, 2))
        vals[..., 0] = 1.0
        with pytest.raises(ValueError, match="finite"):
            GridField((4, 4), bad, (0, 0), "proj", vals)
        with pytest.raises(ValueError, match="finite"):
            GridField((4, 4), 0.1, (0, bad), "proj", vals)

    def test_proj_values_are_canonicalized(self):
        vals = np.zeros((2, 2, 2))
        vals[..., 0] = -1.0
        f = GridField((2, 2), 0.5, (0, 0), "proj", vals)
        assert np.all(f.values[..., 0] == 1.0)


class TestFieldFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        u = make_half_vortex(64)
        p1 = tmp_path / "a.fld"
        p2 = tmp_path / "b.fld"
        write_field(u, p1)
        u2 = read_field(p1)
        write_field(u2, p2)
        assert filecmp.cmp(p1, p2, shallow=False)
        assert np.array_equal(u.values, u2.values)
        assert np.array_equal(u.mask, u2.mask)
        assert u2.spacing == u.spacing and u2.origin == u.origin

    def test_round_trip_without_mask(self, tmp_path):
        f = constant_field(8)
        p = tmp_path / "c.fld"
        write_field(f, p)
        g = read_field(p)
        assert g.mask is None
        assert np.array_equal(f.values, g.values)

    def test_exact_bytes(self, tmp_path):
        vals = np.array([[1.0, -0.0], [0.6, 0.8], [0.0, 1.0]])
        f = GridField((3,), 0.5, (-0.25,), "unit", vals, [True, False, True])
        p = tmp_path / "small.fld"
        write_field(f, p)
        assert p.read_bytes() == (
            b'{"d":2,"dims":[3],"kind":"unit","mask":"inline",'
            b'"origin":[-0.25],"spacing":0.5,"version":1}\n'
            b"1,-0,1\n"
            b"0.59999999999999998,0.80000000000000004,0\n"
            b"0,1,1\n")

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.fld"
        p.write_text("not json\n1,0\n")
        with pytest.raises(ValueError):
            read_field(p)

    @pytest.mark.parametrize("key, value", [
        ("dims", '["2","2"]'), ("dims", "4"), ("dims", "[-2,-2]"),
        ("dims", "[2,0]"), ("dims", "[]"), ("dims", "[true,true]"),
        ("dims", "[2.0,2]"), ("mask", '"yes"'), ("mask", "null"),
        ("d", "2.7"), ("d", "true"), ("d", "0"), ("d", '"2"'),
        ("version", "true"), ("version", "1.0"), ("version", "2"),
        ("spacing", '"0.0625"'), ("spacing", "true"), ("spacing", "null"),
        ("origin", "[0]"), ("origin", '[0,"0"]'), ("origin", "[false,0]"),
        ("origin", "0")])
    def test_malformed_dims_or_mask(self, tmp_path, key, value):
        header = {"d": "2", "dims": "[2,2]", "kind": '"proj"',
                  "mask": '"none"', "origin": "[0,0]", "spacing": "0.5",
                  "version": "1", key: value}
        p = tmp_path / "bad.fld"
        p.write_text("{" + ",".join(f'"{k}":{v}' for k, v in header.items())
                     + "}\n" + "1,0\n" * 4)
        with pytest.raises(ValueError, match=f"field {key}"):
            read_field(p)

    @pytest.mark.parametrize("value", ["0.5", "2", "-3", "nan"])
    def test_mask_column_other_than_0_or_1(self, tmp_path, value):
        p = tmp_path / "mask.fld"
        p.write_text('{"d":2,"dims":[2],"kind":"proj","mask":"inline",'
                     f'"origin":[0],"spacing":0.5,"version":1}}\n'
                     f"1,0,1\n1,0,{value}\n")
        with pytest.raises(ValueError, match="field mask"):
            read_field(p)

    def test_wrong_cell_count(self, tmp_path):
        p = tmp_path / "short.fld"
        p.write_text('{"d":2,"dims":[2,2],"kind":"proj","mask":"none",'
                     '"origin":[0,0],"spacing":0.5,"version":1}\n1,0\n1,0\n')
        with pytest.raises(ValueError):
            read_field(p)


class TestMollified:
    def test_constant_field_is_zero(self):
        f = constant_field(32)
        rep = mollified_energy(f, 8 * f.spacing, "geodesic")
        assert rep.total == 0.0

    def test_under_resolved_eps_raises(self):
        f = constant_field(32)
        with pytest.raises(UnderResolvedError, match="under-resolved"):
            mollified_energy(f, f.spacing, "geodesic")
        with pytest.raises(UnderResolvedError, match="under-resolved"):
            mollified_energy_extrapolated(f, "geodesic", (1, 8))

    def test_empty_mask_raises(self):
        # no field has an empty domain, so no estimator or lifting meets one
        f = constant_field(8)
        with pytest.raises(ValueError, match="empty mask"):
            GridField(f.dims, f.spacing, f.origin, "proj", f.values,
                      np.zeros(f.dims, bool))
        with pytest.raises(ValueError, match="empty mask"):  # no cells
            GridField((0, 8), f.spacing, f.origin, "proj", np.zeros((0, 8, 2)))
        one = np.zeros(f.dims, bool)
        one[3, 5] = True
        g = GridField(f.dims, f.spacing, f.origin, "proj", f.values, one)
        assert mollified_energy(g, 2 * f.spacing).total == 0.0
        assert embedded_tv(g, "geodesic").total == 0.0
        assert lift_rotation_search(g, trials=2).projection_check == 0.0

    def test_radius_past_the_grid(self):
        # offsets reaching past the grid have no pairs: their sums are
        # exactly 0 and the others are those of a radius inside the grid
        f = angle_field(12, lambda X, Y: 1.2 * X + 0.4 * Y)
        (inner,) = _pair_sums(f, [("geodesic", None)], 11)
        (sums,) = _pair_sums(f, [("geodesic", None)], 32)
        assert {off: s for off, s in sums.items() if off in inner} == inner
        assert all(s == 0.0 for off, s in sums.items()
                   if max(map(abs, off)) >= 12)
        assert np.isfinite(mollified_energy_extrapolated(f, "geodesic").total)

    @pytest.mark.parametrize("ratio", [8.5, 8.9])
    def test_non_integer_radius_sums_the_whole_ball(self, ratio):
        # the offsets with 8 < |k| <= eps/h count too
        f = angle_field(128, lambda X, Y: 1.2 * X)
        h = f.spacing
        (sums,) = _pair_sums(f, [("geodesic", None)], 9)
        got = mollified_energy(f, ratio * h, "geodesic").total
        assert got == _energy_from_pair_sums(sums, ratio * h, h, 2)
        assert got != mollified_energy(f, 8 * h, "geodesic").total

    def test_non_integer_largest_multiplier(self):
        f = angle_field(128, lambda X, Y: 1.2 * X)
        h = f.spacing
        (sums,) = _pair_sums(f, [("geodesic", None)], 9)
        rep = mollified_energy_extrapolated(f, "geodesic", (4, 8.5))
        assert rep.params["energies"] == [
            _energy_from_pair_sums(sums, m * h, h, 2) for m in (4, 8.5)]
        assert rep.params["energies"][1] != mollified_energy(
            f, 8 * h, "geodesic").total

    def test_one_dimensional_jump(self):
        # exact 1D TV oracle: a single projective jump of angle pi/2 has
        # total variation pi/2 regardless of the mollifier, as eps -> 0
        m = 256
        h = 1.0 / m
        x = (np.arange(m) + 0.5) * h
        g = np.where(x < 0.5, 0.0, np.pi / 2)
        vals = np.stack([np.cos(g), np.sin(g)], axis=-1)
        f = GridField((m,), h, (0.0,), "proj", vals)
        rep = mollified_energy_extrapolated(f, "geodesic", (4, 8, 16))
        assert rep.total == pytest.approx(np.pi / 2, rel=0.05)

    def test_half_vortex_geodesic(self):
        u = make_half_vortex(128)
        rep = mollified_energy_extrapolated(u, "geodesic")
        assert rep.total == pytest.approx(K2 * np.pi, rel=0.05)

    def test_interior_jump_is_exact_in_1d(self):
        # discrete kernel normalization makes an interior 1D jump exact
        m = 64
        h = 1.0 / m
        x = (np.arange(m) + 0.5) * h
        g = np.where(x < 0.5, 0.0, np.pi / 4)
        vals = np.stack([np.cos(g), np.sin(g)], axis=-1)
        f = GridField((m,), h, (0.0,), "proj", vals)
        rep = mollified_energy(f, 8 * h, "geodesic")
        assert rep.total == pytest.approx(np.pi / 4, rel=1e-12)


class TestDirectional:
    def test_constant_zero(self):
        f = constant_field(32)
        for w in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8]):
            assert directional_tv(f, np.array(w), "geodesic") == 0.0

    def test_axis_jump_exact(self):
        f = jump_field(128)
        tv = directional_tv(f, np.array([1.0, 0.0]), "geodesic")
        assert tv == pytest.approx(np.pi / 2, abs=1e-12)

    def test_transverse_direction_zero(self):
        f = jump_field(128)
        assert directional_tv(f, np.array([0.0, 1.0]), "geodesic") == 0.0

    def test_oblique_direction(self):
        f = jump_field(256)
        w = np.array([np.cos(0.5), np.sin(0.5)])
        tv = directional_tv(f, w, "geodesic")
        assert tv == pytest.approx(np.cos(0.5) * np.pi / 2, rel=0.02)

    def test_average_jump_field(self):
        f = jump_field(128)
        rep = avg_directional_energy(f, directions=64, seed=5,
                                     metric="geodesic")
        assert rep.total == pytest.approx(K2 * np.pi / 2, rel=0.03)

    def test_average_smooth_slope_field(self):
        s = 1.3
        f = angle_field(128, lambda X, Y: s * X)
        rep = avg_directional_energy(f, directions=64, seed=6,
                                     metric="geodesic")
        assert rep.total == pytest.approx(K2 * s, rel=0.03)

    def test_one_dimensional_average(self):
        m = 128
        h = 1.0 / m
        x = (np.arange(m) + 0.5) * h
        g = np.where(x < 0.5, 0.0, np.pi / 3)
        vals = np.stack([np.cos(g), np.sin(g)], axis=-1)
        f = GridField((m,), h, (0.0,), "proj", vals)
        rep = avg_directional_energy(f, metric="geodesic")
        assert rep.total == pytest.approx(np.pi / 3, abs=1e-12)  # K_1 = 1

    def test_metric_monotonicity_projective_below_sphere(self):
        # projection is 1-Lipschitz: proj TV <= sphere TV of any lifting
        n = make_half_vortex_lifting(64)
        u = make_half_vortex(64)
        rng = np.random.default_rng(7)
        for _ in range(5):
            w = rng.standard_normal(2)
            w /= np.linalg.norm(w)
            tv_u = directional_tv(u, w, "geodesic")
            tv_n = directional_tv(n, w, "geodesic")
            assert tv_u <= tv_n + 1e-12

    def test_empty_mask_raises(self, tmp_path):
        # a field file whose mask column is all 0 is rejected on reading
        p = tmp_path / "empty.fld"
        p.write_text('{"d":2,"dims":[2],"kind":"proj","mask":"inline",'
                     '"origin":[0],"spacing":0.5,"version":1}\n'
                     "1,0,0\n0,1,0\n")
        with pytest.raises(ValueError, match="empty mask"):
            read_field(p)

    @pytest.mark.parametrize("omega", [
        [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]])
    def test_zero_or_non_finite_omega_raises(self, omega):
        with pytest.raises(ValueError, match="finite and nonzero"):
            directional_tv(jump_field(16), np.array(omega), "geodesic")

    def test_empty_omegas_raise(self):
        with pytest.raises(ValueError, match="at least one"):
            avg_directional_energy(jump_field(16), omegas=np.zeros((0, 2)))


class TestEmbedded:
    def test_constant_zero(self):
        rep = embedded_tv(constant_field(32), "euclidean_tensor")
        assert rep.total == 0.0 and rep.ac_part == 0.0 and rep.jump_part == 0.0

    def test_half_vortex_tensor(self):
        u = make_half_vortex(256)
        rep = embedded_tv(u, "euclidean_tensor")
        assert rep.total == pytest.approx(np.pi, rel=0.03)
        assert rep.jump_part == 0.0  # the embedded field is continuous

    def test_sphere_jump_two(self):
        grid = 128
        h = 1.0 / grid
        c = (np.arange(grid) + 0.5) * h - 0.5
        X, _ = np.meshgrid(c, c, indexing="ij")
        vals = np.where((X < 0)[..., None], [1.0, 0.0], [-1.0, 0.0])
        f = GridField((grid, grid), h, (-0.5, -0.5), "unit", vals)
        rep = embedded_tv(f, "euclidean_sphere")
        assert rep.total == pytest.approx(2.0, rel=0.03)
        assert rep.ac_part == 0.0

    def test_decomposition_is_consistent(self):
        n = make_half_vortex_lifting(128)
        rep = embedded_tv(n, "euclidean_sphere")
        assert rep.total == pytest.approx(rep.ac_part + rep.jump_part,
                                          abs=1e-9)
        assert rep.ac_part >= 0 and rep.jump_part > 0

    def test_rough_field_threshold_not_below_floor(self):
        # a random walk with 0.6 rad steps: 8 x the median step angle
        # exceeds pi/2, where the tensor distance sin(theta) falls again
        rng = np.random.default_rng(3)
        g = (np.cumsum(0.6 * rng.standard_normal((32, 1)), axis=0)
             + np.cumsum(0.6 * rng.standard_normal((1, 32)), axis=1))
        vals = np.stack([np.cos(g), np.sin(g)], axis=-1)
        for kind, metric in (("proj", "geodesic"),
                             ("proj", "euclidean_tensor"),
                             ("unit", "geodesic"),
                             ("unit", "euclidean_sphere"),
                             ("unit", "euclidean_tensor")):
            f = GridField((32, 32), 1.0 / 32, (0.0, 0.0), kind, vals)
            rep = embedded_tv(f, metric)
            assert rep.params["jump_threshold"] >= default_jump_threshold(
                metric), (kind, metric)

    def test_proj_field_rejects_sphere_metric(self):
        with pytest.raises(ValueError):
            embedded_tv(constant_field(8), "euclidean_sphere")

    def test_lifted_half_vortex_ratio(self):
        # axis-aligned seam: (ac + jump)/(tensor total) ~ 1 + 2/pi
        u = make_half_vortex(256)
        n = make_half_vortex_lifting(256)
        e_n = embedded_tv(n, "euclidean_sphere")
        e_u = embedded_tv(u, "euclidean_tensor")
        assert e_n.total / e_u.total == pytest.approx(1 + 2 / np.pi, rel=0.02)


def einsum_ac_part(f, metric, threshold):
    """The smooth part of :func:`embedded_tv` with its Frobenius norms summed
    by ``np.einsum``, from the face data of f."""
    valid, dists, chords, proj = next(_face_data(f, metric))
    steps = chord_distance(chords, "euclidean_tensor") if proj else chords
    isjump = valid & (dists > threshold)
    near_jump = np.zeros(f.dims, dtype=bool)
    for a in range(f.N):
        lo = tuple(slice(0, -1) if c == a else slice(None)
                   for c in range(f.N))
        hi = tuple(slice(1, None) if c == a else slice(None)
                   for c in range(f.N))
        near_jump[lo] |= isjump[lo + (a,)]
        near_jump[hi] |= isjump[lo + (a,)]
    frob = np.sqrt(np.einsum("...a,...a->...", steps, steps))
    keep = valid.any(axis=-1) & ~near_jump
    return float((f.spacing ** (f.N - 1) * frob)[keep].sum())


@pytest.mark.parametrize("N", [1, 2, 3])
def test_ac_part_equals_an_einsum_reference(N):
    rng = np.random.default_rng(50 + N)
    dims = (40, 9, 7)[:N]
    # smooth: a sum of one random walk along each axis
    g = sum(np.cumsum(0.1 * rng.standard_normal(n), axis=0).reshape(
        [n if c == a else 1 for c in range(N)]) for a, n in enumerate(dims))
    g = g + 1.4 * (rng.random(dims) < 0.05)  # cells across jump faces
    vals = np.stack([np.cos(g), np.sin(g), 0.0 * g], axis=-1)
    mask = rng.random(dims) < 0.9
    mask.flat[0] = True
    for kind, metric in (("proj", "geodesic"), ("proj", "euclidean_tensor"),
                         ("unit", "euclidean_sphere")):
        f = GridField(dims, 0.1, (0.0,) * N, kind, vals, mask)
        rep = embedded_tv(f, metric)
        assert rep.params["jump_faces"] > 0, (kind, metric)  # cells left out
        assert rep.ac_part == einsum_ac_part(
            f, metric, rep.params["jump_threshold"]), (kind, metric)


def test_ac_part_of_one_corner_cell_equals_its_einsum_norm():
    # the corner cell is the one owner of a valid face, so the smooth part
    # is its Frobenius norm alone, where a summation order of the three
    # squares other than einsum's shows
    rng = np.random.default_rng(60)
    mask = np.zeros((2, 2, 2), dtype=bool)
    mask[0, 0, 0] = mask[1, 0, 0] = mask[0, 1, 0] = mask[0, 0, 1] = True
    for _ in range(100):
        vals = [1.0, 0.0, 0.0] + 0.3 * rng.standard_normal((2, 2, 2, 3))
        vals /= np.linalg.norm(vals, axis=-1, keepdims=True)
        f = GridField((2, 2, 2), 1.0, (0.0,) * 3, "unit", vals, mask)
        rep = embedded_tv(f, "euclidean_sphere", jump_threshold=3.0)
        assert rep.ac_part == einsum_ac_part(f, "euclidean_sphere", 3.0)


class TestDetectJumps:
    """The jump threshold by which embedded_tv counts its jump faces."""

    def test_threshold_validation(self):
        for threshold in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                embedded_tv(constant_field(8), "geodesic", threshold)

    def test_default_thresholds(self):
        assert default_jump_threshold("geodesic") == pytest.approx(np.pi / 4)
        assert default_jump_threshold("euclidean_sphere") == pytest.approx(
            2 * np.sin(np.pi / 8))
        assert default_jump_threshold("euclidean_tensor") == pytest.approx(
            np.sin(np.pi / 4))


class TestScaling:
    def test_jump_energy_scales_with_area(self):
        # dilating the domain scales jump energies by lambda^{N-1}
        f1 = jump_field(64)
        lam = 3.0
        f2 = GridField(f1.dims, lam * f1.spacing,
                       tuple(lam * o for o in f1.origin), "proj", f1.values)
        for metric in ("geodesic", "euclidean_tensor"):
            e1 = embedded_tv(f1, metric).total
            e2 = embedded_tv(f2, metric).total
            assert e2 == pytest.approx(lam * e1, rel=1e-12)
            t1 = directional_tv(f1, np.array([1.0, 0.0]), metric)
            t2 = directional_tv(f2, np.array([1.0, 0.0]), metric)
            assert t2 == pytest.approx(lam * t1, rel=1e-12)

    def test_smooth_profile_scales_the_same_way(self):
        # fixed index-space profile: integral of the gradient also picks up
        # exactly lambda^{N-1} = h^N (1/h) scaling
        f1 = angle_field(64, lambda X, Y: 1.1 * X)
        lam = 2.0
        f2 = GridField(f1.dims, lam * f1.spacing,
                       tuple(lam * o for o in f1.origin), "proj", f1.values)
        e1 = embedded_tv(f1, "euclidean_tensor").total
        e2 = embedded_tv(f2, "euclidean_tensor").total
        assert e2 == pytest.approx(lam * e1, rel=1e-12)

    def test_mollified_scales_with_proportional_eps(self):
        f1 = jump_field(64)
        lam = 2.0
        f2 = GridField(f1.dims, lam * f1.spacing,
                       tuple(lam * o for o in f1.origin), "proj", f1.values)
        e1 = mollified_energy(f1, 8 * f1.spacing, "geodesic").total
        e2 = mollified_energy(f2, 8 * f2.spacing, "geodesic").total
        assert e2 == pytest.approx(lam * e1, rel=1e-12)


class TestPairKernelThreads:
    def test_one_thread_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setenv("BVLIFT_THREADS", "1")
        monkeypatch.setattr(fields, "ThreadPoolExecutor", no_pool)
        f = jump_field(16)
        assert directional_tv(f, np.array([0.6, 0.8])) > 0.0
        assert avg_directional_energy(f, directions=8).total > 0.0
        assert mollified_energy(f, 4 * f.spacing).total > 0.0

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_one_cell_interval_has_no_offsets(self, monkeypatch, threads):
        # no line step exists, so the kernel gets an empty offset list
        monkeypatch.setenv("BVLIFT_THREADS", threads)
        u = GridField((1,), 1.0, (0.0,), "proj", [[0.6, 0.8]])
        assert avg_directional_energy(u).total == 0.0
        assert lift_greedy_1d(u).energy.total == 0.0

    def test_directions_of_every_dominant_axis_share_one_kernel_call(self):
        u = make_half_vortex(32, d=3, N=3)
        omegas = np.eye(3) + 0.3  # dominant axes 0, 1 and 2
        with mock.patch.object(fields, "_lattice_sums",
                               wraps=fields._lattice_sums) as kernel:
            rep = avg_directional_energy(u, omegas=omegas)
        assert kernel.call_count == 1
        assert sorted(set(kernel.call_args.kwargs["axes"])) == [0, 1, 2]
        assert rep.total == pytest.approx(np.mean(
            [directional_tv(u, w) for w in omegas]), rel=1e-15)


class TestMetricDispatch:
    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            _chord_rule("l1", "unit")
        with pytest.raises(ValueError):
            chord_distance(1.0, "l1")

    def test_proj_chord_is_min_over_signs(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((64, 3))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        b = rng.standard_normal((64, 3))
        b /= np.linalg.norm(b, axis=-1, keepdims=True)
        q = chord_distance(chord(a, b, True), "euclidean_sphere")
        direct = np.minimum(np.linalg.norm(a - b, axis=-1),
                            np.linalg.norm(a + b, axis=-1))
        assert np.allclose(q, direct, atol=1e-12)

    def test_thread_count_below_one_rejected(self, monkeypatch):
        # the kernel reads the variable; run_identity_suite passes a count
        f = jump_field(16)
        for threads in (0, -2):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                _thread_count(threads)
            monkeypatch.setenv("BVLIFT_THREADS", str(threads))
            with pytest.raises(ValueError, match="BVLIFT_THREADS must be an "
                               "integer >= 1"):
                _pair_sums(f, [("geodesic", None)], 2)
