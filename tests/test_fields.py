import filecmp
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from bvlift import fields
from bvlift.constants import k_const
from bvlift.fields import (GridField, UnderResolvedError, _chord_rule,
                           _face_data, _pair_sums, _thread_count,
                           avg_directional_energy, default_jump_threshold,
                           embedded_tv, mollified_energy,
                           mollified_energy_extrapolated, read_field,
                           write_field)
from bvlift.geometry import chord, chord_distance
from bvlift.lifting import lift_greedy_1d, lift_rotation_search
from bvlift.verify import (make_field, make_half_vortex,
                          make_half_vortex_lifting)
from test_properties import _loop_mollified_energy

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


def write_raw_field(path, header, values, mask=None):
    """Write a field file by hand: the header line as given, then the
    values as little-endian float64 and the mask bytes, unchecked."""
    body = np.asarray(values, "<f8").tobytes()
    path.write_bytes(header.encode() + b"\n" + body
                     + (b"" if mask is None else bytes(mask)))


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

    @pytest.mark.parametrize("N, spacing", [
        (2, 1e308), (2, 1e200), (2, 1e100), (2, 1e78), (2, 1e-77),
        (2, 1e-100), (2, 1e-200), (2, 1e-300), (3, 1e60), (1, 1e155)])
    def test_spacing_whose_2n_th_power_is_no_normal_float(self, N, spacing):
        # the check runs in Python floats, so no numpy overflow warning (an
        # error here) comes
        vals = np.zeros((2,) * N + (2,))
        vals[..., 0] = 1.0
        with pytest.raises(ValueError, match=re.escape(
                f"spacing {spacing} out of range: spacing^{2 * N} is not a "
                f"normal float in {N}D")):
            GridField((2,) * N, spacing, (0,) * N, "proj", vals)

    @pytest.mark.parametrize("N, spacing", [
        (2, 1e77), (2, 1.3e-77), (3, 1e51), (3, 1e-51), (1, 1e154)])
    def test_spacing_inside_the_range_is_a_field(self, N, spacing):
        vals = np.zeros((2,) * N + (2,))
        vals[..., 0] = 1.0
        assert GridField((2,) * N, spacing, (0,) * N, "proj",
                         vals).spacing == spacing

    def test_overflowing_norm_is_rejected_without_a_warning(self):
        vals = np.zeros((4, 4, 2))
        vals[..., 0] = 1.0
        vals[1, 2, 1] = 1e200
        with pytest.raises(ValueError, match="norm 1"):
            GridField((4, 4), 0.25, (0, 0), "proj", vals)

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
            b'"origin":[-0.25],"spacing":0.5,"version":2}\n'
            + bytes.fromhex("000000000000f03f" "0000000000000080"  # 1, -0
                            "333333333333e33f" "9a9999999999e93f"  # .6, .8
                            "0000000000000000" "000000000000f03f"  # 0, 1
                            "010001"))  # the mask

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.fld"
        p.write_text("not json\n1,0\n")
        with pytest.raises(ValueError):
            read_field(p)

    @pytest.mark.parametrize("header", ["1", "[]", "null", '"version"'])
    def test_header_not_an_object(self, tmp_path, header):
        p = tmp_path / "bad.fld"
        write_raw_field(p, header, [1.0, 0.0])
        with pytest.raises(ValueError, match="JSON object"):
            read_field(p)

    @pytest.mark.parametrize("key, value", [
        ("dims", '["2","2"]'), ("dims", "4"), ("dims", "[-2,-2]"),
        ("dims", "[2,0]"), ("dims", "[]"), ("dims", "[true,true]"),
        ("dims", "[2.0,2]"), ("mask", '"yes"'), ("mask", "null"),
        ("d", "2.7"), ("d", "true"), ("d", "0"), ("d", '"2"'),
        ("version", "true"), ("version", "1.0"), ("version", "1"),
        ("spacing", '"0.0625"'), ("spacing", "true"), ("spacing", "null"),
        ("origin", "[0]"), ("origin", '[0,"0"]'), ("origin", "[false,0]"),
        ("origin", "0")])
    def test_malformed_dims_or_mask(self, tmp_path, key, value):
        header = {"d": "2", "dims": "[2,2]", "kind": '"proj"',
                  "mask": '"none"', "origin": "[0,0]", "spacing": "0.5",
                  "version": "2", key: value}
        p = tmp_path / "bad.fld"
        # the body of the default header, so only the bad key is wrong
        write_raw_field(p, "{" + ",".join(f'"{k}":{v}'
                                          for k, v in header.items()) + "}",
                        [1.0, 0.0] * 4)
        with pytest.raises(ValueError, match=f"field {key}"):
            read_field(p)

    @pytest.mark.parametrize("value", [2, 3, 128, 255])
    def test_mask_column_other_than_0_or_1(self, tmp_path, value):
        p = tmp_path / "mask.fld"
        write_raw_field(p, '{"d":2,"dims":[2],"kind":"proj","mask":"inline",'
                        '"origin":[0],"spacing":0.5,"version":2}',
                        [1.0, 0.0, 1.0, 0.0], [1, value])
        with pytest.raises(ValueError, match=f"field mask.* got {value}"):
            read_field(p)

    def test_wrong_cell_count(self, tmp_path):
        p = tmp_path / "short.fld"
        write_raw_field(p, '{"d":2,"dims":[2,2],"kind":"proj","mask":"none",'
                        '"origin":[0,0],"spacing":0.5,"version":2}',
                        [1.0, 0.0] * 2)
        with pytest.raises(ValueError, match="field body has 32 bytes, "
                           "expected 64"):
            read_field(p)

    def test_unit_values_are_a_read_only_view(self, tmp_path):
        # fields are immutable: a unit file's values view its body
        p = tmp_path / "u.fld"
        write_field(constant_field(4, kind="unit"), p)
        with pytest.raises(ValueError, match="read-only"):
            read_field(p).values[0, 0, 0] = 0.0


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
        # offsets reaching past the grid have no pairs and are not
        # enumerated; the others are those of a radius inside the grid
        f = angle_field(12, lambda X, Y: 1.2 * X + 0.4 * Y)
        inner_offsets, inner = _pair_sums(f, [("geodesic", None)], 11)
        offsets, sums = _pair_sums(f, [("geodesic", None)], 32)
        within = (offsets * offsets).sum(axis=1) <= 11 * 11
        assert np.array_equal(offsets[within], inner_offsets)
        assert np.array_equal(sums[within], inner)
        assert np.abs(offsets).max() < 12
        assert np.isfinite(mollified_energy_extrapolated(f, "geodesic").total)

    def test_one_cell_grid_is_zero(self):
        # no offset has a pair, and the ball still has its mass
        for N in (1, 2, 3):
            f = GridField((1,) * N, 0.5, (0.0,) * N, "proj",
                          np.full((1,) * N + (2,), np.sqrt(0.5)))
            assert mollified_energy(f, 2 * f.spacing).total == 0.0
            rep = mollified_energy_extrapolated(f, "geodesic", (2, 5.5))
            assert rep.params["energies"] == [0.0, 0.0]

    def test_large_radius_in_bounded_memory(self):
        # the offsets past the grid are never built: the whole half ball
        # of 1000 cells, 1.57 million offsets, would peak near 200 MB
        f = make_field("smooth", 32)
        tracemalloc.start()
        try:
            rep = mollified_energy_extrapolated(f, "geodesic", (2, 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert np.isfinite(rep.total)

    def test_radius_past_the_countable_ball_raises(self):
        # counting the lattice ball takes about (eps/h)^(N-1) steps
        cube = GridField((3, 3, 3), 0.5, (0.0,) * 3, "unit",
                         np.broadcast_to([0.0, 1.0], (3, 3, 3, 2)))
        for f, ratio in ((make_field("smooth", 8), 2.0 ** 20 * 1.001),
                         (cube, 1025)):
            with pytest.raises(ValueError, match="largest ball counted"):
                mollified_energy(f, ratio * f.spacing)

    @pytest.mark.parametrize("ratio", [8.5, 8.9])
    def test_non_integer_radius_sums_the_whole_ball(self, ratio):
        # the offsets with 8 < |k| <= eps/h count too
        f = angle_field(128, lambda X, Y: 1.2 * X)
        h = f.spacing
        offsets, sums = _pair_sums(f, [("geodesic", None)], 9)
        got = mollified_energy(f, ratio * h, "geodesic").total
        assert got == _loop_mollified_energy(offsets, sums[:, 0], ratio * h,
                                             h, 2)
        assert got != mollified_energy(f, 8 * h, "geodesic").total

    def test_non_integer_largest_multiplier(self):
        f = angle_field(128, lambda X, Y: 1.2 * X)
        h = f.spacing
        offsets, sums = _pair_sums(f, [("geodesic", None)], 9)
        rep = mollified_energy_extrapolated(f, "geodesic", (4, 8.5))
        assert rep.params["energies"] == [_loop_mollified_energy(
            offsets, sums[:, 0], m * h, h, 2) for m in (4, 8.5)]
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
            assert avg_directional_energy(f, omegas=[w]).total == 0.0

    def test_axis_jump_exact(self):
        f = jump_field(128)
        tv = avg_directional_energy(f, omegas=[[1.0, 0.0]]).total
        assert tv == pytest.approx(np.pi / 2, abs=1e-12)

    def test_transverse_direction_zero(self):
        f = jump_field(128)
        assert avg_directional_energy(f, omegas=[[0.0, 1.0]]).total == 0.0

    def test_oblique_direction(self):
        f = jump_field(256)
        w = np.array([np.cos(0.5), np.sin(0.5)])
        tv = avg_directional_energy(f, omegas=[w]).total
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

    @pytest.mark.parametrize("directions, seed", [(4, 0), (64, 5), (96, 2)])
    def test_planar_directions_are_distinct_lines(self, directions, seed):
        # angles (k + r) pi / D: no direction is another one reversed
        f = jump_field(64)
        phi = ((np.arange(directions) + np.random.default_rng(seed).random())
               / directions * np.pi)
        omegas = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        rep = avg_directional_energy(f, directions=directions, seed=seed)
        ref = avg_directional_energy(f, omegas=omegas)
        assert (rep.total, rep.params) == (ref.total, ref.params)

    def test_one_dimensional_average(self):
        m = 128
        h = 1.0 / m
        x = (np.arange(m) + 0.5) * h
        g = np.where(x < 0.5, 0.0, np.pi / 3)
        vals = np.stack([np.cos(g), np.sin(g)], axis=-1)
        f = GridField((m,), h, (0.0,), "proj", vals)
        rep = avg_directional_energy(f, metric="geodesic")
        assert rep.total == pytest.approx(np.pi / 3, abs=1e-12)  # K_1 = 1
        # both elements of S^0, in any length, give the one restriction
        for omega in ([1.0], [-1.0], [2.5]):
            assert avg_directional_energy(f, omegas=[omega]).total == rep.total

    def test_metric_monotonicity_projective_below_sphere(self):
        # projection is 1-Lipschitz: proj TV <= sphere TV of any lifting
        n = make_half_vortex_lifting(64)
        u = make_half_vortex(64)
        rng = np.random.default_rng(7)
        for _ in range(5):
            w = rng.standard_normal(2)
            w /= np.linalg.norm(w)
            tv_u = avg_directional_energy(u, omegas=[w]).total
            tv_n = avg_directional_energy(n, omegas=[w]).total
            assert tv_u <= tv_n + 1e-12

    def test_empty_mask_raises(self, tmp_path):
        # a field file whose mask bytes are all 0 is rejected on reading
        p = tmp_path / "empty.fld"
        write_raw_field(p, '{"d":2,"dims":[2],"kind":"proj","mask":"inline",'
                        '"origin":[0],"spacing":0.5,"version":2}',
                        [1.0, 0.0, 0.0, 1.0], [0, 0])
        with pytest.raises(ValueError, match="empty mask"):
            read_field(p)

    @pytest.mark.parametrize("omega", [
        [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]])
    def test_zero_or_non_finite_omega_raises(self, omega):
        with pytest.raises(ValueError, match="finite and nonzero"):
            avg_directional_energy(jump_field(16), omegas=[omega])

    @pytest.mark.parametrize("omega, match", [
        ([0.0], "finite and nonzero"), ([np.nan], "finite and nonzero"),
        ([1.0, 0.0], r"unit vector in R\^1"), (1.0, r"unit vector in R\^1")])
    def test_one_dimensional_omega_is_checked(self, omega, match):
        # a given direction is validated in every dimension
        u = GridField((8,), 0.125, (0.0,), "proj", np.repeat(np.eye(2), 4, 0))
        with pytest.raises(ValueError, match=match):
            avg_directional_energy(u, omegas=[omega])

    def test_empty_omegas_raise(self):
        with pytest.raises(ValueError, match="at least one"):
            avg_directional_energy(jump_field(16), omegas=np.zeros((0, 2)))

    def test_directions_is_checked_only_where_sampled(self):
        # given omegas leave the direction count unread
        f = jump_field(16)
        assert avg_directional_energy(f, directions=2, omegas=[[1, 0]]) \
            .to_dict() == avg_directional_energy(f, omegas=[[1, 0]]).to_dict()
        with pytest.raises(ValueError, match="directions must be >= 4"):
            avg_directional_energy(f, directions=2)


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


def index_order_ac_part(f, metric, threshold):
    """The smooth part of :func:`embedded_tv` from the face data of f, with
    the squares of its Frobenius norms added axis by axis in index order."""
    valid, dists, chords, proj = _face_data(f, metric)
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
    frob = steps[..., 0] ** 2
    for a in range(1, f.N):
        frob = frob + steps[..., a] ** 2
    frob = np.sqrt(frob)
    keep = valid.any(axis=-1) & ~near_jump
    return float((f.spacing ** (f.N - 1) * frob)[keep].sum())


@pytest.mark.parametrize("N", [1, 2, 3])
def test_ac_part_equals_an_index_order_reference(N):
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
        assert rep.ac_part == index_order_ac_part(
            f, metric, rep.params["jump_threshold"]), (kind, metric)


def test_ac_part_of_one_corner_cell_equals_its_index_order_norm():
    # the corner cell is the one owner of a valid face, so the smooth part
    # is its Frobenius norm alone, where a summation order of the three
    # squares other than index order shows
    rng = np.random.default_rng(60)
    mask = np.zeros((2, 2, 2), dtype=bool)
    mask[0, 0, 0] = mask[1, 0, 0] = mask[0, 1, 0] = mask[0, 0, 1] = True
    for _ in range(100):
        vals = [1.0, 0.0, 0.0] + 0.3 * rng.standard_normal((2, 2, 2, 3))
        vals /= np.linalg.norm(vals, axis=-1, keepdims=True)
        f = GridField((2, 2, 2), 1.0, (0.0,) * 3, "unit", vals, mask)
        rep = embedded_tv(f, "euclidean_sphere", jump_threshold=3.0)
        assert rep.ac_part == index_order_ac_part(f, "euclidean_sphere", 3.0)


class TestJumpThreshold:
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
            t1 = avg_directional_energy(f1, metric=metric,
                                        omegas=[[1.0, 0.0]]).total
            t2 = avg_directional_energy(f2, metric=metric,
                                        omegas=[[1.0, 0.0]]).total
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

    @pytest.mark.parametrize("h", [1e-20, 1e15])
    def test_extrapolated_energy_scales_with_the_spacing(self, h):
        # a fit in eps, not m = eps / h, would let lstsq's singular-value
        # cutoff drop a column when h is far from 1
        f = make_field("smooth", 8)
        e1, eh = (mollified_energy_extrapolated(GridField(
            f.dims, s, f.origin, f.kind, f.values)).total for s in (1.0, h))
        assert eh / h == pytest.approx(e1, rel=1e-12)

    def test_1d_extrapolated_energy_keeps_its_value_at_small_spacings(self):
        # 1D energies do not scale with h, down to the smallest spacings
        # GridField accepts (h^2 a normal float)
        vals = np.zeros((2000, 2))
        vals[0::2, 0] = vals[1::2, 1] = 1.0  # angles 0 and pi/2 alternate
        e1, *small = (mollified_energy_extrapolated(GridField(
            (2000,), h, (0.0,), "proj", vals)).total
            for h in (1.0, 2e-154, 1.5e-154))
        assert small == pytest.approx([e1, e1], rel=1e-12)


class TestPairKernelThreads:
    def test_one_thread_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setenv("BVLIFT_THREADS", "1")
        monkeypatch.setattr(fields, "ThreadPoolExecutor", no_pool)
        f = jump_field(16)
        assert avg_directional_energy(f, omegas=[[0.6, 0.8]]).total > 0.0
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
        assert rep.total == np.mean(
            [avg_directional_energy(u, omegas=[w]).total for w in omegas])


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
