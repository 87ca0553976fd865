import json

import numpy as np
import pytest

from bvlift.fields import avg_directional_energy, embedded_tv
from bvlift.geometry import dist_sphere
from bvlift.verify import (DIMS_GRID, THETA_GRID, CheckReport, make_field,
                           make_half_vortex, make_half_vortex_lifting,
                           run_diffuse_invariance_suite, run_identity_suite,
                           write_report)


class TestMakeHalfVortex:
    def test_geometry(self):
        u = make_half_vortex(64)
        assert u.dims == (64, 64)
        assert u.spacing == pytest.approx(2 / 64)
        assert u.kind == "proj"
        h = u.spacing
        c = (np.arange(64) + 0.5) * h - 1.0
        X, Y = np.meshgrid(c, c, indexing="ij")
        r = np.hypot(X, Y)
        assert np.array_equal(u.mask, (r <= 1.0) & (r >= 2 * h))

    def test_values_are_half_angle_directions(self):
        u = make_half_vortex(64, d=3)
        h = u.spacing
        c = (np.arange(64) + 0.5) * h - 1.0
        X, Y = np.meshgrid(c, c, indexing="ij")
        theta = np.mod(np.arctan2(Y, X), 2 * np.pi)
        expected = np.stack([np.cos(theta / 2), np.sin(theta / 2),
                             np.zeros_like(theta)], axis=-1)
        # representatives agree up to the canonical sign
        dots = np.abs(np.einsum("...k,...k->...", u.values, expected))
        assert np.allclose(dots, 1.0, atol=1e-12)

    def test_tensor_energy_near_pi(self):
        u = make_half_vortex(256)
        assert embedded_tv(u, "euclidean_tensor").total == pytest.approx(
            np.pi, rel=0.03)

    def test_one_antipodal_seam_per_circle(self):
        # walking any circle of cells, the canonical-representative lifting
        # flips sign exactly once
        u = make_half_vortex(128)
        h = u.spacing
        for r in (0.35, 0.6, 0.85):
            phis = np.linspace(0, 2 * np.pi, 400, endpoint=False)
            ii = np.clip(((r * np.cos(phis) + 1) / h - 0.5).round().astype(int),
                         0, 127)
            jj = np.clip(((r * np.sin(phis) + 1) / h - 0.5).round().astype(int),
                         0, 127)
            ring = u.values[ii, jj]
            keep = np.any(np.diff(np.stack([ii, jj]), axis=1) != 0, axis=0)
            ring = ring[np.concatenate([[True], keep])]
            steps = dist_sphere(ring, np.roll(ring, -1, axis=0))
            assert int((steps > np.pi / 2).sum()) == 1

    def test_cylindrical_extension_fubini(self):
        # constant extension over a unit height multiplies energies by 1
        u2 = make_half_vortex(48, d=2, N=2)
        u3 = make_half_vortex(48, d=2, N=3)
        assert u3.dims == (48, 48, 24)
        assert u3.dims[2] * u3.spacing == pytest.approx(1.0)
        e2 = embedded_tv(u2, "euclidean_tensor").total
        e3 = embedded_tv(u3, "euclidean_tensor").total
        assert e3 == pytest.approx(e2 * 1.0, rel=1e-12)
        # no variation along the cylinder axis
        assert avg_directional_energy(u3, omegas=[[0.0, 0.0, 1.0]]).total \
            == 0.0

    def test_lifting_field_projects_to_field(self):
        u = make_half_vortex(64)
        n = make_half_vortex_lifting(64)
        from bvlift.geometry import canonicalize
        assert np.array_equal(canonicalize(n.values), u.values)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            make_half_vortex(16)


class TestMakeField:
    def test_half_vortex_kinds_are_the_half_vortex(self):
        for kind, make in (("halfvortex", make_half_vortex),
                           ("halfvortex-lift", make_half_vortex_lifting)):
            f, g = make_field(kind, 32, d=3, N=3), make(32, d=3, N=3)
            assert f.kind == g.kind and f.dims == g.dims == (32, 32, 16)
            assert np.array_equal(f.values, g.values)

    def test_planar_kinds(self):
        for kind, angles in (("constant", [0.0]), ("jump", [0.0, np.pi / 2]),
                             ("smooth", None)):
            f = make_field(kind, 16, d=3, slope=0.7)
            assert f.dims == (16, 16) and f.d == 3 and f.kind == "proj"
            assert np.all(f.values[..., 2] == 0.0)
            g = np.arctan2(f.values[..., 1], f.values[..., 0])
            assert np.allclose(g, g[:, :1])  # the angle depends on x only
            if angles is not None:
                assert np.allclose(np.unique(np.round(g, 12)), angles)
            else:
                assert np.allclose(np.diff(g[:, 0]), 0.7 * f.spacing)

    def test_rejects_unknown_kinds_and_planar_kinds_off_the_plane(self):
        with pytest.raises(ValueError, match="unknown test field"):
            make_field("vortex", 32)
        for kind in ("constant", "jump", "smooth"):
            with pytest.raises(ValueError, match="2D"):
                make_field(kind, 32, N=3)


class TestCheckReport:
    def test_serialization_excludes_runtime(self):
        r = CheckReport("x", 1.0, 1.01, 0.05, True, "rel", "f", runtime_ms=123)
        d = r.to_dict()
        assert "runtime_ms" not in d
        assert d["passed"] is True
        json.dumps(d)  # serializable

    def test_write_report_round_trip(self, tmp_path):
        reports = [CheckReport("a", 0.0, 0.0, 1e-9, True, "abs", ""),
                   CheckReport("b", 2.0, 2.2, 0.05, False, "rel", "")]
        p = tmp_path / "report.json"
        write_report(reports, p)
        data = json.loads(p.read_text())
        assert [d["name"] for d in data] == ["a", "b"]
        assert data[1]["passed"] is False


class TestDirectionalInvariance:
    def test_smooth_lifting_and_projection_have_equal_directional_tv(self):
        # for a smooth lifting every step stays under a right angle, where
        # the line distance of the classes equals the sphere distance of the
        # representatives, so the two restrictions agree exactly
        rng = np.random.default_rng(0)
        from bvlift.verify import _smooth_unit_field
        for k in range(4):
            n = _smooth_unit_field(96, seed=20 + k, d=2)
            u = n.with_values(n.values, kind="proj")
            for _ in range(4):
                w = rng.standard_normal(2)
                w /= np.linalg.norm(w)
                tv_n = avg_directional_energy(n, omegas=[w]).total
                tv_u = avg_directional_energy(u, omegas=[w]).total
                assert tv_u == pytest.approx(tv_n, rel=1e-12)


class TestGridRefinement:
    def test_half_vortex_ratios_improve_with_resolution(self):
        # discretization error of the optimality ratios shrinks monotonically
        from bvlift.verify import run_half_vortex_suite
        errs = {}
        for grid in (160, 256):
            checks = {c.name: c for c in
                      run_half_vortex_suite(grid=grid, trials=16, seed=0)}
            errs[grid] = (
                abs(checks["halfvortex_geodesic_ratio"].measured - 2.0),
                abs(checks["halfvortex_euclidean_ratio"].measured
                    - (1 + 2 / np.pi)),
                abs(checks["halfvortex_tensor_energy"].measured - np.pi),
            )
        for fine, coarse in zip(errs[256], errs[160]):
            assert fine <= coarse


class TestSuites:
    def test_half_vortex_extras_are_the_eps_curves(self, monkeypatch):
        # report.json carries the eps curves of all four extrapolations
        from bvlift import verify
        fits = []

        def recorded(*args, **kwargs):
            fits.append(extrapolated(*args, **kwargs))
            return fits[-1]

        extrapolated = verify._extrapolated_energies
        monkeypatch.setattr(verify, "_extrapolated_energies", recorded)
        checks = {c.name: c.extra for c in verify.run_half_vortex_suite(
            grid=160, trials=4)}
        (u_geo, u_tensor, n_geo, n_euc), = fits
        energy = checks["halfvortex_geodesic_energy"]
        assert energy["eps_over_h"] == u_geo.params["eps_over_h"]
        assert energy["eps_energies"] == u_geo.params["energies"]
        geo, euc = (checks["halfvortex_geodesic_ratio"],
                    checks["halfvortex_euclidean_ratio"])
        assert geo["lifted_eps_energies"] == n_geo.params["energies"]
        assert euc["lifted_eps_energies"] == n_euc.params["energies"]
        assert euc["tensor_eps_energies"] == u_tensor.params["energies"]

    def test_identity_suite_does_not_depend_on_the_thread_count(self):
        one, two = ([r.to_dict() for r in run_identity_suite(
            samples=100_000, seed=3, threads=t)] for t in (1, 2))
        assert one == two
        combos = [f"theta={theta:.4f}_d={d}"
                  for d in DIMS_GRID for theta in THETA_GRID]
        assert [r["name"] for r in one] == (
            [f"avg_lifted_dist_{c}" for c in combos]
            + [f"psi_{c}" for c in combos]
            + [f"avg_eucl_jump{part}_{c}" for c in combos
               for part in ("", "_bound")]
            + ["psi_right_angle_quarter"])

    def test_right_angle_quarter_reads_the_d3_draw(self, monkeypatch):
        from bvlift import constants, verify
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sampler(*args, **kwargs)

        sampler = constants._mc_over_sphere
        monkeypatch.setattr(constants, "_mc_over_sphere", counted)
        monkeypatch.setattr(verify, "_mc_over_sphere", counted)
        checks = {c.name: c for c in run_identity_suite(samples=100_000,
                                                        seed=4)}
        assert len(calls) == len(DIMS_GRID)  # one draw per d, no other
        quarter = checks["psi_right_angle_quarter"]
        half = checks[f"psi_theta={np.pi / 2:.4f}_d=3"]
        assert quarter.measured == half.measured
        assert quarter.extra["stderr"] == half.extra["stderr"]
        assert (quarter.claimed, quarter.tolerance, quarter.kind) == (
            0.25, 0.002, "abs")

    def test_diffuse_suite_passes(self):
        reps = run_diffuse_invariance_suite(seed=1, grids=(64, 128),
                                            n_fields=4)
        assert all(r.passed for r in reps)
        ratios = [r.measured for r in reps
                  if r.name.startswith("diffuse_invariance")]
        # observed contraction is second order, well below the 0.6 bound
        assert all(0.15 < x < 0.45 for x in ratios)
