import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlift import lifting
from bvlift import fields
from bvlift.fields import (GridField, _face_data, _pair_sums,
                           avg_directional_energy, default_jump_threshold,
                           embedded_tv)
from bvlift.geometry import (canonicalize, chord, chord_distance,
                             eucl_jump_cost, lift_sign, random_unit_vectors)
from bvlift.lifting import (BoundaryMismatchError, boundary_cells, lift_1d,
                            lift_greedy_1d, lift_rotation_search,
                            lift_with_boundary, solve_laplace)
from bvlift.verify import make_half_vortex, make_half_vortex_lifting


def GEO_S(a, b):
    return chord_distance(chord(a, b), "geodesic")


def GEO_P(a, b):
    return chord_distance(chord(a, b, True), "geodesic")


def planar(angles, d=2):
    a = np.asarray(angles, dtype=float)
    v = np.zeros(a.shape + (d,))
    v[..., 0] = np.cos(a)
    v[..., 1] = np.sin(a)
    return v


def exhaustive_min_sphere_tv(reps):
    """Brute-force minimum over all 2^L sign assignments of the sphere TV."""
    best = np.inf
    L = len(reps)
    for signs in itertools.product((1.0, -1.0), repeat=L):
        n = reps * np.array(signs)[:, None]
        best = min(best, float(GEO_S(n[:-1], n[1:]).sum()))
    return best


def random_proj_sequences(n_seq, length, d, seed):
    rng = np.random.default_rng(seed)
    return canonicalize(random_unit_vectors(d, n_seq * length, rng)
                        .reshape(n_seq, length, d))


class TestLift1D:
    def test_constant_sequence(self):
        reps = np.tile(np.array([1.0, 0.0]), (5, 1))
        n = lift_1d(reps)
        assert np.array_equal(n, reps)
        assert GEO_S(n[:-1], n[1:]).sum() == 0.0

    def test_rotating_line_field_needs_full_turn(self):
        # line angles 0, 60, 120, 180 degrees: the greedy lifting follows
        # them continuously, sphere TV = projective TV = pi, and the
        # exhaustive sign-assignment oracle confirms pi is minimal
        reps = canonicalize(planar(np.deg2rad([0, 60, 120, 180])))
        n = lift_1d(reps)
        tv = float(GEO_S(n[:-1], n[1:]).sum())
        assert tv == pytest.approx(np.pi, abs=1e-12)
        assert tv == pytest.approx(exhaustive_min_sphere_tv(reps), abs=1e-12)
        assert tv == pytest.approx(float(GEO_P(reps[:-1], reps[1:]).sum()),
                                   abs=1e-12)

    def test_matches_exhaustive_oracle_on_random_short_sequences(self):
        for k in range(20):
            reps = random_proj_sequences(1, 9, 3, seed=50 + k)[0]
            n = lift_1d(reps)
            tv = float(GEO_S(n[:-1], n[1:]).sum())
            assert tv == pytest.approx(exhaustive_min_sphere_tv(reps),
                                       abs=1e-10)

    def test_no_extra_jumps_in_bulk(self):
        # sphere TV equals projective TV exactly over a random corpus
        seqs = random_proj_sequences(500, 16, 3, seed=0)
        lifted = lift_1d(seqs)
        tv_s = GEO_S(lifted[:, :-1], lifted[:, 1:]).sum(axis=1)
        tv_p = GEO_P(seqs[:, :-1], seqs[:, 1:]).sum(axis=1)
        assert np.max(np.abs(tv_s - tv_p) / np.maximum(tv_p, 1e-300)) < 1e-12

    def test_every_step_at_most_right_angle(self):
        seqs = random_proj_sequences(100, 12, 2, seed=1)
        lifted = lift_1d(seqs)
        steps = GEO_S(lifted[:, :-1], lifted[:, 1:])
        assert np.all(steps <= np.pi / 2 + 1e-12)

    def test_euclidean_bound_sqrt2(self):
        # Euclidean sphere TV <= sqrt(2) x tensor TV, equality at a
        # single right-angle jump
        seqs = random_proj_sequences(500, 16, 3, seed=2)
        lifted = lift_1d(seqs)
        euc = np.linalg.norm(np.diff(lifted, axis=1), axis=-1).sum(axis=1)
        tens = eucl_jump_cost(seqs[:, :-1], seqs[:, 1:]).sum(axis=1)
        assert np.all(euc <= np.sqrt(2) * tens + 1e-9)
        single = canonicalize(planar([0.0, np.pi / 2]))
        n = lift_1d(single)
        assert np.linalg.norm(n[1] - n[0]) == pytest.approx(
            np.sqrt(2) * eucl_jump_cost(single[0], single[1]), abs=1e-12)
        assert np.linalg.norm(n[1] - n[0]) == pytest.approx(
            2 * np.sin(np.pi / 4), abs=1e-12)

    def test_projection_preserved(self):
        seqs = random_proj_sequences(50, 10, 4, seed=3)
        lifted = lift_1d(seqs)
        assert np.array_equal(canonicalize(lifted), seqs)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lift_1d(np.zeros((0, 2)))


class TestLiftGreedy1D:
    def field(self, mask=None):
        angles = np.deg2rad([0, 60, 120, 95, 10, 170, 181])
        return GridField((7,), 1 / 7, (0.0,), "proj", planar(angles), mask)

    def test_energy_equals_projective_tv_and_projects_exactly(self):
        for mask in (None, [1, 1, 0, 1, 1, 1, 0]):
            u = self.field(mask)
            res = lift_greedy_1d(u)
            assert res.field.kind == "unit" and res.direction is None
            assert res.energy.total == res.energy.params["projective_tv"]
            assert res.projection_check == 0.0

    def test_rejects_fields_on_more_than_one_axis(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            lift_greedy_1d(make_half_vortex(32))

    def test_rejects_fields_that_are_not_line_fields(self):
        # a unit field's sphere TV is not a projective TV
        u = self.field()
        with pytest.raises(ValueError, match="proj field"):
            lift_greedy_1d(u.with_values(u.values, kind="unit"))

    def test_projection_check_is_measured(self, monkeypatch):
        # a lifting turned by a right angle does not project to the field
        monkeypatch.setattr(lifting, "lift_1d", lambda seq: np.stack(
            [-seq[..., 1], seq[..., 0]], axis=-1))
        res = lift_greedy_1d(self.field())
        assert res.projection_check == pytest.approx(np.pi / 2)


class TestRotationSearch:
    def test_constant_field(self):
        vals = np.zeros((16, 16, 2))
        vals[..., 0] = 1.0
        u = GridField((16, 16), 1 / 16, (0, 0), "proj", vals)
        res = lift_rotation_search(u, trials=4, seed=0)
        assert res.energy.total == 0.0
        assert res.projection_check == 0.0
        # constant up to one global sign
        assert np.all(res.field.values == res.field.values[0, 0])

    def test_exact_projection_and_direction_recorded(self):
        u = make_half_vortex(64)
        res = lift_rotation_search(u, trials=8, seed=1)
        assert res.projection_check == 0.0
        assert res.direction.shape == (2,)
        assert np.linalg.norm(res.direction) == pytest.approx(1.0, abs=1e-12)

    def test_requires_proj_field(self):
        n = make_half_vortex_lifting(64)
        with pytest.raises(ValueError):
            lift_rotation_search(n, trials=2)

    def test_deterministic_given_seed(self):
        u = make_half_vortex(64)
        a = lift_rotation_search(u, trials=4, seed=9)
        b = lift_rotation_search(u, trials=4, seed=9)
        assert np.array_equal(a.field.values, b.field.values)
        assert a.energy.total == b.energy.total

    def test_averaging_bound_on_random_piecewise_smooth_fields(self):
        # best-of-trials geodesic lifted energy <= 2 x projective energy
        # within discretization slack, for random smooth + jump fields
        rng = np.random.default_rng(4)
        grid = 48
        h = 1.0 / grid
        c = (np.arange(grid) + 0.5) * h
        X, Y = np.meshgrid(c, c, indexing="ij")
        dirs = 32
        for k in range(20):
            a = rng.standard_normal(5)
            g = (a[0] + a[1] * X + a[2] * Y
                 + 0.5 * a[3] * np.sin(2 * np.pi * X)
                 + 0.5 * a[4] * np.cos(2 * np.pi * Y))
            if k % 2:
                g = g + np.where(X > rng.uniform(0.3, 0.7), np.pi / 2, 0.0)
            vals = np.stack([np.cos(g), np.sin(g)], axis=-1)
            u = GridField((grid, grid), h, (0.0, 0.0), "proj", vals)
            res = lift_rotation_search(u, trials=32, seed=100 + k)
            e_u = avg_directional_energy(u, directions=dirs, seed=7,
                                         metric="geodesic").total
            e_n = avg_directional_energy(res.field, directions=dirs, seed=7,
                                         metric="geodesic").total
            assert e_n <= 2.0 * e_u * 1.05 + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_ranking_equals_embedded_tv_of_each_candidate(self, data):
        # each candidate's total is the face sum of its explicit lifting
        # (its pair sums at the unit offsets), whether the pair kernel gets
        # the candidates in one group or in several; the first minimum is
        # built, and its embedded_tv is the reported energy
        N = data.draw(st.sampled_from((1, 2, 3)))
        dims = tuple(data.draw(st.integers(2, 6)) for _ in range(N))
        d = data.draw(st.integers(2, 9))
        seed = data.draw(st.integers(0, 2 ** 16))
        rng = np.random.default_rng(seed)
        vals = random_unit_vectors(d, math.prod(dims), rng)
        mask = rng.random(dims) < 0.7 if data.draw(st.booleans()) else None
        if mask is not None:
            mask.flat[0] = True  # every estimator rejects an empty mask
        u = GridField(dims, 1.0 / dims[0], (0.0,) * N, "proj",
                      vals.reshape(dims + (d,)), mask)
        metric = data.draw(st.sampled_from(
            ("geodesic", "euclidean_sphere", "euclidean_tensor")))
        rank = "geodesic" if metric == "geodesic" else "euclidean_sphere"
        dirs = random_unit_vectors(d, 5, seed)
        liftings = [u.with_values(u.values * lift_sign(r, u.values)[..., None],
                                  kind="unit") for r in dirs]
        want = [sum(_pair_sums(n, [(rank, None)], 1)[1][:, 0])
                for n in liftings]
        best = int(np.argmin(want))  # the first minimum
        # a constant field's candidates all sum to 0: the first one is kept
        const = u.with_values(np.broadcast_to(u.values.reshape(-1, d)[0],
                                              u.values.shape))
        for group, sizes in ((64, [5]), (2, [2, 2, 1])):
            calls = []

            def kernel(*args):
                calls.append(fields._lattice_sums(*args))
                return calls[-1]

            with mock.patch.object(lifting, "_RANK_GROUP", group), \
                    mock.patch.object(lifting, "_lattice_sums", kernel):
                res = lift_rotation_search(u, trials=5, seed=seed,
                                           metric=metric)
                assert [rows.shape[1] for rows in calls] == sizes
                assert [sum(col) for rows in calls for col in rows.T] == want
                flat = lift_rotation_search(const, trials=5, seed=seed,
                                            metric=metric)
            assert np.array_equal(res.direction, dirs[best])
            assert (res.field.values.tobytes()
                    == liftings[best].values.tobytes())
            assert res.energy.to_dict() == embedded_tv(
                liftings[best], rank).to_dict()
            assert np.array_equal(flat.direction, dirs[0])
            assert flat.energy.total == 0.0

    def test_antipodal_traces_at_lifting_jumps(self):
        # where the projected field is smooth, a lifting jumps between
        # antipodes: sphere cost 2 - O(h)
        u = make_half_vortex(128)
        res = lift_rotation_search(u, trials=8, seed=5,
                                   metric="euclidean_sphere")
        h = u.spacing

        def jump_faces(f, metric):  # faces past the step of angle pi/4
            valid, dists, *_ = _face_data(f, metric)
            return valid & (dists > default_jump_threshold(metric)), dists

        proj_jumps, _ = jump_faces(u, "euclidean_tensor")
        faces, costs = jump_faces(res.field, "euclidean_sphere")
        assert faces.any()
        # off the faces where the projected field itself jumps
        assert np.all(costs[faces & ~proj_jumps] >= 2.0 - 10 * h)


class TestBoundaryCells:
    def test_full_rectangle_perimeter(self):
        mask = np.ones((5, 7), bool)
        b = boundary_cells(mask)
        assert b[0, :].all() and b[-1, :].all()
        assert b[:, 0].all() and b[:, -1].all()
        assert not b[1:-1, 1:-1].any()

    def test_disk_boundary_is_thin(self):
        u = make_half_vortex(64)
        b = boundary_cells(u.inside())
        assert b.sum() < u.inside().sum() * 0.3
        assert (b & ~u.inside()).sum() == 0


def _laplace_masks():
    """Masks whose interiors the multigrid preconditioner coarsens
    differently: disks and an ell over several levels, thin shapes, and a
    random mask whose interior is mostly isolated cells, factored whole."""
    i, j = np.indices((64, 64)) - 31.5
    r = np.hypot(i, j)
    ell = np.ones((64, 64), bool)
    ell[:20, 20:] = False
    corner = np.zeros((24, 24), bool)
    corner[:10, :15] = True  # its interior starts at row 1 and column 1
    single = np.zeros((7, 7), bool)
    single[2:5, 2:5] = True
    return {
        "disk": r < 31,
        "annulus": (r > 22) & (r < 30),
        "ell": ell,
        "two_disks": (np.hypot(i + 16, j + 16) < 12)
        | (np.hypot(i - 18, j - 10) < 9),
        "diagonal_strip": np.abs(i - j) <= 2,
        "one_cell": single,
        "second_row_and_column": corner,
        "random60": np.random.default_rng(60).random((64, 64)) < 0.6,
    }


class TestSolveLaplace:
    def test_harmonic_reproduction(self):
        # boundary data sampled from a harmonic polynomial is reproduced
        n = 48
        c = np.linspace(-1, 1, n)
        X, Y = np.meshgrid(c, c, indexing="ij")
        exact = X * X - Y * Y
        mask = np.ones((n, n), bool)
        bnd = boundary_cells(mask)
        interior = mask & ~bnd
        phi = solve_laplace(exact, bnd, interior)
        assert np.max(np.abs(phi - exact)[interior]) < 5e-3

    def test_discrete_equation_on_masked_disk(self):
        # interior cells equal the mean of their four neighbors to 1e-10,
        # boundary cells keep their values and all other cells hold 0
        u = make_half_vortex(64)
        bnd = boundary_cells(u.inside())
        interior = u.inside() & ~bnd
        values = np.random.default_rng(4).choice([-1.0, 1.0], size=u.dims)
        phi = solve_laplace(values, bnd, interior)
        p = np.pad(phi, 1)
        mean = 0.25 * (p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2])
        assert np.abs(mean - phi)[interior].max() < 1e-10
        assert np.array_equal(phi[bnd], values[bnd])
        assert np.all(phi[~u.inside()] == 0.0)

    @staticmethod
    def _case(name):
        mask = _laplace_masks()[name]
        bnd = boundary_cells(mask)
        values = np.random.default_rng(5).uniform(-1, 1, mask.shape)
        return mask, bnd, mask & ~bnd, values

    @pytest.mark.parametrize("name", list(_laplace_masks()))
    def test_discrete_equation_and_kept_boundary(self, name):
        mask, bnd, interior, values = self._case(name)
        assert interior.any()
        phi = solve_laplace(values, bnd, interior)
        p = np.pad(phi, 1)
        mean = 0.25 * (p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2])
        assert np.abs(mean - phi)[interior].max() < 1e-10
        assert np.array_equal(phi[bnd], values[bnd])
        assert np.all(phi[~mask] == 0.0)

    @pytest.mark.parametrize("name", list(_laplace_masks()))
    def test_agrees_with_a_direct_solve(self, name):
        from scipy import sparse
        from scipy.sparse.linalg import spsolve
        mask, bnd, interior, values = self._case(name)
        known = np.where(bnd, values, 0.0)
        cells = [tuple(c) for c in np.argwhere(interior)]
        index = {c: k for k, c in enumerate(cells)}
        entries = []  # (row, column, value)
        rhs = np.zeros(len(cells))
        for k, (a, b) in enumerate(cells):
            entries.append((k, k, 4.0))
            for nb in ((a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)):
                if nb in index:
                    entries.append((k, index[nb], -1.0))
                elif 0 <= nb[0] < mask.shape[0] and 0 <= nb[1] < mask.shape[1]:
                    rhs[k] += known[nb]
        rows, cols, data = zip(*entries)
        A = sparse.csr_matrix((data, (rows, cols)), shape=(len(cells),) * 2)
        x = np.atleast_1d(spsolve(A, rhs))
        phi = solve_laplace(values, bnd, interior)
        assert np.abs(phi[interior] - x).max() < 1e-9

    @pytest.mark.parametrize("name", list(_laplace_masks()))
    def test_empty_interior_returns_the_boundary_data(self, name):
        mask, bnd, _, values = self._case(name)
        phi = solve_laplace(values, bnd, np.zeros_like(mask))
        assert np.array_equal(phi, np.where(bnd, values, 0.0))

    @staticmethod
    def _spy_on_cg(monkeypatch):
        # the arguments and iterates of solve_laplace's cg call
        import scipy.sparse.linalg as sla
        seen = {"steps": 0}
        cg = sla.cg

        def spy(A, b, **kw):
            seen.update(A=A, M=kw["M"])
            return cg(A, b, callback=lambda x: seen.update(
                steps=seen["steps"] + 1), **kw)

        monkeypatch.setattr(sla, "cg", spy)
        return seen

    @pytest.mark.parametrize("grid", [64, 128, 256, 512])
    def test_disk_iterations_stay_bounded(self, monkeypatch, grid):
        # the V-cycle keeps the count about flat as the grid refines
        seen = self._spy_on_cg(monkeypatch)
        mask = make_half_vortex(grid).inside()
        bnd = boundary_cells(mask)
        values = np.random.default_rng(6).choice([-1.0, 1.0], size=mask.shape)
        solve_laplace(values, bnd, mask & ~bnd)
        assert 0 < seen["steps"] <= 40

    @pytest.mark.parametrize("name", list(_laplace_masks()))
    def test_preconditioner_is_symmetric_positive_definite(self, monkeypatch,
                                                           name):
        # CG needs M symmetric positive definite: on independent random
        # vectors X, X^T M X is symmetric to rounding, with eigenvalues > 0
        seen = self._spy_on_cg(monkeypatch)
        mask, bnd, interior, values = self._case(name)
        solve_laplace(values, bnd, interior)
        n = seen["A"].shape[0]
        X = np.random.default_rng(7).standard_normal((n, min(n, 8)))
        G = X.T @ np.column_stack([seen["M"] @ x for x in X.T])
        assert np.abs(G - G.T).max() <= 1e-12 * np.abs(G).max()
        assert np.linalg.eigvalsh(0.5 * (G + G.T)).min() > 0.0


class TestLiftWithBoundary:
    def _constant(self, grid=48):
        vals = np.zeros((grid, grid, 2))
        vals[..., 0] = 1.0
        return GridField((grid, grid), 1.0 / grid, (0.0, 0.0), "proj", vals)

    def test_constant_boundary(self):
        u = self._constant()
        n0 = u.with_values(u.values, kind="unit")
        res = lift_with_boundary(u, n0, trials=4, seed=0)
        assert np.array_equal(res.field.values, n0.values)
        assert res.projection_check == 0.0

    def test_split_boundary_creates_single_interface(self):
        grid = 48
        u = self._constant(grid)
        half = (np.arange(grid) < grid // 2)
        n0v = np.where(half[None, :, None], u.values, -u.values)
        n0 = u.with_values(n0v, kind="unit")
        res = lift_with_boundary(u, n0, trials=4, seed=0)
        bnd = boundary_cells(u.inside())
        assert np.array_equal(res.field.values[bnd], n0.values[bnd])
        assert res.projection_check == 0.0
        # the thresholded harmonic extension yields one sign interface:
        # every row flips exactly once
        sign = np.sign(np.einsum("ijk,ijk->ij", res.field.values, u.values))
        flips = np.abs(np.diff(sign, axis=1)).sum(axis=1)
        assert np.all(flips == 2)

    def test_half_vortex_trace(self):
        u = make_half_vortex(96)
        n0 = make_half_vortex_lifting(96)
        res = lift_with_boundary(u, n0, trials=8, seed=1)
        bnd = boundary_cells(u.inside())
        assert np.array_equal(res.field.values[bnd], n0.values[bnd])
        assert res.projection_check == 0.0
        assert np.isfinite(res.energy.total)

    def test_rejects_non_lifting_boundary(self):
        u = self._constant()
        bad = np.zeros_like(u.values)
        bad[..., 1] = 1.0  # orthogonal directions: not a lifting of u
        n0 = u.with_values(bad, kind="unit")
        with pytest.raises(BoundaryMismatchError, match="not a lifting"):
            lift_with_boundary(u, n0, trials=2, seed=0)

    def test_mismatch_is_named_at_its_first_boundary_cell(self):
        # the trace is checked on the boundary cells alone: of two
        # mismatching boundary cells the first in C order is named, and a
        # mismatch at an interior cell is ignored
        u = self._constant()
        vals = u.values.copy()
        vals[10, 10] = (0.0, 1.0)  # interior
        n0 = u.with_values(vals, kind="unit")
        res = lift_with_boundary(u, n0, trials=2, seed=0)
        bnd = boundary_cells(u.inside())
        assert not bnd[10, 10] and res.projection_check == 0.0
        assert np.array_equal(res.field.values[bnd], vals[bnd])
        vals[5, 0] = vals[0, 7] = (0.0, -1.0)
        assert bnd[5, 0] and bnd[0, 7]
        n0 = u.with_values(vals, kind="unit")
        with pytest.raises(BoundaryMismatchError,
                           match=r"at cell \(0, 7\)$"):
            lift_with_boundary(u, n0, trials=2, seed=0)

    @pytest.mark.parametrize("key", ["dims", "d", "spacing", "origin"])
    def test_rejects_boundary_on_another_grid(self, key):
        u = self._constant()
        grid = dict(dims=u.dims, spacing=u.spacing, origin=u.origin)
        vals = u.values
        if key == "dims":
            grid["dims"], vals = (48, 40), u.values[:, :40]
        elif key == "d":
            vals = np.concatenate([vals, np.zeros(u.dims + (1,))], axis=-1)
        elif key == "spacing":
            grid["spacing"] = 2 * u.spacing
        else:
            grid["origin"] = (u.spacing, 0.0)
        n0 = GridField(kind="unit", values=vals, **grid)
        with pytest.raises(ValueError, match=f"boundary data {key} "):
            lift_with_boundary(u, n0, trials=2, seed=0)

    def test_rejects_one_dimensional(self):
        vals = np.zeros((8, 2))
        vals[:, 0] = 1.0
        u1 = GridField((8,), 0.125, (0.0,), "proj", vals)
        n0 = u1.with_values(vals, kind="unit")
        with pytest.raises(ValueError, match="N = 2"):
            lift_with_boundary(u1, n0)
