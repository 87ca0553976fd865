"""Acceptance suite: every quantitative claim at its stated tolerance.

Each test prints one PASS/FAIL line (run ``pytest tests/test_acceptance.py -s``
to see them live).  Criteria with runtime budgets assert wall-clock time on
top of the numeric tolerance.
"""

import time

import numpy as np
import pytest

import bvlift as bv

SEED = 0
GRID = 256
TRIALS = 64
SAMPLES = 1_000_000


def report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}", flush=True)
    assert ok, text


@pytest.fixture(scope="module")
def half_vortex_checks():
    t0 = time.perf_counter()
    checks = bv.run_half_vortex_suite(grid=GRID, trials=TRIALS, seed=SEED)
    elapsed = time.perf_counter() - t0
    return {c.name: c for c in checks}, elapsed


@pytest.fixture(scope="module")
def identity_checks():
    checks = bv.run_identity_suite(samples=SAMPLES, seed=SEED)
    return {c.name: c for c in checks}


def test_criterion_1_half_vortex_geodesic_optimality(half_vortex_checks):
    checks, elapsed = half_vortex_checks
    energy = checks["halfvortex_geodesic_energy"]
    ratio = checks["halfvortex_geodesic_ratio"]
    runtime = (energy.runtime_ms + ratio.runtime_ms) / 1000.0
    ok = energy.passed and ratio.passed and runtime < 60.0
    report(1, ok,
           f"geodesic energy {energy.measured:.4f} (claim 2 +-5%), "
           f"lifting ratio {ratio.measured:.4f} (claim 2 +-5%), "
           f"runtime {runtime:.1f}s < 60s")


def test_criterion_2_half_vortex_euclidean_optimality(half_vortex_checks):
    checks, elapsed = half_vortex_checks
    tensor = checks["halfvortex_tensor_energy"]
    ratio = checks["halfvortex_euclidean_ratio"]
    runtime = (tensor.runtime_ms + ratio.runtime_ms) / 1000.0
    ok = tensor.passed and ratio.passed and runtime < 60.0
    report(2, ok,
           f"tensor energy {tensor.measured:.4f} (claim pi +-3%), "
           f"Euclidean ratio {ratio.measured:.4f} "
           f"(claim 1+2/pi={1 + 2 / np.pi:.4f} +-3%), "
           f"runtime {runtime:.1f}s < 60s")


def test_criterion_3_averaged_distance_identity(identity_checks):
    checks = [c for name, c in identity_checks.items()
              if name.startswith("avg_lifted_dist")]
    assert len(checks) == 12  # 4 angles x 3 dimensions
    runtime = sum(c.runtime_ms for c in checks) / 1000.0
    worst = max(abs(c.measured - c.claimed) / (c.tolerance / 4)
                for c in checks if c.tolerance > 1e-12)
    ok = all(c.passed for c in checks) and runtime < 120.0
    report(3, ok,
           f"12 angle/dimension combos within 4 standard errors of "
           f"(2/pi) theta (pi - theta) at 1e6 samples "
           f"(worst {worst:.2f} sigma), runtime {runtime:.1f}s < 120s")


def test_criterion_4_measure_identity(identity_checks):
    checks = [c for name, c in identity_checks.items()
              if name.startswith("psi_theta")]
    assert len(checks) == 12
    quarter = identity_checks["psi_right_angle_quarter"]
    ok = all(c.passed for c in checks) and quarter.passed
    report(4, ok,
           f"hemisphere-split measure matches theta/(2 pi) within 4 standard "
           f"errors on the theta grid; value at pi/2 is "
           f"{quarter.measured:.4f} (claim 0.25 +-0.002)")


def test_criterion_5_euclidean_jump_average(identity_checks):
    closed = [c for name, c in identity_checks.items()
              if name.startswith("avg_eucl_jump_theta")]
    bounds = [c for name, c in identity_checks.items()
              if name.startswith("avg_eucl_jump_bound")]
    assert len(closed) == 12 and len(bounds) == 12
    ok = all(c.passed for c in closed) and all(c.passed for c in bounds)
    report(5, ok,
           "averaged |F(Rn) - F(Rm)| matches "
           "(2/pi)((pi-theta)sin(theta/2)+theta cos(theta/2)) within 4 "
           "standard errors and stays below (1+2/pi) sin(theta) at every "
           "tested angle")


def test_criterion_6_constants():
    t0 = time.perf_counter()
    ok_parts = []
    k2 = bv.k_const(2).value
    ok_parts.append(abs(k2 - 2 / np.pi) <= 1e-9)
    for d in range(2, 7):
        ok_parts.append(abs(bv.m_const(d).value - 2 * bv.ball_volume(d - 2))
                        <= 1e-9)
    for N in (1, 2, 3):
        ok_parts.append(abs(bv.ca_const(N, 2).value - (1 + 2 / np.pi))
                        <= 1e-6)
    ca23 = bv.ca_const(2, 3).value
    ok_parts.append(ca23 >= 1 + 1 / np.sqrt(2) - 1e-6)
    cj = bv.cj_estimate("tensor").value
    ok_parts.append(abs(cj - (1 + 2 / np.pi)) <= 1e-9)
    c1 = bv.c1d_const().value
    ok_parts.append(abs(c1 - np.sqrt(2)) <= 1e-12)
    runtime = time.perf_counter() - t0
    ok = all(ok_parts) and runtime < 60.0
    report(6, ok,
           f"K_2={k2:.12f} (+-1e-9), M(d)=2 vol(B^(d-2)) for d<=6 (+-1e-9), "
           f"C^a(N,2)=1+2/pi (+-1e-6), C^a(2,3)={ca23:.9f} >= 1+1/sqrt2-1e-6, "
           f"C^j={cj:.12f} (+-1e-9), C_1d={c1:.15f} (+-1e-12), "
           f"runtime {runtime:.1f}s < 60s")


def test_criterion_7_one_dimensional_lifting():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    n_seq, length, d = 10_000, 16, 3
    seqs = bv.canonicalize(
        bv.random_unit_vectors(d, n_seq * length, rng)
        .reshape(n_seq, length, d))
    lifted = bv.lift_1d(seqs)
    geo_s = bv.dist_sphere(lifted[:, :-1], lifted[:, 1:]).sum(axis=1)
    geo_p = bv.dist_proj(seqs[:, :-1], seqs[:, 1:]).sum(axis=1)
    rel = np.max(np.abs(geo_s - geo_p) / geo_p)
    euc = np.linalg.norm(np.diff(lifted, axis=1), axis=-1).sum(axis=1)
    tens = bv.eucl_jump_cost(seqs[:, :-1], seqs[:, 1:]).sum(axis=1)
    euclid_ok = np.all(euc <= np.sqrt(2) * tens + 1e-9)
    # equality case: one jump at a right angle
    single = bv.canonicalize(np.array([[1.0, 0.0], [0.0, 1.0]]))
    pair = bv.lift_1d(single)
    eq_gap = abs(np.linalg.norm(pair[1] - pair[0])
                 - np.sqrt(2) * bv.eucl_jump_cost(single[0], single[1]))
    runtime = time.perf_counter() - t0
    ok = (rel <= 1e-12) and euclid_ok and eq_gap <= 1e-12 and runtime < 10.0
    report(7, ok,
           f"10^4 random sequences: sphere TV = projective TV "
           f"(max rel err {rel:.2e} <= 1e-12), Euclidean TV <= sqrt(2) x "
           f"tensor TV + 1e-9, right-angle equality gap {eq_gap:.1e}, "
           f"runtime {runtime:.2f}s < 10s")


def test_criterion_8_diffuse_part_invariance():
    checks = bv.run_diffuse_invariance_suite(seed=SEED, grids=(128, 256),
                                             n_fields=10)
    field_checks = [c for c in checks
                    if c.name.startswith("diffuse_invariance")]
    assert len(field_checks) == 10
    ratios = [c.measured for c in field_checks]
    ok = all(c.passed for c in field_checks)
    report(8, ok,
           f"smooth energies of n and [n] converge together on 10 random "
           f"fields: h-halving ratios in [{min(ratios):.3f}, "
           f"{max(ratios):.3f}], all <= 0.6 (first order or better; the "
           f"observed contraction ~0.25 is second order)")


def test_criterion_9_representation_formula():
    checks = bv.run_repr_formula_suite(seed=SEED)
    ok = all(c.passed for c in checks)
    worst = max(abs(c.measured - c.claimed)
                / (abs(c.claimed) if c.claimed else 1.0)
                for c in checks if c.kind == "rel")
    report(9, ok,
           f"mollified, direction-averaged and analytic energies agree "
           f"within 5% on the 5-field test set (worst deviation "
           f"{worst:.2%})")


def test_criterion_10_boundary_lifting():
    results = []
    # constant field with a split boundary orientation
    grid = 64
    vals = np.zeros((grid, grid, 2))
    vals[..., 0] = 1.0
    u = bv.GridField((grid, grid), 1.0 / grid, (0.0, 0.0), "proj", vals)
    half = np.arange(grid) < grid // 2
    n0 = u.with_values(np.where(half[None, :, None], vals, -vals),
                       kind="unit")
    res = bv.lift_with_boundary(u, n0, trials=8, seed=SEED)
    bnd = bv.boundary_cells(u.inside())
    results.append(np.array_equal(res.field.values[bnd], n0.values[bnd]))
    results.append(res.projection_check == 0.0)
    # half vortex with its explicit trace
    u = bv.make_half_vortex(128)
    n0 = bv.make_half_vortex_lifting(128)
    res = bv.lift_with_boundary(u, n0, trials=8, seed=SEED)
    bnd = bv.boundary_cells(u.inside())
    results.append(np.array_equal(res.field.values[bnd], n0.values[bnd]))
    results.append(res.projection_check == 0.0)
    ok = all(results)
    report(10, ok,
           "boundary-prescribed liftings match the prescribed orientation on "
           "100% of boundary cells and project to the input field on 100% of "
           "cells (constant-field and half-vortex tests)")
