#!/usr/bin/env python3
"""The half-integer defect: the field on which the lifting bounds are tight.

The planar line field whose direction turns by half the polar angle cannot be
oriented continuously: every orientation must jump between opposite vectors
along a seam leaving the center.  Its energies are known exactly:

* intrinsic (geodesic) energy of the line field: K_2 pi = 2,
* every optimal orientation costs twice that (factor 2 is tight),
* tensor seminorm: pi, and the best orientation costs (1 + 2/pi) pi = pi + 2.

The rotation search reproduces both ratios on a 256^2 disk grid.
"""

import numpy as np

from bvlift import (embedded_tv, lift_rotation_search, make_half_vortex,
                    mollified_energy_extrapolated)

grid, trials, seed = 256, 64, 0
u = make_half_vortex(grid)
print(f"half vortex on a {grid}^2 disk grid, h = {u.spacing:.4f}, "
      f"{int(u.inside().sum())} cells\n")

print("== geodesic case ==")
e_u = mollified_energy_extrapolated(u, "geodesic")
print(f"line-field energy: {e_u.total:.4f}   (claim K_2 pi = 2)")
best = lift_rotation_search(u, trials=trials, seed=seed, metric="geodesic")
e_n = mollified_energy_extrapolated(best.field, "geodesic")
print(f"best-of-{trials} lifting energy: {e_n.total:.4f}")
print(f"ratio: {e_n.total / e_u.total:.4f}   (claim: the factor 2 is optimal)\n")

print("== Euclidean case ==")
e_tensor = embedded_tv(u, "euclidean_tensor")
print(f"tensor seminorm: {e_tensor.total:.4f}   (claim pi = {np.pi:.4f})")
best_e = lift_rotation_search(u, trials=trials, seed=seed + 1,
                              metric="euclidean_sphere")
e_ne = mollified_energy_extrapolated(best_e.field, "euclidean_sphere")
e_ut = mollified_energy_extrapolated(u, "euclidean_tensor")
print(f"lifting / tensor energy ratio: {e_ne.total / e_ut.total:.4f}   "
      f"(claim 1 + 2/pi = {1 + 2 / np.pi:.4f})\n")

print("== the unavoidable seam ==")
seam = embedded_tv(best.field, "euclidean_sphere")
faces = seam.params["jump_faces"]
print(f"{faces} jump faces; mean cost {seam.jump_part / (faces * u.spacing):.3f}"
      f" (antipodal traces cost 2)")
print(f"seam length ~ faces x h = {faces * u.spacing:.3f} "
      f"(one radius of the disk)")
print(f"projection check (max line distance to the input): "
      f"{best.projection_check}")
