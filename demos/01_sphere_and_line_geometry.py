#!/usr/bin/env python3
"""Pointwise geometry: sphere/line distances, the tensor embedding, folding maps.

A line field takes values in the space of undirected directions {+-n}.  This
script walks through the basic quantities: the geodesic distance folds at a
right angle, the tensor embedding measures jumps by sin(theta), and the
folding map F orients a direction toward the upper hemisphere.  A rotated
fold R^{-1} F(R u) is the sign flip sgn(u.r) u along the direction
r = R^T e_d, so liftings are named by directions.
"""

import numpy as np

from bvlift import (canonicalize, dist_proj, dist_sphere, embed_tensor,
                    eucl_jump_cost, lift_sign, random_unit_vectors,
                    uniaxial_q)

d = 3
e1, e3 = np.eye(d)[0], np.eye(d)[2]

print("== distances ==")
for theta in (0.0, np.pi / 4, np.pi / 2, 2 * np.pi / 3, np.pi):
    m = np.cos(theta) * e1 + np.sin(theta) * np.eye(d)[1]
    print(f"theta={theta:5.3f}  sphere={dist_sphere(e1, m):5.3f}  "
          f"line={dist_proj(e1, m):5.3f}  tensor-chord={eucl_jump_cost(e1, m):5.3f}")
print("the line distance folds at pi/2; the tensor chord is sin(theta)\n")

print("== tensor embedding ==")
u = canonicalize(np.array([1.0, 1.0, 0.0]) / np.sqrt(2))
Q = embed_tensor(u)
print("Phi([n]) for the diagonal direction:\n", Q)
print("Frobenius norm:", np.linalg.norm(Q), "= 1/sqrt(2) =", 1 / np.sqrt(2))
print("sign independent:", np.array_equal(Q, embed_tensor(-u)))
print("uniaxial Q-tensor (order parameter 0.6), trace =",
      np.trace(uniaxial_q(u, 0.6)), "\n")

print("== folding map and its rotations ==")
n = np.array([0.8, 0.0, -0.6])
print("F flips the lower hemisphere: F(n) =", lift_sign(e3, n) * n)
print("F is symmetric: F(-n) == F(n):",
      np.array_equal(lift_sign(e3, -n) * -n, lift_sign(e3, n) * n))
r = random_unit_vectors(d, 1, 7)[0]  # r = R^T e_d of a Haar rotation R
u = canonicalize(n)
lifted = lift_sign(r, u) * u  # R^{-1} F(R u) is a sign flip of u
print("direction r =", r)
print("rotated lifting L_r([n]) =", lifted)
print("it projects back to the same line:", dist_proj(lifted, u) == 0.0)
