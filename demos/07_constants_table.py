#!/usr/bin/env python3
"""Every constant in one table, with the method that produced it.

K_N weights jumps in the direction-averaged energy; M and C^a(N, d) bound the
smooth part of a lifting's energy; C^j is the jump constant of the tensor
embedding; the interval case has its own sharp constant sqrt(2).
"""

import numpy as np

from bvlift import (ball_volume, c1d_const, ca_const, cj_estimate, k_const,
                    m_const, sphere_area)

rows = []
for N in (1, 2, 3, 4):
    r = k_const(N)
    rows.append((f"K_{N}", r))
for d in (2, 3, 4, 5, 6):
    r = m_const(d)
    rows.append((f"M({d})", r))
for (N, d) in ((1, 3), (2, 2), (2, 3), (3, 3), (2, 4), (2, 5), (4, 5)):
    rows.append((f"C^a({N},{d})", ca_const(N, d)))
rows.append(("C^j(tensor)", cj_estimate("tensor")))
rows.append(("C(1d,tensor)", c1d_const()))

print(f"{'constant':14} {'value':>16} {'method':>14} {'error':>10}")
for name, r in rows:
    print(f"{name:14} {r.value:16.12f} {r.method:>14} {r.error_estimate:10.2e}")

print("\nreference values:")
print(f"  2/pi           = {2 / np.pi:.12f}")
print(f"  1 + 2/pi       = {1 + 2 / np.pi:.12f}")
print(f"  1 + 1/sqrt(2)  = {1 + 1 / np.sqrt(2):.12f}")
print(f"  7/4            = {7 / 4:.12f}")
print(f"  sqrt(2)        = {np.sqrt(2):.12f}")
print(f"\n  M(d) always equals 2 vol(B^(d-2)): "
      f"{all(abs(m_const(d).value - 2 * ball_volume(d - 2)) < 1e-9 for d in range(2, 7))}")
print(f"  1 + 2 M(d) / area(S^(d-1)) = 1 + 2/pi in every d: "
      f"{all(abs(1 + 2 * m_const(d).value / sphere_area(d - 1) - 1 - 2 / np.pi) < 1e-9 for d in range(2, 7))}")
