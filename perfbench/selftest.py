#!/usr/bin/env python3
"""Self-test of the benchmark's counts and of tracing's effect on outputs.

    python3 perfbench/selftest.py

1. The counts computed from a call's inputs equal what the package's own
   loops visit: lattice offsets and in-mask pairs of the mollified pair pass
   (against ``bvlift.fields._half_offsets`` and the slicing of
   ``_pair_sums``) and valid forward faces, on random 2D and 3D masks.
2. The ``fieldfile`` workload, run once untraced and twice traced with one
   seed, gives the same output digest with and without tracing and the same
   counts in both traced runs.  (Field-file bytes depend on the seed: the
   signs of a lifting are written out.)
Takes about a minute; exits 1 on the first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bvlift.fields import _half_offsets  # noqa: E402
from spans import pair_counts, valid_faces  # noqa: E402

COUNT_KEYS = ("calls", "offsets", "pairs", "faces", "directions",
              "bytes_written", "bytes_read", "trials", "cells", "rotations",
              "samples", "threads", "checks")


def reference_pair_counts(inside, rmax):
    offs = _half_offsets(inside.ndim, rmax)
    pairs = slices = 0
    for off in offs:
        src = tuple(slice(max(0, -o), min(n, n - o))
                    for o, n in zip(off, inside.shape))
        dst = tuple(slice(max(0, o), min(n, n + o))
                    for o, n in zip(off, inside.shape))
        ok = inside[src] & inside[dst]
        pairs += int(ok.sum())
        slices += ok.size
    return len(offs), pairs, slices


def reference_faces(inside):
    total = 0
    for idx in np.ndindex(*inside.shape):
        for a in range(inside.ndim):
            nb = list(idx)
            nb[a] += 1
            if nb[a] < inside.shape[a] and inside[idx] and inside[tuple(nb)]:
                total += 1
    return total


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def run_bench(seed, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fieldfile",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, check=True, capture_output=True, text=True)
    info, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    check(result["correct"], f"fieldfile seed={seed} trace={trace} correct")
    return info["info"], result["metrics"]


def main():
    rng = np.random.default_rng(0)
    for shape, rmax in (((23, 17), 6), ((40, 31), 12), ((9, 11, 7), 4)):
        inside = rng.random(shape) < 0.7
        check(pair_counts(inside, rmax) == reference_pair_counts(inside, rmax),
              f"pair counts on a random {shape} mask, rmax={rmax}")
        check(valid_faces(inside) == reference_faces(inside),
              f"valid faces on a random {shape} mask")

    plain, _ = run_bench(5, 0)
    traced, m5 = run_bench(5, 1)
    _, again = run_bench(5, 1)
    check(plain["digest"] == traced["digest"],
          "traced and untraced runs give one output digest")
    counts = [k for k in m5 if k.rsplit(".", 1)[-1] in COUNT_KEYS]
    for k in counts:
        check(m5[k]["value"] == again[k]["value"], f"{k} repeats across runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
