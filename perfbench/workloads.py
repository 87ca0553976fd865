"""The benchmark's workloads: inputs from a seed, the steps of one pass, checks.

Every workload runs in the current directory, which the runner makes a fresh
scratch directory, so the CLI outputs can be named by relative paths and hash
the same from run to run.

* ``halfvortex`` -- ``run_half_vortex_suite(grid=256, trials=64)``, the work
  of ``bvlift verify --suite halfvortex``: four mollified pair passes and two
  rotation searches, no Monte Carlo and no I/O.
* ``identities`` -- ``run_identity_suite(samples=1e6)`` on min(2, nproc)
  threads: Monte Carlo over Haar rotations only; never touches ``fields``.
* ``fieldfile`` -- eleven ``bvlift.cli.main`` calls in process: field files
  written and read back, many small face-kernel calls, Laplace SOR and 3D
  line bundles.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import traceback

import numpy as np

from bvlift import cli, verify
from bvlift.fields import read_field
from bvlift.lifting import boundary_cells


def tol_ratio(r):
    """|measured - claimed| as a share of the allowed deviation (<= 1 passes)."""
    dev = r.measured - r.claimed
    allowed = r.tolerance * (abs(r.claimed) if r.kind == "rel" else 1.0)
    if r.kind == "le":
        excess = dev
    elif r.kind == "ge":
        excess = -dev
    else:
        excess = abs(dev)
    return excess / allowed if allowed > 0 else 0.0


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _same_field(g, f):
    return (g.dims == f.dims and g.spacing == f.spacing
            and g.origin == f.origin and g.kind == f.kind
            and np.array_equal(g.values, f.values)
            and np.array_equal(g.inside(), f.inside()))


def _carries_trace():
    """The boundary lifting equals the prescribed field on boundary cells."""
    n, n0 = read_field("hv2b.fld"), read_field("hv2n.fld")
    bnd = boundary_cells(n.inside())
    return np.array_equal(n.values[bnd], n0.values[bnd])


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Suite:
    """One verify suite call per pass; the report.json payload is hashed."""

    def __init__(self, run):
        self._run = run
        self.reports = []

    def steps(self):
        return [self._call]

    def _call(self):
        self.reports = self._run()

    def check(self):
        verify.write_report(self.reports, "report.json")
        gates = [(r.name, bool(r.passed)) for r in self.reports]
        return gates, _sha256("report.json")

    def verify_metrics(self):
        return {"verify.checks": len(self.reports),
                "verify.max_tol_ratio": max(tol_ratio(r)
                                            for r in self.reports)}


class FieldFile:
    """Eleven CLI commands; outputs are checked and hashed after each pass."""

    HALF_VORTEX_3D = dict(grid=64, d=3, N=3)   # 64 x 64 x 32 cells, d = 3

    def __init__(self, seed):
        s = str(seed)
        hv3 = self.HALF_VORTEX_3D
        self.commands = [
            ["make-field", "--kind", "halfvortex", "--grid", "256",
             "-o", "hv2.fld"],
            ["make-field", "--kind", "halfvortex-lift", "--grid", "256",
             "-o", "hv2n.fld"],
            ["make-field", "--kind", "halfvortex", "--grid", str(hv3["grid"]),
             "--d", str(hv3["d"]), "--N", str(hv3["N"]), "-o", "hv3.fld"],
            ["energy", "hv2.fld", "--estimator", "embedded",
             "--metric", "euclidean_tensor"],
            ["energy", "hv2.fld", "--estimator", "directional", "--seed", s],
            ["energy", "hv3.fld", "--estimator", "embedded"],
            ["energy", "hv3.fld", "--estimator", "directional", "--seed", s],
            ["lift", "hv2.fld", "--mode", "rotation", "--seed", s],
            ["lift", "hv3.fld", "--mode", "rotation", "--seed", s],
            ["lift", "hv2.fld", "--mode", "boundary", "--boundary", "hv2n.fld",
             "--seed", s, "-o", "hv2b.fld"],
            ["energy", "hv2b.fld", "--estimator", "embedded",
             "--metric", "euclidean_sphere"],
        ]
        self.results = []

    def steps(self):
        self.results = []
        return [lambda argv=argv: self._call(argv) for argv in self.commands]

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # a crash fails this command's gate
                code = None
                traceback.print_exc()
        self.results.append((argv, code, out.getvalue(), err.getvalue()))

    def _tensor_energy(self):
        return next(json.loads(out)["total"]
                    for argv, _, out, _ in self.results
                    if "euclidean_tensor" in argv)

    def check(self):
        gates = [(" ".join(argv[:2]), code == 0)
                 for argv, code, _, _ in self.results]

        def gate(name, test):
            try:
                ok = bool(test())
            except (OSError, ValueError, KeyError, StopIteration):
                ok = False
            gates.append((name, ok))

        for side in ("hv2.lifted.json", "hv3.lifted.json", "hv2b.json"):
            gate(f"{side} projection_check == 0",
                 lambda: _load_json(side)["projection_check"] == 0)
        gate("boundary lift carries the prescribed trace", _carries_trace)
        gate("tensor energy of the 256^2 half vortex within 3% of pi",
             lambda: abs(self._tensor_energy() - math.pi) <= 0.03 * math.pi)
        made = {"hv2.fld": lambda: verify.make_half_vortex(256),
                "hv2n.fld": lambda: verify.make_half_vortex_lifting(256),
                "hv3.fld": lambda: verify.make_half_vortex(
                    **self.HALF_VORTEX_3D)}
        for path, build in made.items():
            gate(f"read_field(write_field(f)) bit-identical: {path}",
                 lambda: _same_field(read_field(path), build()))

        h = hashlib.sha256()
        for argv, code, out, _ in self.results:
            h.update(json.dumps([argv, code, out]).encode())
        for name in sorted(os.listdir(".")):
            h.update(name.encode())
            h.update(_sha256(name).encode())
        return gates, h.hexdigest()

    def verify_metrics(self):
        return {"verify.checks": 0, "verify.max_tol_ratio": 0.0}


def make(name, seed):
    """The workload ``name`` with inputs drawn from ``seed``."""
    if name == "halfvortex":
        return Suite(lambda: verify.run_half_vortex_suite(
            grid=256, trials=64, seed=seed))
    if name == "identities":
        threads = min(2, os.cpu_count() or 1)
        return Suite(lambda: verify.run_identity_suite(
            samples=1_000_000, seed=seed, threads=threads))
    if name == "fieldfile":
        return FieldFile(seed)
    raise ValueError(f"unknown workload {name!r}")

