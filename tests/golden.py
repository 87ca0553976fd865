"""Golden outputs of the command line: a fixed list of ``bvlift`` commands,
run in process in a temporary directory, and per command its exit code and
the sha256 of its stdout and of each file it writes.

``tests/golden.json`` holds them with the numpy version that produced them.
``tests/test_golden.py`` recomputes every command at ``BVLIFT_THREADS`` 1
and 3, and checks that the two runs agree, that their exit codes are the
recorded ones and, on the recorded numpy, that every digest is.  A change
that moves outputs on purpose rewrites the file and lists the keys it
prints:

    PYTHONPATH=src python tests/golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from bvlift.cli import main
from bvlift.verify import FIELD_KINDS

PATH = Path(__file__).with_name("golden.json")

COMMANDS = (
    [["make-field", "--kind", kind, "--grid", "32", "-o", f"{kind}.fld"]
     for kind in FIELD_KINDS]
    + [["make-field", "--kind", "halfvortex", "--grid", "32", "--d", "3",
        "--N", "3", "-o", "hv3.fld"]]
    + [cmd for name in ("halfvortex", "smooth", "jump") for cmd in (
        ["energy", f"{name}.fld", "--estimator", "mollified"],
        ["energy", f"{name}.fld", "--estimator", "directional"],
        ["energy", f"{name}.fld", "--estimator", "embedded"],
        ["lift", f"{name}.fld", "--mode", "rotation", "-o", f"{name}-r.fld"])]
    + [["energy", "halfvortex.fld", "--estimator", "directional",
        "--metric", "euclidean_tensor", "--directions", "17", "--seed", "5"],
       ["lift", "halfvortex.fld", "--metric", "euclidean_sphere", "--seed",
        "2", "-o", "halfvortex-e.fld"],
       ["lift", "halfvortex.fld", "--mode", "boundary", "--boundary",
        "halfvortex-lift.fld", "-o", "bnd.fld"],
       # a 32 x 32 x 16, d = 3 half vortex
       ["energy", "hv3.fld", "--estimator", "mollified",
        "--eps-over-h", "2,4"],
       ["energy", "hv3.fld", "--estimator", "directional", "--seed", "1"],
       ["energy", "hv3.fld", "--estimator", "embedded"],
       ["lift", "hv3.fld", "--mode", "rotation", "--seed", "1",
        "-o", "hv3-r.fld"],
       ["lift", "hv3.fld", "--mode", "rotation", "--trials", "130",
        "-o", "hv3-r130.fld"],
       ["constants", "--k", "2", "--cj", "tensor", "--c1d"],
       ["constants", "--k", "3", "--m", "4", "--ca", "2", "5", "--psi", "1.0",
        "--samples", "100000"],
       ["verify", "--suite", "identities", "--samples", "100000", "--seed",
        "3", "--report", "identities.json"],
       # mollifier balls mostly past the grid, up to 4000 cells
       ["energy", "smooth.fld", "--estimator", "mollified",
        "--eps-over-h", "2,40"],
       ["energy", "smooth.fld", "--estimator", "mollified",
        "--eps-over-h", "2,4000"],
       ["make-field", "--kind", "halfvortex", "--grid", "64",
        "-o", "hv64.fld"],
       ["make-field", "--kind", "halfvortex-lift", "--grid", "64",
        "-o", "hv64-lift.fld"],
       ["energy", "hv64.fld", "--estimator", "directional", "--seed", "1"],
       ["lift", "hv64.fld", "--mode", "boundary", "--boundary",
        "hv64-lift.fld", "-o", "hv64-bnd.fld"],
       ["verify", "--suite", "halfvortex", "--grid", "160", "--trials", "4",
        "--seed", "3", "--report", "halfvortex.json"],
       ["verify", "--suite", "repr", "--seed", "3", "--report", "repr.json"]])


def digests():
    """Key -> exit code or sha256, for every command of :data:`COMMANDS`:
    ``"<command> | exit"``, ``"<command> | stdout"`` and ``"<command> |
    <file>"`` for each file the command creates or changes."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # contextlib.chdir needs Python 3.11
        try:
            return _digests_here()
        finally:
            os.chdir(cwd)


def _digests_here():
    out, files = {}, {}  # files: name -> its last digest
    for argv in COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        key = " ".join(argv)
        out[f"{key} | exit"] = code
        out[f"{key} | stdout"] = hashlib.sha256(
            stdout.getvalue().encode()).hexdigest()
        for name in sorted(os.listdir()):
            digest = hashlib.sha256(Path(name).read_bytes()).hexdigest()
            if files.get(name) != digest:
                files[name] = out[f"{key} | {name}"] = digest
    return out


def differing(want, got):
    """The keys whose values differ or that only one of the records has."""
    return sorted(k for k in want.keys() | got.keys()
                  if want.get(k) != got.get(k))


def load():
    return json.loads(PATH.read_text())


def rewrite():
    """Recompute the digests, write :data:`PATH` and print the changed keys."""
    old = load()["digests"] if PATH.exists() else {}
    new = digests()
    PATH.write_text(json.dumps({"numpy": np.__version__, "digests": new},
                               indent=1, sort_keys=True) + "\n")
    changed = differing(old, new)
    for key in changed:
        print(key)
    print(f"{len(changed)} of {len(new)} keys changed; numpy "
          f"{np.__version__}", file=sys.stderr)


if __name__ == "__main__":
    rewrite()
