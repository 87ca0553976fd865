"""`import bvlift` loads numpy only; scipy waits for the functions that use it.

Each test starts a fresh interpreter: this one imports scipy through other
tests and through the deferred calls themselves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from bvlift.constants import k_const, m_const, sphere_area
from bvlift.lifting import boundary_cells, solve_laplace

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(code):
    """Stdout of ``code`` run by a new interpreter that imports bvlift from
    the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    out = fresh_python(
        "import sys, bvlift, bvlift.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out == "[]\n"


def test_cli_parser_is_built_by_main_not_at_import():
    out = fresh_python(
        "import bvlift.cli as cli\n"
        "print(cli._parser.cache_info().currsize)\n"
        "cli.main(['constants', '--k', '2'])\n"
        "cli.main(['constants', '--k', '3'])\n"
        "print(cli._parser.cache_info().currsize)")
    assert out.splitlines()[0] == "0" and out.splitlines()[-1] == "1"


def test_repr_fields_load_no_scipy():
    # the repr suite's analytic values need K_2 = 2/pi only
    out = fresh_python(
        "import sys\n"
        "from bvlift.verify import _repr_fields\n"
        "_repr_fields()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out == "[]\n"


def test_constants_load_no_scipy():
    # Gamma at integers and half-integers is a factorial form
    out = fresh_python(
        "import sys\n"
        "from bvlift.constants import m_const, sphere_area\n"
        "m_const(4), sphere_area(5)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out == "[]\n"


def test_deferred_imports_give_the_same_values(tmp_path):
    # a 12x12 disk with random boundary signs; float reprs and raw array
    # bytes compare bit for bit
    c = np.arange(12) - 5.5
    mask = c[:, None] ** 2 + c[None, :] ** 2 < 30
    bnd = boundary_cells(mask)
    values = np.random.default_rng(2).choice([-1.0, 1.0], size=mask.shape)
    np.savez(tmp_path / "case.npz", values=values, bnd=bnd,
             interior=mask & ~bnd)
    out = fresh_python(
        "import sys, json\n"
        "import numpy as np\n"
        "from bvlift.constants import k_const, m_const, sphere_area\n"
        "from bvlift.lifting import solve_laplace\n"
        "assert 'scipy' not in sys.modules\n"
        f"case = np.load({str(tmp_path / 'case.npz')!r})\n"
        "phi = solve_laplace(case['values'], case['bnd'], case['interior'])\n"
        "print(json.dumps([repr(k_const(3).value), repr(m_const(4).value),\n"
        "                  repr(sphere_area(5)), phi.tobytes().hex()]))")
    phi = solve_laplace(values, bnd, mask & ~bnd)
    assert json.loads(out) == [repr(k_const(3).value), repr(m_const(4).value),
                               repr(sphere_area(5)), phi.tobytes().hex()]


def test_boundary_lift_loads_no_scipy_fft():
    # the Laplace solve needs scipy.sparse only (scipy.fft costs ~5 MB RSS)
    out = fresh_python(
        "import sys\n"
        "from bvlift.lifting import lift_with_boundary\n"
        "from bvlift.verify import make_half_vortex, make_half_vortex_lifting\n"
        "lift_with_boundary(make_half_vortex(32),\n"
        "                   make_half_vortex_lifting(32), trials=4)\n"
        "print('scipy.sparse' in sys.modules, 'scipy.fft' in sys.modules)")
    assert out == "True False\n"
