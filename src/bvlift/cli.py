"""Command-line shell over the library: one library call per subcommand.

Exit codes: 0 success, 1 verification failure, 2 malformed input (any
ValueError or OSError, a missing or unwritable file and a command line the
parser rejects included) or an input too large to hold (MemoryError), 3
boundary data that is not a lifting of the field (BoundaryMismatchError), 4
under-resolved mollifier (UnderResolvedError).  Only :func:`main` turns an
exception into an exit code, by its type, and prints one ``error:`` line.
Outputs are written atomically (temp file + rename), with the mode the
umask gives a new file, and are byte identical for identical (command,
seed).
"""

import argparse
import functools
import json
import os
import sys
import tempfile
from pathlib import Path

from . import constants as consts
from . import verify
from .fields import (METRICS, UnderResolvedError, avg_directional_energy,
                     embedded_tv, mollified_energy,
                     mollified_energy_extrapolated, read_field, write_field)
from .lifting import (BoundaryMismatchError, lift_greedy_1d,
                      lift_rotation_search, lift_with_boundary)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_BOUNDARY = 3
EXIT_UNDER_RESOLVED = 4

# The flags each lift mode and energy estimator reads; a flag's default
# dest is the keyword it passes on.  Its command's other flags exit 2.
READS = {
    "lift": {"rotation": ["--trials", "--seed", "--metric"],
             "greedy1d": [],
             "boundary": ["--trials", "--seed"]},
    "energy": {"mollified": ["--metric", "--eps-over-h", "--no-extrapolation"],
               "directional": ["--metric", "--directions", "--seed"],
               "embedded": ["--metric", "--jump-threshold"]},
}
# --no-extrapolation measures at the first of the library's default radii
_MULTIPLIERS = mollified_energy_extrapolated.__defaults__[-1]
# The flags of constants that only its Monte Carlo averages read, with their
# defaults; given without an average, they exit 2.
_AVERAGE_FLAGS = {"d": 3, "samples": 1_000_000, "seed": 0}


def _read_flags(args, mode):
    """The given flags that ``mode`` reads, as library keywords; ValueError
    naming each given flag of its command that it does not read."""
    table = READS[args.command]
    given = {flag: getattr(args, flag[2:].replace("-", "_"))
             for flags in table.values() for flag in flags}
    given = {flag: val for flag, val in given.items() if val is not None}
    unread = [flag for flag in given if flag not in table[mode]]
    if unread:
        raise ValueError(f"{args.command} {mode} does not read "
                         f"{', '.join(unread)}")
    return {flag[2:].replace("-", "_"): val for flag, val in given.items()}


def _check_output(path):
    """Raise OSError naming ``path`` unless its directory exists and is
    writable; commands call it before they compute anything."""
    d = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(d):
        raise FileNotFoundError(f"output directory does not exist: {path}")
    if not os.access(d, os.W_OK):
        raise PermissionError(f"output directory is not writable: {path}")


def _atomic_write(path, write):
    """Call ``write(tmp)`` on a temp file beside ``path``, then rename it,
    with the mode ``open(path, "w")`` would create under the umask."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".bvlift-")
    os.close(fd)
    try:
        write(tmp)
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def cmd_make_field(args):
    _check_output(args.output)
    f = verify.make_field(args.kind, args.grid, d=args.d, N=args.N,
                          slope=args.slope)
    _atomic_write(args.output, lambda tmp: write_field(f, tmp))
    print(f"wrote {args.output}: dims={f.dims} d={f.d} kind={f.kind}")
    return EXIT_OK


def cmd_energy(args):
    kw = _read_flags(args, args.estimator)
    f = read_field(args.input)
    mults = kw.pop("eps_over_h", _MULTIPLIERS)  # read by mollified only
    if args.estimator == "directional":
        rep = avg_directional_energy(f, **kw)
    elif args.estimator == "embedded":
        rep = embedded_tv(f, **kw)
    elif kw.pop("no_extrapolation", False):
        rep = mollified_energy(f, mults[0] * f.spacing, **kw)
    else:
        rep = mollified_energy_extrapolated(f, multipliers=mults, **kw)
    sys.stdout.write(_json_dumps(rep.to_dict()))
    return EXIT_OK


def cmd_lift(args):
    if (args.mode == "boundary") != bool(args.boundary):
        raise ValueError("--boundary FILE is required for boundary mode "
                         "and taken by no other mode")
    kw = _read_flags(args, args.mode)
    out = args.output or (os.path.splitext(args.input)[0] + ".lifted.fld")
    sidecar = os.path.splitext(out)[0] + ".json"
    if sidecar == out:
        raise ValueError(f"output {out} is its own sidecar path; "
                         "name the lifted field other than *.json")
    for path in (out, sidecar):
        for src in (args.input, args.boundary):
            if src and os.path.realpath(path) == os.path.realpath(src):
                raise ValueError(f"output {path} would replace an input")
    _check_output(out)  # the sidecar goes beside the output
    u = read_field(args.input)

    if args.mode == "greedy1d":
        res = lift_greedy_1d(u)
    elif args.mode == "rotation":
        res = lift_rotation_search(u, **kw)
    else:
        res = lift_with_boundary(u, read_field(args.boundary), **kw)
    r = res.direction
    # a sidecar that is no JSON is rejected before either file is written
    side = _json_dumps({"mode": args.mode, "energy": res.energy.to_dict(),
                        "direction": None if r is None else r.tolist(),
                        "projection_check": res.projection_check})
    _atomic_write(out, lambda tmp: write_field(res.field, tmp))
    _atomic_write(sidecar, lambda tmp: Path(tmp).write_text(side))
    print(f"wrote {out} and {sidecar}")
    return EXIT_OK


def cmd_constants(args):
    # each average's flag has its name as dest
    thetas = {name: getattr(args, name) for name in consts.AVERAGES}
    given = {key: getattr(args, key) for key in _AVERAGE_FLAGS
             if getattr(args, key) is not None}
    if given and all(theta is None for theta in thetas.values()):
        raise ValueError(
            f"constants reads {', '.join('--' + key for key in given)} only "
            "with --psi, --avg-dist or --avg-jump")
    mc = {**_AVERAGE_FLAGS, **given}
    table = {}

    def put(name, res):
        table[name] = {"value": res.value, "method": res.method,
                       "error_estimate": res.error_estimate,
                       "samples_or_nodes": res.samples_or_nodes}

    if args.k is not None:
        put(f"K_{args.k}", consts.k_const(args.k))
    if args.m is not None:
        put(f"M_{args.m}", consts.m_const(args.m))
    if args.ca is not None:
        Nv, dv = args.ca
        put(f"C_a_{Nv}_{dv}", consts.ca_const(Nv, dv))
    if args.cj is not None:
        put(f"C_j_{args.cj}", consts.cj_estimate(args.cj))
    if args.c1d:
        put("C_1d_tensor", consts.c1d_const())
    for name, (estimate, _, _) in consts.AVERAGES.items():
        if thetas[name] is not None:
            put(f"{name}_{thetas[name]:.6f}",
                estimate(thetas[name], mc["d"], mc["samples"], mc["seed"]))
    if not table:
        raise ValueError("no constants requested")
    sys.stdout.write(_json_dumps(table))
    return EXIT_OK


def cmd_verify(args):
    settings = dict(grid=args.grid, trials=args.trials, samples=args.samples,
                    seed=args.seed)
    out = args.report
    _check_output(out)
    if args.suite == "all":
        reports = verify.run_all_suites(**settings)
    else:
        reports = verify.SUITES[args.suite](**settings)
    _atomic_write(out, lambda tmp: verify.write_report(reports, tmp))
    n_fail = sum(1 for r in reports if not r.passed)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: measured={r.measured:.6g} "
              f"claimed={r.claimed:.6g} tol={r.tolerance:.3g} ({r.kind}) "
              f"[{r.runtime_ms} ms]", file=sys.stderr)
    print(f"report written to {out}: {len(reports) - n_fail}/{len(reports)} "
          f"checks passed", file=sys.stderr)
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints one line and exits 2; -h exits 0
        raise ValueError(message)


def build_parser():
    p = _Parser(
        prog="bvlift",
        description="Total-variation energies and sphere-valued liftings of "
                    "line fields on grids")
    sub = p.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make-field", help="generate test fields")
    mk.add_argument("--kind", required=True, choices=verify.FIELD_KINDS)
    mk.add_argument("--grid", type=int, default=256)
    mk.add_argument("--d", type=int, default=2)
    mk.add_argument("--N", type=int, default=2)
    mk.add_argument("--slope", type=float, default=1.2)
    mk.add_argument("-o", "--output", required=True)
    mk.set_defaults(fn=cmd_make_field)

    en = sub.add_parser("energy", help="energy of a field file")
    en.add_argument("input")
    en.add_argument("--estimator", default="embedded",
                    choices=["mollified", "directional", "embedded"])
    en.add_argument("--metric", choices=METRICS)
    en.add_argument("--directions", type=int)
    en.add_argument("--seed", type=int)
    en.add_argument("--jump-threshold", type=float)
    en.add_argument("--eps-over-h",
                    type=lambda s: [float(x) for x in s.split(",")])
    en.add_argument("--no-extrapolation", action="store_true", default=None)
    en.set_defaults(fn=cmd_energy)

    lf = sub.add_parser("lift", help="compute a lifting of a line field")
    lf.add_argument("input")
    lf.add_argument("--mode", default="rotation",
                    choices=["rotation", "greedy1d", "boundary"])
    lf.add_argument("--trials", type=int)
    lf.add_argument("--seed", type=int)
    lf.add_argument("--metric", choices=METRICS)
    lf.add_argument("--boundary", help="unit field file with boundary data")
    lf.add_argument("-o", "--output")
    lf.set_defaults(fn=cmd_lift)

    co = sub.add_parser("constants", help="evaluate the optimality constants")
    co.add_argument("--k", type=int, help="spherical average of |omega.e|")
    co.add_argument("--m", type=int, help="averaged-distance constant M(d)")
    co.add_argument("--ca", type=int, nargs=2, metavar=("N", "D"))
    co.add_argument("--cj", choices=["tensor"],
                    help="'tensor' for the tensor embedding")
    co.add_argument("--c1d", action="store_true")
    co.add_argument("--psi", dest="psi", type=float, metavar="THETA")
    co.add_argument("--avg-dist", dest="avg_lifted_dist", type=float,
                    metavar="THETA")
    co.add_argument("--avg-jump", dest="avg_eucl_jump", type=float,
                    metavar="THETA")
    for key, default in _AVERAGE_FLAGS.items():
        co.add_argument(f"--{key}", type=int,
                        help=f"for the averages only (default {default})")
    co.set_defaults(fn=cmd_constants)

    ve = sub.add_parser("verify", help="run the verification suites")
    ve.add_argument("--suite", default="all", choices=[*verify.SUITES, "all"])
    ve.add_argument("--grid", type=int, default=256)
    ve.add_argument("--trials", type=int, default=64)
    ve.add_argument("--samples", type=int, default=1_000_000)
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--report", default="./report.json", help="report path")
    ve.set_defaults(fn=cmd_verify)
    return p


# one parser per process, built on the first main call, not at import;
# each parse_args call fills a new namespace from the flags it is given
_parser = functools.cache(build_parser)


def main(argv=None):
    """Run one command; the type of a rejected input picks the exit code."""
    try:
        args = _parser().parse_args(argv)
        if (getattr(args, "seed", None) or 0) < 0:  # numpy's names no flag
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        if isinstance(e, UnderResolvedError):
            return EXIT_UNDER_RESOLVED
        if isinstance(e, BoundaryMismatchError):
            return EXIT_BAD_BOUNDARY
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
