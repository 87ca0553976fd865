#!/usr/bin/env python3
"""bvlift benchmark: one workload, timed from outside the package.

    python3 perfbench/run.py --workload halfvortex --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; bvlift is imported from ``src/``.
The workload repeats whole passes for about ``--seconds`` seconds (at least
one pass), checks every pass's outputs, and prints one JSON line of
information followed by the result line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the layer spans of
``spans.py`` are installed and the per-layer metrics are reported instead.
"""

import os

# One BLAS thread: the identity pool already uses both cores of a 2-core box.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_run"       # scratch space and the digest record
SETUP_REPEATS = 3

SETUP_CODE = """\
import sys
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.make({name!r}, {seed})
"""


def measure_setup(name, seed, cwd):
    """Wall time of a fresh interpreter importing bvlift and making inputs."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE), name=name,
                             seed=seed)
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=cwd, check=True)
    return time.perf_counter() - t


def code_digest():
    """Hash of the package and benchmark sources: digests are compared only
    between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted(SRC.glob("bvlift/*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_recorded_digest(key, digest):
    """Compare with the digest an earlier run of the same key recorded."""
    record = STATE / "digests.json"
    seen = json.loads(record.read_text()) if record.exists() else {}
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    tmp = record.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, record)
    return True


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            **{v: os.environ[v] for v in BLAS_THREADS}}


def run(args):
    import workloads

    workdir = STATE / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup = [measure_setup(args.workload, args.seed, workdir)
                 for _ in range(SETUP_REPEATS)]
        os.chdir(workdir)
        wl = workloads.make(args.workload, args.seed)
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer().install()

        walls, cpus, cmd_s, digests, gates = [], [], [], [], []
        start = time.perf_counter()
        while True:
            root = tracer.begin_pass() if tracer else None
            steps = wl.steps()
            times = []
            c0 = time.process_time()
            t0 = time.perf_counter()
            for step in steps:
                t = time.perf_counter()
                step()
                times.append(time.perf_counter() - t)
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            if tracer:
                tracer.end_pass(root)
            cmd_s.append(times)
            pass_gates, digest = wl.check()
            gates += pass_gates
            digests.append(digest)
            elapsed = time.perf_counter() - start
            if elapsed + max(walls) > args.seconds:
                break
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    key = f"{args.workload}:{args.seed}:{code_digest()}"
    gates.append(("passes of this run give one output digest",
                  len(set(digests)) == 1))
    gates.append(("digest matches earlier runs of this code and seed",
                  check_recorded_digest(key, digests[0])))
    failures = [name for name, ok in gates if not ok]

    if tracer:
        tracer.uninstall()
        metrics = {**tracer.layer_metrics(), **wl.verify_metrics()}
        units = layer_unit
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cmd_gmean_s":
                statistics.median(map(statistics.geometric_mean, cmd_s)),
            "cmd_max_s": statistics.median(map(max, cmd_s)),
        }
        units = e2e_unit
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": len(walls), "commands_per_pass": len(steps),
            "pass_wall_s": walls, "pass_cpu_s": cpus, "pass_cmd_s": cmd_s,
            "setup_samples_s": setup,
            "fail_frac": len(failures) / len(gates), "failures": failures,
            "digest": digests[0], "env": environment()}
    print(json.dumps({"info": info}))
    return {"correct": not failures, "attempted": len(gates),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units(k)}
                        for k, v in metrics.items()}}


def e2e_unit(name):
    return {"peak_rss_mb": "MB"}.get(name, "s")


def layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_s") or last == "s_per_trial":
        return "s"
    if last.startswith("bytes"):
        return "B"
    if last in ("mask_yield", "best_over_mean", "overlap", "max_tol_ratio",
                "overhead_frac"):
        return "ratio"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["halfvortex", "identities", "fieldfile"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "bvlift" / "__init__.py").is_file():
        print(f"error: no bvlift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
