"""Layer spans recorded from outside bvlift.

``Tracer.install`` replaces each layer function of bvlift at every module
binding that refers to it (``bvlift.lifting.embedded_tv``,
``bvlift.verify.avg_lifted_dist``, ...) with a wrapper that records a span:
layer name, start, end, parent span and counts computed from the call's
inputs.  Parents are kept per thread; spans opened by the worker threads of
the identity suite's pool take the pool's span as parent.  Spans stay in
memory until the benchmark reads them at the end of the run.  A run without
``--trace 1`` installs nothing.
"""

import functools
import hashlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# ---------------------------------------------------------------------------
# counts computed from a call's inputs


def half_ball_offsets(ndim, rmax):
    """Lattice offsets 0 < |k| <= rmax, one per {k, -k} pair, shape (n, ndim)."""
    r = np.arange(-rmax, rmax + 1)
    k = np.stack(np.meshgrid(*([r] * ndim), indexing="ij"), -1).reshape(-1, ndim)
    nonzero = k != 0
    lead = k[np.arange(len(k)), np.argmax(nonzero, axis=1)]
    return k[(lead > 0) & ((k * k).sum(axis=1) <= rmax * rmax)]


def pair_counts(inside, rmax):
    """Offsets, in-mask pairs and slice pairs of the mollified pair pass.

    In-mask pairs at offset k are the mask autocorrelation
    #{x : inside[x] and inside[x + k]}, taken by FFT on a grid padded by
    rmax so that no offset wraps around.  Slice pairs are the cells of the
    overlapping slices, prod(n_a - |k_a|), whether in the mask or not.
    """
    offs = half_ball_offsets(inside.ndim, rmax)
    dims = np.array(inside.shape)
    shape = tuple(int(n) + rmax for n in dims)
    spec = np.fft.rfftn(inside.astype(float), s=shape)
    auto = np.fft.irfftn(spec * np.conj(spec), s=shape)
    in_mask = np.rint(auto[tuple((offs % np.array(shape)).T)]).astype(np.int64)
    slices = np.prod(np.clip(dims - np.abs(offs), 0, None), axis=1)
    return len(offs), int(in_mask.sum()), int(slices.sum())


def valid_faces(inside):
    """Forward faces whose two cells are both in the mask."""
    total = 0
    for a in range(inside.ndim):
        lo = [slice(None)] * inside.ndim
        hi = [slice(None)] * inside.ndim
        lo[a] = slice(0, -1)
        hi[a] = slice(1, None)
        total += int(np.count_nonzero(inside[tuple(lo)] & inside[tuple(hi)]))
    return total


# ---------------------------------------------------------------------------
# spans


class Span:
    __slots__ = ("layer", "parent", "t0", "t1", "overhead", "counts",
                 "candidates")

    def __init__(self, layer, parent, counts):
        self.layer = layer
        self.parent = parent
        self.counts = counts
        self.overhead = 0.0
        self.candidates = None
        self.t0 = self.t1 = 0.0


def _self_times(spans):
    """Span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for a, b in sorted(children.get(id(s), ())):
            a, b = max(a, end), min(b, s.t1)
            if b > a:
                covered += b - a
                end = b
        out[id(s)] = (s.t1 - s.t0) - covered
    return out


class Tracer:
    """Records spans around bvlift's layer functions while a pass is open."""

    def __init__(self):
        self.spans = []
        self.passes = []
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._adopt = None        # parent of spans opened on pool threads
        self._restore = []
        self._cache = {}

    # -- span stack --------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer, counts):
        stack = self._stack()
        span = Span(layer, stack[-1] if stack else self._adopt, counts)
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def close(self, span):
        span.t1 = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def begin_pass(self):
        self.active = True
        return self.open("pass", {})

    def end_pass(self, span):
        self.close(span)
        self.active = False
        self.passes.append(span)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer, before=None, after=None):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t = time.perf_counter()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            span = tracer.open(layer, before(a) if before else {})
            span.overhead = span.t0 - t
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            t = time.perf_counter()
            if after:
                after(span, a, out)
            span.overhead += time.perf_counter() - t
            return out

        return traced

    def _mask_cached(self, kind, f, compute, *extra):
        inside = f.inside()
        key = (kind, inside.shape, hashlib.sha1(inside.tobytes()).digest(),
               extra)
        if key not in self._cache:
            self._cache[key] = compute(inside, *extra)
        return self._cache[key]

    def _pair_before(self, a):
        offsets, pairs, slices = self._mask_cached("pair", a["f"],
                                                   pair_counts, int(a["rmax"]))
        return {"offsets": offsets, "pairs": pairs, "slice_pairs": slices}

    def _face_before(self, a):
        return {"faces": self._mask_cached("face", a["f"], valid_faces)}

    def install(self):
        """Wrap every layer function at every bvlift module binding of it."""
        from bvlift import cli, constants, fields, geometry, lifting, verify

        def lines_before(a):
            f = a["f"]
            if f.N == 1:
                n = 1
            elif a["omegas"] is not None:
                n = len(a["omegas"])
            else:
                n = int(a["directions"])
            return {"directions": n}

        def read_before(a):
            return {"bytes_read": os.path.getsize(a["path"])}

        def write_after(span, a, _):
            span.counts["bytes_written"] = os.path.getsize(a["path"])

        def face_after(span, _, rep):
            # candidate energies ranked by the rotation search
            parent = span.parent
            if parent is not None and parent.layer == "lifting.rotation":
                if parent.candidates is None:
                    parent.candidates = []
                parent.candidates.append(rep.total)

        layers = [
            (fields, "_pair_sums", "fields.pair", self._pair_before, None),
            (fields, "embedded_tv", "fields.face", self._face_before,
             face_after),
            (fields, "avg_directional_energy", "fields.lines", lines_before,
             None),
            (fields, "write_field", "fields.io.write", None, write_after),
            (fields, "read_field", "fields.io.read", read_before, None),
            (lifting, "lift_rotation_search", "lifting.rotation",
             lambda a: {"trials": int(a["trials"])}, None),
            (lifting, "solve_laplace", "lifting.sor",
             lambda a: {"cells": int(np.count_nonzero(a["interior"]))},
             None),
            (geometry, "haar_rotations", "geometry.haar",
             lambda a: {"rotations": int(a["size"])}, None),
            (cli, "main", "cli", None, None),
        ] + [(constants, name, "constants.mc",
              lambda a: {"samples": int(a["samples"])}, None)
             for name in ("avg_lifted_dist", "psi_estimate", "avg_eucl_jump")]
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "bvlift" or name.startswith("bvlift.")]
        for home, name, layer, before, after in layers:
            original = getattr(home, name)
            wrapped = self._wrap(original, layer, before, after)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapped)

        tracer = self

        class TracedPool(ThreadPoolExecutor):
            span = None

            def __enter__(self):
                if tracer.active:
                    self.span = tracer.open("verify.pool",
                                            {"threads": self._max_workers})
                    tracer._adopt = self.span
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    if self.span is not None:
                        tracer._adopt = None
                        tracer.close(self.span)

        self._restore.append((verify, "ThreadPoolExecutor",
                              verify.ThreadPoolExecutor))
        verify.ThreadPoolExecutor = TracedPool
        return self

    def uninstall(self):
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self):
        """Per-pass layer metrics: times and counts summed, divided by passes."""
        n = max(1, len(self.passes))
        self_s = _self_times(self.spans)
        total = defaultdict(float)    # inclusive seconds per layer
        own = defaultdict(float)      # self seconds per layer
        calls = defaultdict(int)
        counts = defaultdict(lambda: defaultdict(int))
        ratios = []
        pool_jobs = 0.0
        threads = 0
        overhead = 0.0
        for s in self.spans:
            dur = s.t1 - s.t0
            total[s.layer] += dur
            own[s.layer] += self_s[id(s)]
            calls[s.layer] += 1
            overhead += s.overhead
            for k, v in s.counts.items():
                counts[s.layer][k] += v
            if s.candidates:
                ratios.append(min(s.candidates) / np.mean(s.candidates))
            if s.layer == "verify.pool":
                threads = max(threads, s.counts["threads"])
            elif s.parent is not None and s.parent.layer == "verify.pool":
                pool_jobs += dur

        def rate(num, den):
            return num / den if den > 0 else 0.0

        pair, face = counts["fields.pair"], counts["fields.face"]
        m = {
            "fields.pair.calls": calls["fields.pair"] / n,
            "fields.pair.self_s": own["fields.pair"] / n,
            "fields.pair.offsets": pair["offsets"] / n,
            "fields.pair.pairs": pair["pairs"] / n,
            "fields.pair.pairs_per_s": rate(pair["pairs"], own["fields.pair"]),
            "fields.pair.mask_yield": rate(pair["pairs"], pair["slice_pairs"]),
            "fields.face.calls": calls["fields.face"] / n,
            "fields.face.self_s": own["fields.face"] / n,
            "fields.face.faces": face["faces"] / n,
            "fields.face.faces_per_s": rate(face["faces"], own["fields.face"]),
            "fields.lines.calls": calls["fields.lines"] / n,
            "fields.lines.self_s": own["fields.lines"] / n,
            "fields.lines.directions":
                counts["fields.lines"]["directions"] / n,
            "fields.io.write_s": own["fields.io.write"] / n,
            "fields.io.read_s": own["fields.io.read"] / n,
            "fields.io.bytes_written":
                counts["fields.io.write"]["bytes_written"] / n,
            "fields.io.bytes_read": counts["fields.io.read"]["bytes_read"] / n,
            "lifting.rotation.calls": calls["lifting.rotation"] / n,
            "lifting.rotation.self_s": own["lifting.rotation"] / n,
            "lifting.rotation.trials":
                counts["lifting.rotation"]["trials"] / n,
            "lifting.rotation.s_per_trial":
                rate(total["lifting.rotation"],
                     counts["lifting.rotation"]["trials"]),
            "lifting.rotation.best_over_mean":
                float(np.mean(ratios)) if ratios else 0.0,
            "lifting.sor.calls": calls["lifting.sor"] / n,
            "lifting.sor.self_s": own["lifting.sor"] / n,
            "lifting.sor.cells": counts["lifting.sor"]["cells"] / n,
            "geometry.haar.calls": calls["geometry.haar"] / n,
            "geometry.haar.self_s": own["geometry.haar"] / n,
            "geometry.haar.rotations":
                counts["geometry.haar"]["rotations"] / n,
            "geometry.haar.rotations_per_s":
                rate(counts["geometry.haar"]["rotations"],
                     own["geometry.haar"]),
            "constants.mc.calls": calls["constants.mc"] / n,
            "constants.mc.self_s": own["constants.mc"] / n,
            "constants.mc.samples": counts["constants.mc"]["samples"] / n,
            "constants.mc.samples_per_s":
                rate(counts["constants.mc"]["samples"], total["constants.mc"]),
            "verify.pool.threads": threads,
            "verify.pool.overlap": rate(pool_jobs, total["verify.pool"]),
            "cli.calls": calls["cli"] / n,
            "cli.self_s": own["cli"] / n,
            "trace.overhead_frac": rate(overhead, total["pass"]),
            "trace.unattributed_s": own["pass"] / n,
        }
        return m
