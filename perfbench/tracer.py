"""Span tracer that wraps nstorus functions from outside the package.

The tracer replaces selected public functions and methods of the nstorus
modules with thin wrappers that record a span (name, start, end, parent)
per call, and replaces the ``numpy.fft`` transforms with wrappers that
count calls, flops and bytes and charge them to the module of the
innermost open span.  A function imported by name into another module
(``from .nonlinear import bilinear_b`` in ``solver``) has a separate
binding there, so every module namespace that holds the original object
is patched.  ``restore`` puts every original object back.

Flops use the usual radix-2 model, 5 L log2 L per complex transform of
length L and half that for a real one; bytes are input plus output array
sizes.  Both are computed from array shapes, not measured.
"""

from __future__ import annotations

import gzip
import inspect
import math
import os
import statistics
import sys
import time
from array import array

import numpy as np

# The public entry points the workloads reach, as (module, attribute path, span
# name); a dotted path names a method.
SPANS = (
    ("nonlinear", "bilinear_b", "nonlinear.bilinear_b"),
    ("nonlinear", "trilinear", "nonlinear.trilinear"),
    ("nonlinear", "energy_lemma_ensemble", "nonlinear.energy_lemma_ensemble"),
    ("besov", "besov_norm", "besov.besov_norm"),
    ("besov", "besov_value", "besov.besov_value"),
    ("besov", "block_lp_norms", "besov.block_lp_norms"),
    ("besov", "lp_norm", "besov.lp_norm"),
    ("fields", "SpectralField.full_coefficient_arrays", "fields.full_coefficient_arrays"),
    ("fields", "random_field", "fields.random_field"),
    ("fields", "save_snapshot", "fields.save_snapshot"),
    ("stokes", "stokes_solve", "stokes.stokes_solve"),
    ("stokes", "linear_regularity_report", "stokes.linear_regularity_report"),
    ("solver", "Stepper.step", "solver.Stepper.step"),
    ("solver", "integrate", "solver.integrate"),
    ("solver", "solve_direct", "solver.solve_direct"),
    ("solver", "data_f_norm", "solver.data_f_norm"),
    ("solver", "picard_iterate", "solver.picard_iterate"),
    ("solver", "solve_local", "solver.solve_local"),
    ("solver", "split_data", "solver.split_data"),
    ("solver", "solve_y", "solver.solve_y"),
    ("solver", "solve_x", "solver.solve_x"),
    ("solver", "build_energy_monitor", "solver.build_energy_monitor"),
    ("solver", "regularity_norms_y", "solver.regularity_norms_y"),
    ("solver", "solve_split", "solver.solve_split"),
    ("solver", "estimate_empirical_constants", "solver.estimate_empirical_constants"),
    ("trajectory", "Trajectory.besov_series", "trajectory.besov_series"),
    ("trajectory", "Trajectory.deriv_besov_series", "trajectory.deriv_besov_series"),
    ("trajectory", "Trajectory.w1r_norm", "trajectory.w1r_norm"),
    ("trajectory", "Trajectory.to_csv", "trajectory.to_csv"),
    ("admissible", "region_conditions", "admissible.region_conditions"),
    ("admissible", "scan_region", "admissible.scan_region"),
    ("admissible", "check_local", "admissible.check_local"),
    ("admissible", "check_global", "admissible.check_global"),
    ("admissible", "derive_exponents", "admissible.derive_exponents"),
    ("admissible", "reproduce_reference_table", "admissible.reproduce_reference_table"),
)

# Call counts only: these run too often for a span to be cheap.
COUNTERS = (
    ("fields", "SpectralField.__init__", "fields.SpectralField.ctor"),
    ("fields", "SpectralField.to_grid", "fields.to_grid"),
)

# numpy.fft transforms: name -> (kind, default number of transformed axes).
# kind "c" is complex-to-complex, "r" real-to-complex, "i" complex-to-real.
FFTS = {
    "fft": ("c", 1), "ifft": ("c", 1), "fft2": ("c", 2), "ifft2": ("c", 2),
    "fftn": ("c", None), "ifftn": ("c", None),
    "rfft": ("r", 1), "rfft2": ("r", 2), "rfftn": ("r", None),
    "irfft": ("i", 1), "irfft2": ("i", 2), "irfftn": ("i", None),
}

ROOT_SPAN = "harness.op"  # wraps each op, so time outside nstorus spans shows


def _fft_axes(bound: dict, default_count, ndim: int) -> tuple:
    axes = bound.get("axes")
    if axes is None and "axis" in bound:
        axes = (bound["axis"],)
    if axes is None:
        count = ndim if default_count is None else default_count
        shape = bound.get("s")
        if default_count is None and shape is not None:
            count = len(shape)
        axes = tuple(range(-count, 0))
    return tuple(a % ndim for a in axes)


def fft_cost(kind: str, default_count, bound: dict, inp: np.ndarray,
             out: np.ndarray) -> tuple[float, int]:
    """Computed (flop, bytes) of one transform call."""
    ref = inp if kind == "r" else out  # the complex array, or the real one
    axes = _fft_axes(bound, default_count, ref.ndim)
    length = math.prod(ref.shape[a] for a in axes)
    size = ref.size
    per_point = 5.0 if kind == "c" else 2.5
    flop = per_point * size * math.log2(length) if length > 1 else 0.0
    return flop, int(inp.nbytes + out.nbytes)


class Tracer:
    """In-memory spans and counters over one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.extra: dict[str, float] = {}
        self.fft: dict[str, list] = {}
        self._patches: list = []

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, after=None):
        idx = self._name_id(name)
        kind, start, end, parent, stack = self.kind, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(kind)
            kind.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _fft_wrapper(self, name: str, fn):
        kind, default_count = FFTS[name]
        signature = inspect.signature(fn)
        stack, names, kinds = self._stack, self.names, self.kind

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            flop, nbytes = fft_cost(kind, default_count, bound, np.asarray(bound["a"]), out)
            module = names[kinds[stack[-1]]].split(".", 1)[0] if stack else "other"
            stats = self.fft.setdefault(module, [0, 0.0, 0])
            stats[0] += 1
            stats[1] += flop
            stats[2] += nbytes
            return out

        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch_function(self, modname: str, attr: str, wrap) -> None:
        orig = getattr(sys.modules[f"nstorus.{modname}"], attr)
        wrapper = wrap(orig)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "nstorus" or name.startswith("nstorus.")):
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    self._patches.append((module, key, orig))
                    setattr(module, key, wrapper)

    def _patch_method(self, modname: str, path: str, wrap) -> None:
        clsname, meth = path.split(".")
        cls = getattr(sys.modules[f"nstorus.{modname}"], clsname)
        orig = cls.__dict__[meth]
        self._patches.append((cls, meth, orig))
        setattr(cls, meth, wrap(orig))

    def _patch(self, modname: str, path: str, wrap) -> None:
        if "." in path:
            self._patch_method(modname, path, wrap)
        else:
            self._patch_function(modname, path, wrap)

    def install(self) -> None:
        import nstorus  # noqa: F401 - loads every submodule

        for modname, path, name in SPANS:
            after = _AFTER.get(name)
            self._patch(modname, path, lambda fn, n=name, a=after: self.span(n, fn, a))
        for modname, path, name in COUNTERS:
            self._patch(modname, path, lambda fn, n=name: self.counter(n, fn))
        for fname in FFTS:
            orig = getattr(np.fft, fname)
            self._patches.append((np.fft, fname, orig))
            setattr(np.fft, fname, self._fft_wrapper(fname, orig))

    def restore(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, durations."""
        child = [0.0] * len(self.kind)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats: dict = {}
        for i, k in enumerate(self.kind):
            dur = self.end[i] - self.start[i]
            entry = stats.setdefault(self.names[k], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                     "durations": []})
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += dur - child[i]
            entry["durations"].append(dur)
        return stats

    def metrics(self) -> dict:
        """Flat metric map: span stats, module self times, counters, FFT costs."""
        out: dict = {}
        modules: dict = {}
        for name, entry in self.aggregate().items():
            out[f"{name}.calls"] = entry["calls"]
            out[f"{name}.s"] = entry["s"]
            out[f"{name}.self_s"] = entry["self_s"]
            out[f"{name}.ms_p50"] = 1e3 * statistics.median(entry["durations"])
            module = name.split(".", 1)[0]
            modules[module] = modules.get(module, 0.0) + entry["self_s"]
        for module, self_s in modules.items():
            out[f"{module}.self_s"] = self_s
        for name, calls in self.counts.items():
            out[f"{name}_calls" if name.endswith(".ctor") else f"{name}.calls"] = calls
        for module, (calls, flop, nbytes) in self.fft.items():
            out[f"{module}.fft.calls"] = calls
            out[f"{module}.fft.flop"] = flop
            out[f"{module}.fft.bytes"] = nbytes
        out.update(self.extra)
        return out

    def write_spans(self, path) -> None:
        """Write every span as gzipped CSV: name, start_s, end_s, parent row (-1 at a root)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for i, k in enumerate(self.kind):
                fh.write(f"{self.names[k]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]}\n")


def _count_csv_bytes(tracer: Tracer, result, args, kwargs) -> None:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    key = "trajectory.to_csv.bytes"
    tracer.extra[key] = tracer.extra.get(key, 0) + os.path.getsize(path)


def _count_picard(tracer: Tracer, result, args, kwargs) -> None:
    key = "solver.picard.iterations"
    tracer.extra[key] = tracer.extra.get(key, 0) + result.iterations


_AFTER = {
    "trajectory.to_csv": _count_csv_bytes,
    "solver.picard_iterate": _count_picard,
}
