"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nstorus  # noqa: E402
from nstorus import admissible, solver  # noqa: E402

import workloads  # noqa: E402
from tracer import ROOT_SPAN, Tracer, fft_cost  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    cls = workloads.WORKLOADS[name]
    first = cls(5).generate(tmp_path / "a")
    second = cls(5).generate(tmp_path / "b")
    other = cls(6).generate(tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
    assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]


@pytest.mark.parametrize("s", [Fraction(4, 3), Fraction(17, 12), Fraction(3, 2),
                               Fraction(1, 2), Fraction(9, 10), Fraction(7, 4)])
@pytest.mark.parametrize("d", [3, 4, 6, 10, 16])
def test_integer_recount_matches_scan_region(s, d):
    scan = admissible.scan_region(s, d)
    assert workloads.recount(s, d) == (scan.local_count, scan.global_count)


class TinySplit(workloads.Split):
    t_final = 0.004


def _traced_counts(tmp_path, seed):
    workload = TinySplit(seed)
    inputs = workload.generate(tmp_path / f"in-{seed}")
    tracer = Tracer()
    with tracer:
        for path in inputs[:2]:
            outcome = tracer.span(ROOT_SPAN, workload.run)(path, tmp_path)
            assert workload.check(outcome) is None
    return {k: v for k, v in tracer.metrics().items()
            if k.endswith((".calls", "_calls", ".flop", ".bytes", ".iterations"))}


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    first = _traced_counts(tmp_path, 3)
    second = _traced_counts(tmp_path, 3)
    assert first == second
    assert first["nonlinear.bilinear_b.calls"] > 0
    assert first["nonlinear.fft.calls"] > 0 and first["besov.fft.calls"] > 0
    assert first["fields.SpectralField.ctor_calls"] > 0
    assert first["trajectory.to_csv.bytes"] > 0


def test_patches_reach_every_binding_and_are_restored():
    originals = {
        (solver, "bilinear_b"): solver.bilinear_b,
        (nstorus, "bilinear_b"): nstorus.bilinear_b,
        (solver.Stepper, "step"): solver.Stepper.__dict__["step"],
        (np.fft, "ifft2"): np.fft.ifft2,
    }
    tracer = Tracer()
    with tracer:
        patched = list(tracer._patches)
        for (owner, key), orig in originals.items():
            assert vars(owner)[key] is not orig
        u = nstorus.random_field(16, 2.0, 1, band=5)
        solver.solve_direct(u, nstorus.ForcingSpec.zero(16),
                            solver.SolverConfig(n=16, dt=0.01, t_final=0.02))
    assert len(patched) > len(originals)
    for owner, key, orig in patched:
        assert vars(owner)[key] is orig
    names = set(tracer.aggregate())
    assert {"solver.solve_direct", "solver.integrate", "solver.Stepper.step",
            "nonlinear.bilinear_b"} <= names


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    clock = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])

    import tracer as tracer_module

    real = tracer_module.time.perf_counter
    tracer_module.time.perf_counter = lambda: next(clock)
    try:
        inner = tracer.span("m.inner", lambda: None)
        outer = tracer.span("m.outer", lambda: (inner(), inner()))
        outer()
    finally:
        tracer_module.time.perf_counter = real
    stats = tracer.aggregate()
    assert stats["m.outer"]["s"] == 10.0
    assert stats["m.inner"]["s"] == 2.5
    assert stats["m.outer"]["self_s"] == 7.5
    assert tracer.metrics()["m.self_s"] == 10.0


def test_fft_cost_model():
    a = np.zeros((64, 64), dtype=complex)
    assert fft_cost("c", 2, {"a": a}, a, a) == (5.0 * 4096 * 12, 2 * a.nbytes)
    real = np.zeros((6, 32, 32))
    half = np.zeros((6, 32, 17), dtype=complex)
    flop, nbytes = fft_cost("r", 2, {"a": real}, real, half)
    assert flop == 2.5 * real.size * 10 and nbytes == real.nbytes + half.nbytes
    flop, _ = fft_cost("i", 2, {"a": half, "s": (32, 32)}, half, real)
    assert flop == 2.5 * real.size * 10
