"""Benchmark of nstorus: four seeded workloads, each a closed loop of ops.

    python3 perfbench/run.py --workload split --seed 1 --seconds 28 --trace 0

One client runs ops back to back in this process for --seconds seconds
(after an untimed cache warm-up) and checks each op's output.  With
--trace 0 the last stdout line carries the end-to-end metrics named in
BENCHMARK.json; with --trace 1 a fixed number of ops runs once untraced
and once under the span tracer, and the line carries the per-layer
metrics.  The line before it is the run's provenance.  Results and spans
are also written under .bench_out/ at the root of the checkout.

Set-up time is measured in fresh processes (this script with
--setup-probe), each importing numpy and nstorus and writing the
workload's inputs; the median of SETUP_REPEATS is reported.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
TRACE_OPS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """Import nstorus from this checkout's src/ only, then the workloads."""
    sys.path.insert(0, str(SRC))
    import nstorus

    if Path(nstorus.__file__).resolve().parent != SRC / "nstorus":
        raise ImportError(f"nstorus imported from {nstorus.__file__}, not {SRC}")
    import workloads

    return workloads


def setup_probe(args) -> int:
    """Fresh-process set-up: import numpy and nstorus, write the inputs."""
    import numpy  # noqa: F401

    workloads = import_workloads()
    directory = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
    try:
        workloads.WORKLOADS[args.workload](args.seed).generate(directory)
        print(time.perf_counter() - _T0)
    finally:
        shutil.rmtree(directory)
    return 0


def measure_setup(args) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs ops of one workload and records their wall times and failures."""

    def __init__(self, workload, inputs, workdir: Path):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.times: list = []
        self.failures: list = []

    def op(self, i: int) -> float:
        path = self.inputs[i % len(self.inputs)]
        start = time.perf_counter()
        try:
            outcome = self.workload.run(path, self.workdir)
            elapsed = time.perf_counter() - start
            reason = self.workload.check(outcome)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            elapsed = time.perf_counter() - start
            reason = f"{type(exc).__name__}: {exc}"
        self.times.append(elapsed)
        if reason is not None:
            self.failures.append(f"op {i} ({path.name}): {reason}")
            print(f"op failed: {self.failures[-1]}", file=sys.stderr)
        return elapsed


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def provenance(load_at_start) -> dict:
    import numpy

    return {
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fft_backend": f"numpy.fft ({numpy.fft._pocketfft.__name__})",
        "scipy_imported": "scipy" in sys.modules,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python_threads_at_end": threading.active_count(),
        "loadavg_at_start": load_at_start,
    }


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nstorus").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def benchmark_metrics(group: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[group]]


def timed_loop(runner: Runner, seconds: float) -> dict:
    # Start no op that would likely end more than half an op past the deadline.
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() + 0.5 * statistics.median(runner.times) < deadline:
        runner.op(i)
        i += 1
    times = sorted(runner.times)
    p90 = quantile(times, 0.9)
    return {
        "op_s_p50": statistics.median(times),
        "op_s_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": len(times),
        "beyond_p90": sum(1 for t in times if t > p90),
    }


def traced_pass(runner: Runner, trace_path: Path) -> dict:
    from tracer import ROOT_SPAN, Tracer

    start = time.perf_counter()
    for i in range(TRACE_OPS):
        runner.op(i)
    untraced = time.perf_counter() - start
    tracer = Tracer()
    root = tracer.span(ROOT_SPAN, runner.op)
    with tracer:
        start = time.perf_counter()
        for i in range(TRACE_OPS):
            root(i)
        traced = time.perf_counter() - start
    tracer.write_spans(trace_path)
    metrics = tracer.metrics()
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nstorus" / "__init__.py").is_file():
        print(f"no nstorus sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    load_at_start = os.getloadavg()
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup_times = measure_setup(args) if args.trace == 0 else []
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(workload, workload.generate(workdir / "inputs"), workdir)
        workload.warm()
        tag = f"{args.workload}-seed{args.seed}"
        if args.trace:
            measured = traced_pass(runner, OUT / f"spans-{tag}.csv.gz")
            names = benchmark_metrics("per_layer")
        else:
            measured = timed_loop(runner, args.seconds)
            measured["setup_s"] = statistics.median(setup_times)
            names = benchmark_metrics("end_to_end")
    finally:
        shutil.rmtree(workdir)

    attempted, failed = len(runner.times), len(runner.failures)
    measured["success_rate"] = (attempted - failed) / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured.get(name, 0), "unit": unit} for name, unit in names},
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(load_at_start),
        "op_s": runner.times, "setup_s": setup_times, "failures": runner.failures,
        "samples": measured.get("samples"), "beyond_p90": measured.get("beyond_p90"),
        "trace_ops": TRACE_OPS if args.trace else None,
        "all_measured": measured,
    }
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=1) + "\n")
    print(json.dumps({"details": {k: v for k, v in details.items() if k != "all_measured"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
