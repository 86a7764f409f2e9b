"""The four benchmark workloads: seeded inputs, one op each, and its output check.

Each workload writes its inputs (scenario files, argument files) into a
directory from a seed alone; nstorus only ever sees those files.  An op is
one user-visible call: a CLI command run in process through ``cli.main``,
or the constant estimator.  ``check`` returns None when the op's output is
within tolerance and a one-line reason otherwise.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from nstorus import cli, solver
from nstorus.admissible import scan_region
from nstorus.besov import BesovParams, besov_value
from nstorus.fields import random_field
from nstorus.nonlinear import bilinear_b

POOL = 6  # inputs per seed; op i uses input i % POOL, so every run visits them all

# Demo-family scenario: band-10 random data and forcing at N = 32, dt = 1e-3;
# the demo itself uses amplitudes 0.4 and 0.3.
SCENARIO = """\
name = {name}
seed = {data_seed}
params.s = 4/3
params.p = 5/2
params.q = 3
params.r = 3
solver.n = 32
solver.dt = 0.001
solver.t_final = {t_final!r}
solver.split_eps = 0.05
solver.smallness_y0 = 0.06
solver.smallness_h = 0.06
initial.kind = random
initial.gamma = 2.2
initial.amplitude = {amplitude!r}
initial.band = 10
forcing.kind = random
forcing.gamma = 2.4
forcing.amplitude = {forcing_amplitude!r}
forcing.band = 10
snapshot_times = 0.0 {t_final!r}
"""


def run_cli(argv: list) -> tuple[int, str]:
    """Run one nstorus command in process; return its exit code and output."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _warm_numeric() -> None:
    """Fill the lattice, block-mask and FFT-plan caches at N = 32."""
    u = random_field(32, 2.2, 1, band=10)
    bilinear_b(u, u)
    besov_value(u, Fraction(-4, 3), Fraction(5, 2), Fraction(3))
    u.to_grid(128)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def generate(self, directory: Path) -> list:
        """Write POOL input files into directory and return their paths."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for i in range(POOL):
            path = directory / f"{self.name}-{i:02d}.{self.suffix}"
            path.write_text(self.input_text(i))
            paths.append(path)
        return paths

    def warm(self) -> None:
        _warm_numeric()


class ScenarioWorkload(Workload):
    """A scenario-file command whose report.json carries the checked values."""

    suffix = "scn"

    def input_text(self, i: int) -> str:
        return SCENARIO.format(name=f"bench-{self.name}-{i:02d}",
                               data_seed=self.rng.randrange(1, 1_000_000),
                               t_final=self.t_final, amplitude=self.amplitude,
                               forcing_amplitude=self.forcing_amplitude)

    def run(self, path: Path, workdir: Path):
        out = workdir / "out"
        (out / "report.json").unlink(missing_ok=True)
        code, text = run_cli([self.command, "--scenario", str(path), "--out", str(out)])
        return code, text, out / "report.json"


class Split(ScenarioWorkload):
    """solve-split over T = 0.06 (60 steps).

    Small data (amplitude 0.025) puts the split cutoff at k = 1, so
    split_data's 64-sample Besov scan runs once and stepping dominates.
    """

    name = "split"
    command = "solve-split"
    t_final = 0.06
    amplitude = 0.025
    forcing_amplitude = 0.025

    def check(self, outcome):
        code, text, report_path = outcome
        if code != 0:
            return f"exit {code}: {text.strip()[-200:]}"
        report = json.loads(report_path.read_text())
        if not report["sup_discrepancy"] <= 1e-12:
            return f"sup_discrepancy {report['sup_discrepancy']!r} > 1e-12"
        if not report["max_energy_residual"] <= 1e-8:
            return f"max_energy_residual {report['max_energy_residual']!r} > 1e-8"
        if report["gronwall_breached"] is not False:
            return "gronwall_breached"
        return None


class Picard(ScenarioWorkload):
    """solve (the local solve) over T = 0.03.

    At amplitude 0.1 every sampled seed converged in 4 Picard sweeps (the
    demo amplitudes take 4 or 5), so ops from different seeds cost the same.
    """

    name = "picard"
    command = "solve"
    t_final = 0.03
    amplitude = 0.1
    forcing_amplitude = 0.1

    def check(self, outcome):
        code, text, report_path = outcome
        if code != 0:
            return f"exit {code}: {text.strip()[-200:]}"
        iterations = json.loads(report_path.read_text()).get("picard_iterations")
        if not isinstance(iterations, int) or iterations < 1:
            return f"report carries no picard_iterations ({iterations!r})"
        return None


class Estimate(Workload):
    """The estimator behind DEFAULT_CONSTANTS at one probe instead of 64."""

    name = "estimate"
    suffix = "json"
    params = ("4/3", "5/2", "3", "3")
    count = 1

    def input_text(self, i: int) -> str:
        spec = {"params": list(self.params), "n": 32, "count": self.count,
                "seed": self.rng.randrange(1, 1_000_000)}
        return json.dumps(spec, sort_keys=True) + "\n"

    def run(self, path: Path, workdir: Path):
        spec = json.loads(path.read_text())
        return solver.estimate_empirical_constants(
            BesovParams(*spec["params"]), n=spec["n"], count=spec["count"], seed=spec["seed"]
        )

    def check(self, constants):
        for key, value in constants.as_dict().items():
            if not (math.isfinite(value) and value > 0):
                return f"constant {key} = {value!r} is not finite and positive"
        return None


def recount(s: Fraction, d: int) -> tuple[int, int]:
    """Local and global feasible points of the (i/d, j/d) grid in integers.

    Every condition of the region is multiplied through by b*d, where
    s = a/b, so no rational arithmetic is needed.
    """
    a, b = s.numerator, s.denominator
    sum_lo, sum_hi = (2 * b - a) * d, (3 * b - a) * d
    x_lo = max((a - b) * d, (b - a) * d)
    local = glob = 0
    for i in range(1, 2 * d):
        if i * b <= x_lo:
            continue
        for j in range(1, 2 * d):
            if sum_lo < (i + j) * b < sum_hi and (i + 2 * j) * b > sum_hi:
                local += 1
                if j < d and i + j > d:
                    glob += 1
    return local, glob


class GateScan(Workload):
    """`admissibility scan` at the CLI default depth, then the reference table."""

    name = "gate-scan"
    suffix = "txt"
    depth = 8
    s_choices = tuple(Fraction(k, 24) for k in range(34, 38))  # 17/12 .. 37/24

    def __init__(self, seed: int):
        super().__init__(seed)
        self._recounts: dict = {}

    def input_text(self, i: int) -> str:
        return f"{self.rng.choice(self.s_choices)}\n"

    def warm(self) -> None:
        scan_region(Fraction(4, 3), 4)

    def run(self, path: Path, workdir: Path):
        s = path.read_text().strip()
        csv = workdir / "region.csv"
        scan = run_cli(["admissibility", "scan", "--s", s, "--depth", str(self.depth),
                        "--out", str(csv)])
        table = run_cli(["reproduce-appendix-b"])
        return s, scan, table, csv

    def check(self, outcome):
        s, (scan_code, scan_text), (table_code, table_text), csv = outcome
        if scan_code != 0:
            return f"scan exit {scan_code}: {scan_text.strip()[-200:]}"
        if table_code != 0:
            return f"reproduce-appendix-b exit {table_code}"
        d = 2**self.depth
        if s not in self._recounts:
            self._recounts[s] = recount(Fraction(s), d)
        expected = self._recounts[s]
        match = re.search(r"(\d+) local / (\d+) global", scan_text)
        printed = (int(match.group(1)), int(match.group(2))) if match else None
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        written = (sum(int(r[2]) for r in rows), sum(int(r[3]) for r in rows))
        if printed != expected or written != expected:
            return f"s = {s}: printed {printed}, csv {written}, integer recount {expected}"
        return None


WORKLOADS = {cls.name: cls for cls in (Split, Picard, Estimate, GateScan)}
