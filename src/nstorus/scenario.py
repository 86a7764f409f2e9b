"""Scenario files: plain-text key = value run descriptions.

A scenario fully determines a run including seeds.  Exponent parameters
must be written as rationals ("4/3", "3"); decimal notation is rejected
for them so a boundary case can never be misclassified by parsing.  The
canonical emission (to_text) round-trips through parsing to an identical
scenario, and its hash is embedded in every artifact.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .besov import BesovParams, as_fraction
from .errors import NstorusError
from .fields import SpectralField, random_field
from .solver import DEFAULT_CONSTANTS, SolverConfig
from .stokes import ForcingSpec


class ScenarioError(NstorusError, ValueError):
    """Malformed scenario text; message carries line and field information."""


@dataclass(frozen=True)
class ModeEntry:
    k1: int
    k2: int
    re: float
    im: float
    law: str = "constant"
    frequency: float = 0.0
    phase: float = 0.0

    def to_text(self, with_law: bool) -> str:
        body = f"{self.k1} {self.k2} {self.re!r} {self.im!r}"
        if not with_law:
            return body
        if self.law == "constant":
            return f"{body} constant"
        return f"{body} {self.law} {self.frequency!r} {self.phase!r}"


@dataclass(frozen=True)
class FieldSpec:
    kind: str = "zero"  # zero | modes | random
    modes: tuple = ()
    gamma: float = 2.0
    amplitude: float = 1.0
    seed_offset: int = 0
    band: int | None = None


def _finite(text: str) -> float:
    """The one conversion of scenario numbers: a float that is not NaN or infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _count(text: str) -> int:
    """A non-negative integer (seeds and seed offsets)."""
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    return value


# Scenario keys solver.<name> and how their values parse; constants.<name> fill
# SolverConfig.constants, and dealias and picard_tol keep their defaults.
SOLVER_KEYS = {"n": int, "dt": _finite, "t_final": _finite, "split_eps": _finite,
               "smallness_y0": _finite, "smallness_h": _finite}

# The artifacts a run can write; a scenario lists some or all of them.
REPORTS = ("trajectory", "report")


@dataclass(frozen=True)
class Scenario:
    name: str = "run"
    seed: int = 0
    params: BesovParams = BesovParams(Fraction(4, 3), Fraction(5, 2), Fraction(3), Fraction(3))
    solver: SolverConfig = SolverConfig()
    initial: FieldSpec = FieldSpec()
    forcing: FieldSpec = FieldSpec()
    snapshot_times: tuple = ()
    reports: tuple = REPORTS

    def __post_init__(self):
        # the digest covers only the scenario keys, so the rest must be the defaults
        if (self.solver.dealias, self.solver.picard_tol) != (None, SolverConfig.picard_tol):
            raise ScenarioError("solver.dealias and solver.picard_tol are not scenario keys")

    # -- construction of run objects ------------------------------------------

    def initial_field(self) -> SpectralField:
        return _build_field(self.initial, self.solver.n, self.seed)

    def forcing_spec(self) -> ForcingSpec:
        spec = self.forcing
        n = self.solver.n
        if spec.kind == "zero":
            return ForcingSpec.zero(n)
        if spec.kind == "modes":
            return ForcingSpec.from_modes(
                n,
                [((m.k1, m.k2), complex(m.re, m.im), m.law, m.frequency, m.phase)
                 for m in spec.modes],
            )
        if spec.kind == "random":
            return ForcingSpec.from_random(n, spec.gamma, self.seed + 1 + spec.seed_offset,
                                           amplitude=spec.amplitude, band=spec.band)
        raise ScenarioError(f"unknown forcing kind {spec.kind!r}")

    # -- canonical text form ----------------------------------------------------

    def to_text(self) -> str:
        lines = [
            f"name = {self.name}",
            f"seed = {self.seed}",
            f"params.s = {self.params.s}",
            f"params.p = {self.params.p}",
            f"params.q = {self.params.q}",
            f"params.r = {self.params.r}",
        ]
        for key in SOLVER_KEYS:
            lines.append(f"solver.{key} = {getattr(self.solver, key)!r}")
        for key, val in sorted(self.solver.constants.as_dict().items()):
            lines.append(f"constants.{key} = {val!r}")
        lines.extend(_field_spec_lines("initial", self.initial, with_law=False))
        lines.extend(_field_spec_lines("forcing", self.forcing, with_law=True))
        if self.snapshot_times:
            lines.append("snapshot_times = " + " ".join(repr(t) for t in self.snapshot_times))
        lines.append("reports = " + " ".join(self.reports))
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    @classmethod
    def from_text(cls, text: str) -> "Scenario":
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ScenarioError(f"line {lineno}: empty key or value")
            pairs.append((lineno, key, value))
        if not pairs:
            raise ScenarioError("scenario file is empty")

        data: dict = {}
        modes: dict = {"initial": [], "forcing": []}
        for lineno, key, value in pairs:
            if key in ("initial.mode", "forcing.mode"):
                modes[key.split(".")[0]].append(_parse_mode(lineno, key, value))
            elif key in data:
                raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
            else:
                data[key] = (lineno, value)

        def take(key, default=None, conv=str):
            if key not in data:
                return default
            lineno, value = data.pop(key)
            try:
                return conv(value)
            except Exception as exc:
                raise ScenarioError(f"line {lineno}: field {key!r}: {exc}") from exc

        params = BesovParams(
            take("params.s", conv=as_fraction, default=Fraction(4, 3)),
            take("params.p", conv=as_fraction, default=Fraction(5, 2)),
            take("params.q", conv=as_fraction, default=Fraction(3)),
            take("params.r", conv=as_fraction, default=Fraction(3)),
        )
        solver_kwargs = {name: take(f"solver.{name}", conv=conv)
                         for name, conv in SOLVER_KEYS.items() if f"solver.{name}" in data}
        const_kwargs = {}
        for key in list(data):
            if key.startswith("constants."):
                name = key.split(".", 1)[1]
                if name not in DEFAULT_CONSTANTS.as_dict():
                    raise ScenarioError(f"unknown constant {name!r}")
                const_kwargs[name] = take(key, conv=_finite)
        if const_kwargs:
            solver_kwargs["constants"] = replace(DEFAULT_CONSTANTS, **const_kwargs)
        try:
            solver = SolverConfig(**solver_kwargs)
        except ValueError as exc:
            raise ScenarioError(f"solver settings: {exc}") from exc

        scenario = cls(
            name=take("name", default="run"),
            seed=take("seed", default=0, conv=_count),
            params=params,
            solver=solver,
            initial=_field_spec_from(take, "initial", tuple(modes["initial"])),
            forcing=_field_spec_from(take, "forcing", tuple(modes["forcing"])),
            snapshot_times=take("snapshot_times", default=(),
                                conv=lambda v: _snapshot_times(v, solver.t_final)),
            reports=take("reports", default=REPORTS, conv=_parse_reports),
        )
        if data:
            key = next(iter(data))
            raise ScenarioError(f"line {data[key][0]}: unknown key {key!r}")
        return scenario


def _snapshot_times(value: str, t_final: float) -> tuple:
    times = tuple(_finite(x) for x in value.split())
    for t in times:
        if not 0.0 <= t <= t_final:
            raise ValueError(f"time {t!r} outside [0, solver.t_final = {t_final!r}]")
    return times


def _parse_reports(value: str) -> tuple:
    words = tuple(value.split())
    for word in words:
        if word not in REPORTS:
            raise ValueError(f"unknown report {word!r} (expected trajectory or report)")
    return words


def _parse_mode(lineno: int, key: str, value: str) -> ModeEntry:
    parts = value.split()
    if len(parts) < 4:
        raise ScenarioError(f"line {lineno}: {key} needs 'k1 k2 re im [law ...]'")
    try:
        k1, k2 = int(parts[0]), int(parts[1])
        re, im = _finite(parts[2]), _finite(parts[3])
        law = parts[4] if len(parts) > 4 else "constant"
        freq = _finite(parts[5]) if len(parts) > 5 else 0.0
        phase = _finite(parts[6]) if len(parts) > 6 else 0.0
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: field {key!r}: {exc}") from exc
    if law not in ("constant", "sinusoid"):
        raise ScenarioError(f"line {lineno}: field {key!r}: unknown law {law!r}")
    return ModeEntry(k1, k2, re, im, law, freq, phase)


def _field_spec_from(take, prefix: str, modes: tuple) -> FieldSpec:
    kind = take(f"{prefix}.kind", "modes" if modes else "zero")
    if kind not in ("zero", "modes", "random"):
        raise ScenarioError(f"unknown {prefix}.kind {kind!r}")
    return FieldSpec(
        kind=kind,
        modes=modes,
        gamma=take(f"{prefix}.gamma", 2.0, _finite),
        amplitude=take(f"{prefix}.amplitude", 1.0, _finite),
        seed_offset=take(f"{prefix}.seed_offset", 0, _count),
        band=take(f"{prefix}.band", None, int),
    )


def _field_spec_lines(prefix: str, spec: FieldSpec, with_law: bool) -> list:
    lines = [f"{prefix}.kind = {spec.kind}"]
    if spec.kind == "random":
        lines.append(f"{prefix}.gamma = {spec.gamma!r}")
        lines.append(f"{prefix}.amplitude = {spec.amplitude!r}")
        lines.append(f"{prefix}.seed_offset = {spec.seed_offset}")
        if spec.band is not None:
            lines.append(f"{prefix}.band = {spec.band}")
    for m in spec.modes:
        lines.append(f"{prefix}.mode = {m.to_text(with_law)}")
    return lines


def _build_field(spec: FieldSpec, n: int, seed: int) -> SpectralField:
    if spec.kind == "zero":
        return SpectralField.zeros(n)
    if spec.kind == "modes":
        return SpectralField.from_modes(
            n, [((m.k1, m.k2), complex(m.re, m.im)) for m in spec.modes]
        )
    if spec.kind == "random":
        return random_field(n, spec.gamma, seed + spec.seed_offset,
                            band=spec.band, amplitude=spec.amplitude)
    raise ScenarioError(f"unknown field kind {spec.kind!r}")
