"""Nonlinear time integration: local contraction solve, data splitting, monitors.

The integrator is integrating-factor RK4: the Stokes part is applied
exactly through exp(-dt A) per mode, classical RK4 handles the transformed
nonlinearity, and every state is confined to the dealiased band so the
discrete system is the exact Galerkin truncation.  The right-hand side
returns, at each stage, the non-Stokes term together with the
energy-balance integrands it evaluates there; the step sums those with
the RK4 weights, which keeps the discrete energy identity accurate to the
scheme's own order instead of a lower-order quadrature.

Coupled equations are integrated as one system: the state is a tuple of
fields, each advanced by the same operations it would see alone.  The
rough and smooth parts of the split solve, and the velocity with its
difference equations in the uniqueness probe, step together and share
each stage's grid states, so reconstructing the velocity as the sum of
the two parts agrees with a direct solve down to round-off.

The inequality constants the continuous theory only proves to exist
(norm_inv_d0phi, c1, c2, c3, the energy-lemma constant) are empirical
here: estimated as the max observed ratio over seeded probe ensembles
with a x2 safety factor, frozen into SolverConfig, and reported with
every artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .admissible import check_global, check_local, derive_exponents
from .besov import besov_value, lp_norm
from .errors import (
    CutoffExhausted,
    InadmissibleParams,
    NonConvergent,
    NonFiniteField,
    SmallnessBoundViolation,
    SmallnessViolation,
)
from .fields import SpectralField, gamma_for_regularity, random_field
from .nonlinear import (
    EnsembleSpec,
    bilinear_b,
    dealias_band,
    energy_lemma_ensemble,
    grid_states,
    product_grid,
)
from .stokes import (
    ForcingSpec,
    apply_a,
    check_finite_samples,
    data_f_norm,
    forcing_lr_norm,
    linear_regularity_report,
    semigroup,
    stokes_solve,
)
from .trajectory import Trajectory, cumulative_trapezoid, lr_time_norm


@dataclass(frozen=True)
class EmpiricalConstants:
    """Probe-ensemble estimates (max observed ratio x2) of the theory's constants."""

    norm_inv_d0phi: float
    c1: float
    c2: float
    c3: float
    c_energy: float         # energy-lemma constant at eps = 1/4
    c_ladyzhenskaya: float  # ||v||_L4^2 <= c ||v||_L2 ||v||_H1

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("norm_inv_d0phi", "c1", "c2", "c3", "c_energy", "c_ladyzhenskaya")}


# Frozen from estimate_empirical_constants(BesovParams('4/3','5/2','3','3'),
# n=32, count=64, seed=2024); the x2 safety factor is already included.
DEFAULT_CONSTANTS = EmpiricalConstants(
    norm_inv_d0phi=1.276947553043691,
    c1=0.08540805172378166,
    c2=0.1981342021006554,
    c3=1.2938890668858263,
    c_energy=5.6897452553122534e-05,
    c_ladyzhenskaya=0.2077355105547123,
)


PICARD_MAX_ITER = 60   # Picard sweeps before NonConvergent
PICARD_TOL = 1e-9      # converged at a difference <= PICARD_TOL * max(1, max ||u||_L2)
GRONWALL_SLACK = 1e-8  # relative slack of the a priori energy envelope


@dataclass(frozen=True)
class SolverConfig:
    n: int = 32
    dt: float = 1e-3
    t_final: float = 1.0
    constants: EmpiricalConstants = DEFAULT_CONSTANTS
    split_eps: float = 1e-3
    smallness_y0: float = 1e-2
    smallness_h: float = 1e-2

    def __post_init__(self):
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        if abs(self.t_final / self.steps - self.dt) > 1e-9 * self.dt:
            raise ValueError(f"dt = {self.dt!r} does not divide t_final = {self.t_final!r} "
                             "into whole steps")

    @property
    def band(self) -> int:
        return dealias_band(self.n)

    @property
    def grid_m(self) -> int:
        """Product grid of states confined to the band."""
        return product_grid(self.band, self.band, self.band)

    @property
    def steps(self) -> int:
        return max(1, round(self.t_final / self.dt))


class Stepper:
    """One integrating-factor RK4 step at fixed resolution and dt."""

    def __init__(self, n: int, dt: float):
        self.dt = dt
        probe = SpectralField.zeros(n)
        self.e_half = probe.radial_weights(lambda kk: np.exp(-0.5 * dt * kk.astype(float)))
        self.e_full = probe.radial_weights(lambda kk: np.exp(-dt * kk.astype(float)))

    def step(self, state: tuple, t: float, nonlin):
        """Advance a tuple of fields one step; returns (state_next, k1, increments).

        nonlin(state, t) returns one (du, integrands) pair per component: the
        non-Stokes right side at a stage state and a dict of accumulator
        integrands there ({} when nothing is accumulated).  Each component
        gets the operations of a one-field step.  increments holds, per
        component, each integrand's (h/6)(w1 + 2 w2 + 2 w3 + w4).
        """
        h, e_half, e_full = self.dt, self.e_half, self.e_full
        k1, w1 = zip(*nonlin(state, t))
        s2 = [(u + (0.5 * h) * k).scale_radial(e_half) for u, k in zip(state, k1)]
        k2, w2 = zip(*nonlin(s2, t + 0.5 * h))
        s3 = [u.scale_radial(e_half) + (0.5 * h) * k for u, k in zip(state, k2)]
        k3, w3 = zip(*nonlin(s3, t + 0.5 * h))
        s4 = [u.scale_radial(e_full) + h * k.scale_radial(e_half) for u, k in zip(state, k3)]
        k4, w4 = zip(*nonlin(s4, t + h))
        state_next = tuple(
            u.scale_radial(e_full)
            + (h / 6.0) * (a.scale_radial(e_full) + 2.0 * (b + c).scale_radial(e_half) + d)
            for u, a, b, c, d in zip(state, k1, k2, k3, k4))
        increments = [{k: (h / 6.0) * (a[k] + 2.0 * b[k] + 2.0 * c[k] + d[k]) for k in a}
                      for a, b, c, d in zip(w1, w2, w3, w4)]
        return state_next, k1, increments


def integrate(state0: tuple, nonlin, t_final: float, steps: int, band: int) -> tuple:
    """Integrate u' + Au = du for each component from the band-truncated state.

    nonlin(state, t) returns one (du, integrands) pair per component at each
    stage, as Stepper.step describes.  Returns one Trajectory per component,
    whose acc holds the running integral of each of its integrands at the
    samples, starting from 0, in the order nonlin lists them.
    """
    dt = t_final / steps
    stepper = Stepper(state0[0].n, dt)
    times = np.linspace(0.0, t_final, steps + 1)
    states = [tuple(u.truncated_inf(band) for u in state0)]
    derivs, increments = [], []
    for i in range(steps):
        t, state = float(times[i]), states[-1]
        state_next, k1, inc = stepper.step(state, t, nonlin)
        if any(u.has_nonfinite() for u in state_next):
            raise NonFiniteField(f"non-finite coefficient after step {i} (t = {t + dt:.6g})")
        derivs.append([k - apply_a(u) for u, k in zip(state, k1)])
        increments.append(inc)
        states.append(state_next)
    last = zip(states[-1], nonlin(states[-1], float(times[-1])))
    derivs.append([du - apply_a(u) for u, (du, _) in last])
    return tuple(Trajectory(times, list(f), derivs=list(d),
                            acc={k: np.cumsum([0.0] + [w[k] for w in inc]) for k in inc[0]})
                 for f, d, inc in zip(zip(*states), zip(*derivs), zip(*increments)))


def _band_forcing(forcing, band: int):
    """t -> forcing.field_at(t) cut to |k|_inf <= band.

    A steady forcing is the same field at every t, so it is built once.
    """
    if forcing.is_steady():
        value = forcing.field_at(0.0).truncated_inf(band)
        return lambda t: value
    return lambda t: forcing.field_at(t).truncated_inf(band)


def _self_product(u: SpectralField, gu, band: int) -> SpectralField:
    """B(u, u) on u's own grid, as its stand-alone solve has it: from gu when gu is on it."""
    g = gu if gu.m == product_grid(u.max_mode_inf, u.max_mode_inf, band) else u
    return bilinear_b(g, g, band=band)


def solve_direct(u0: SpectralField, forcing, config: SolverConfig,
                 monitor: bool = False) -> Trajectory:
    """Direct integration of the full equation u' + Au + B(u,u) = f on the band.

    With monitor, the energy-balance integrands ||u||_{H1}^2, <f, u> and
    <B(u,u), u> are accumulated as visc, work_f and work_b.
    """
    band = config.band
    force = _band_forcing(forcing, band)

    def nonlin(state, t):
        (u,) = state
        f = force(t)
        b = bilinear_b(u, u, band=band)
        if not monitor:
            return ((f - b, {}),)
        return ((f - b, {"visc": u.h_norm(1.0) ** 2, "work_f": f.inner(u), "work_b": b.inner(u)}),)

    (traj,) = integrate((u0,), nonlin, config.t_final, config.steps, band)
    return traj


# -- local solve with the smallness time bound ------------------------------------


def smallness_bound_rhs(constants: EmpiricalConstants) -> float:
    """Right side of the smallness bound: 1 / (4 ||inv(d0 Phi)||^2 C1)."""
    denom = 4.0 * constants.norm_inv_d0phi**2 * constants.c1
    if not math.isfinite(denom) or denom <= 0.0:
        raise SmallnessBoundViolation("configured constants give a nonpositive smallness bound")
    return 1.0 / denom


def smallness_time_bound(f_norm: float, epsilon: Fraction,
                         constants: EmpiricalConstants, t_max: float) -> float:
    """Largest T <= t_max with f_norm * T^epsilon strictly below the bound."""
    rhs = smallness_bound_rhs(constants)
    if f_norm <= 0.0:
        return t_max
    bound = (rhs / f_norm) ** (1.0 / float(epsilon))
    if t_max < bound:
        return t_max
    return bound * (1.0 - 1e-9)


@dataclass
class PicardDiagnostics:
    iterations: int
    converged: bool
    diff_norms: list
    factors: list


@dataclass
class LocalResult:
    t_bar: float
    trajectory: Trajectory
    picard: PicardDiagnostics
    f_norm: float
    epsilon: Fraction
    bound_rhs: float


def picard_iterate(u0: SpectralField, forcing, params, config: SolverConfig,
                   t_bar: float, steps: int) -> PicardDiagnostics:
    """Fixed-point iteration u <- Stokes-solve(u0, f - B(u)) on the sample grid.

    A sweep holds rhs_i = f(t_i) - B(u_i, u_i) constant on [t_i, t_{i+1}),
    where the Stokes step is exact per mode: u_{i+1} = exp(-dt A) u_i +
    A^{-1}(1 - exp(-dt A)) rhs_i, with u'_i = rhs_i - A u_i.  Convergence is
    measured in the discrete graph norm of the difference; the recorded
    factors are ratios of consecutive difference norms.
    """
    band = config.band
    times = np.linspace(0.0, t_bar, steps + 1)
    dt = t_bar / steps

    def graph_norm(fields_a, fields_b, rhs_a, rhs_b):
        diff = Trajectory(times, [a - b for a, b in zip(fields_a, fields_b)],
                          derivs=[pa - pb for pa, pb in zip(rhs_a, rhs_b)])
        return diff.w1r_norm(params)

    force = _band_forcing(forcing, band)
    u0b = u0.truncated_inf(band)
    decay = u0b.radial_weights(lambda kk: np.exp(-dt * kk.astype(float)))
    gain = u0b.radial_weights(lambda kk: -np.expm1(-dt * kk.astype(float)) / kk.astype(float))
    current = [semigroup(u0b, float(t)) for t in times]
    derivs = [-apply_a(f) for f in current]
    diff_norms: list = []
    factors: list = []
    converged = False
    iterations = 0
    for it in range(PICARD_MAX_ITER):
        iterations = it + 1
        rhs_fields = [
            force(float(t)) - bilinear_b(w, w, band=band)
            for t, w in zip(times, current)
        ]
        new_fields = [u0b]
        for rhs in rhs_fields[:-1]:
            new_fields.append(new_fields[-1].scale_radial(decay) + rhs.scale_radial(gain))
        check_finite_samples(times, new_fields)
        new_derivs = [rhs - apply_a(u) for rhs, u in zip(rhs_fields, new_fields)]
        d = graph_norm(new_fields, current, new_derivs, derivs)
        diff_norms.append(d)
        if len(diff_norms) >= 2 and diff_norms[-2] > 0:
            factors.append(diff_norms[-1] / diff_norms[-2])
        scale = max(1.0, max(f.l2_norm() for f in new_fields))
        current, derivs = new_fields, new_derivs
        if d <= PICARD_TOL * scale:
            converged = True
            break
    if not converged:
        raise NonConvergent(
            f"Picard stalled after {iterations} iterations (last diff {diff_norms[-1]:.3e})"
        )
    return PicardDiagnostics(iterations, converged, diff_norms, factors)


def solve_local(u0: SpectralField, forcing, params, config: SolverConfig) -> LocalResult:
    """Local-in-time solve on [0, T-bar] with T-bar from the smallness bound."""
    gate = check_local(params)
    if not gate.all_pass:
        raise InadmissibleParams(
            f"local gate failed: failed={gate.failed_ids} boundary={gate.boundary_ids}"
        )
    exps = derive_exponents(params)
    f_norm = data_f_norm(u0, forcing, params,
                         np.linspace(0.0, config.t_final, config.steps + 1))
    t_bar = smallness_time_bound(f_norm, exps.epsilon, config.constants, config.t_final)
    steps = max(8, math.ceil(t_bar / config.dt))
    local_cfg = replace(config, t_final=t_bar, dt=t_bar / steps)
    traj = solve_direct(u0, forcing, local_cfg, monitor=True)
    picard = picard_iterate(u0, forcing, params, config, t_bar, steps)
    return LocalResult(t_bar, traj, picard, f_norm, exps.epsilon,
                       smallness_bound_rhs(config.constants))


# -- data splitting and the two coupled solves -------------------------------------


@dataclass
class SplitData:
    x0: SpectralField
    g: ForcingSpec
    y0: SpectralField
    h: ForcingSpec
    k_cut: int
    h_norm: float
    y0_norm: float


def split_data(u0: SpectralField, forcing: ForcingSpec, eps_split: float, params,
               t_final: float) -> SplitData:
    """Low-pass split u0 = x0 + y0, f = g + h with small rough parts.

    The cutoff k_cut grows from 1 to n/2 until the rough-part norms (the
    L^r-in-time Besov norm of h on 65 samples of [0, t_final] and the
    initial-space norm of y0) both fall below eps_split; exhausting the
    resolution raises CutoffExhausted.
    """
    if eps_split <= 0:
        raise ValueError("eps_split must be positive")
    k_max = u0.n // 2
    times = np.linspace(0.0, t_final, 65)
    for k_cut in range(1, k_max + 1):
        g, h = forcing.split(k_cut)
        x0 = u0.low_pass(k_cut)
        y0 = u0 - x0
        h_norm = forcing_lr_norm(h, params, times)
        y0_norm = besov_value(y0, params.initial_regularity, params.p, params.r)
        if h_norm < eps_split and y0_norm < eps_split:
            return SplitData(x0, g, y0, h, k_cut, h_norm, y0_norm)
    raise CutoffExhausted(
        f"no cutoff <= {k_max} meets eps_split = {eps_split} (data not resolvable at n = {u0.n})"
    )


def _check_rough_data(y0: SpectralField, h: ForcingSpec, params, config: SolverConfig) -> None:
    """The smallness thresholds the rough-part data must meet."""
    y0_norm = besov_value(y0, params.initial_regularity, params.p, params.r)
    if y0_norm > config.smallness_y0:
        raise SmallnessViolation(
            f"initial-data norm {y0_norm:.3e} exceeds threshold {config.smallness_y0:.3e}"
        )
    h_norm = forcing_lr_norm(h, params, np.linspace(0.0, config.t_final, config.steps + 1))
    if h_norm > config.smallness_h:
        raise SmallnessViolation(
            f"forcing norm {h_norm:.3e} exceeds threshold {config.smallness_h:.3e}"
        )


def solve_y(y0: SpectralField, h: ForcingSpec, params, config: SolverConfig) -> Trajectory:
    """Rough-part solve y' + Ay + B(y,y) = h under the smallness thresholds."""
    _check_rough_data(y0, h, params, config)
    return solve_direct(y0, h, config)


def regularity_norms_y(traj: Trajectory, params) -> dict:
    """The rough-part regularity norms, discretely."""
    top = lr_time_norm(traj.times, params.r, traj.besov_series(-params.s + 2, params.p, params.q))
    bot = lr_time_norm(traj.times, params.r, traj.deriv_besov_series(-params.s, params.p, params.q))
    sup = float(np.max(traj.besov_series(params.initial_regularity, params.p, params.r)))
    return {"lr_state": top, "lr_deriv": bot, "sup_initial_space": sup}


@dataclass
class EnergyMonitor:
    residuals: np.ndarray        # relative residual of the discrete energy identity
    envelope: np.ndarray         # a priori bound on ||x(t)||^2_{L2}
    x_l2_sq: np.ndarray
    breaches: np.ndarray         # boolean; envelope exceeded beyond slack
    c_energy: float

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals)))

    @property
    def breached(self) -> bool:
        return bool(np.any(self.breaches))


@dataclass
class XResult:
    trajectory: Trajectory
    y_trajectory: Trajectory
    monitor: EnergyMonitor


def solve_x(x0: SpectralField, g: ForcingSpec, y0: SpectralField, h: ForcingSpec, params,
            config: SolverConfig) -> XResult:
    """Smooth-part solve, integrated as one system with the rough part driving it.

    After the rough-part smallness checks, (y, x) is integrated jointly:
    y' + Ay + B(y,y) = h and x' + Ax + B(x,x) + B(x,y) + B(y,x) = g, with the
    grid states of y and x built once per stage and the energy accumulators
    of x carried with the same RK4 weights.  Then the discrete energy
    identity is evaluated at every sample, with the a priori envelope
    implied by the configured energy-lemma constant.
    """
    _check_rough_data(y0, h, params, config)
    band = config.band
    force_h = _band_forcing(h, band)
    force_g = _band_forcing(g, band)

    def nonlin(state, t):
        y, x = state
        gy, gx = grid_states(state, band)
        f = force_g(t)
        bxx = bilinear_b(gx, gx, band=band)
        dx = f - bxx - bilinear_b(gx, gy, band=band) - bilinear_b(gy, gx, band=band)
        return ((force_h(t) - _self_product(y, gy, band), {}),
                (dx, {"visc": x.h_norm(1.0) ** 2, "work_b": bxx.inner(y), "work_g": f.inner(x)}))

    x0b = x0.truncated_inf(band)
    y_traj, traj = integrate((y0, x0b), nonlin, config.t_final, config.steps, band)
    monitor = build_energy_monitor(traj, y_traj, g, x0b, params, config)
    return XResult(traj, y_traj, monitor)


def build_energy_monitor(traj: Trajectory, y_traj: Trajectory, g: ForcingSpec,
                         x0: SpectralField, params, config: SolverConfig) -> EnergyMonitor:
    x_l2_sq = traj.series(lambda u: u.energy())
    half_x0 = 0.5 * x0.energy()
    lhs = 0.5 * x_l2_sq + traj.acc["visc"]
    rhs = half_x0 + traj.acc["work_b"] + traj.acc["work_g"]
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)
    residuals = (lhs - rhs) / scale
    # a priori envelope: ||x(t)||^2 <= (||x0||^2 + 2 int ||g||^2_{H-1}) exp(2 c int ||y||^r)
    times = traj.times
    force = _band_forcing(g, config.band)
    g_vals = [force(float(t)).h_norm(-1.0) ** 2 for t in times]
    g_int = cumulative_trapezoid(times, g_vals)
    sigma = Fraction(2) / params.p + Fraction(2) / params.r - 1
    y_vals = y_traj.besov_series(sigma, params.p, params.r) ** float(params.r)
    y_int = cumulative_trapezoid(times, y_vals)
    c = config.constants.c_energy
    envelope = (x0.energy() + 2.0 * g_int) * np.exp(2.0 * c * y_int)
    breaches = x_l2_sq > envelope * (1.0 + GRONWALL_SLACK) + 1e-30
    return EnergyMonitor(residuals, envelope, x_l2_sq, breaches, c)


@dataclass
class SplitResult:
    split: SplitData
    x_result: XResult
    u_fields: list
    direct: Trajectory
    discrepancy: np.ndarray

    @property
    def sup_discrepancy(self) -> float:
        return float(np.max(self.discrepancy))


def solve_split(u0: SpectralField, forcing: ForcingSpec, params,
                config: SolverConfig) -> SplitResult:
    """Split solve (rough + smooth parts) checked against a direct solve."""
    gate = check_global(params)
    if not gate.all_pass:
        raise InadmissibleParams(
            f"global gate failed: failed={gate.failed_ids} boundary={gate.boundary_ids}"
        )
    split = split_data(u0, forcing, config.split_eps, params, config.t_final)
    x_res = solve_x(split.x0, split.g, split.y0, split.h, params, config)
    u_fields = [x + y for x, y in zip(x_res.trajectory.fields, x_res.y_trajectory.fields)]
    direct = solve_direct(u0, forcing, config)
    disc = np.array([(a - b).l2_norm() for a, b in zip(u_fields, direct.fields)])
    return SplitResult(split, x_res, u_fields, direct, disc)


# -- uniqueness probe ---------------------------------------------------------------


@dataclass
class UniquenessReport:
    zero_start_exact: bool
    contraction_times: np.ndarray
    contraction_values: np.ndarray   # C_u(T) = C2 ||u||_{L^r(0,T;...)}
    delta_norms: np.ndarray | None
    delta_envelope: np.ndarray | None
    envelope_holds: bool | None


def uniqueness_probe(u0: SpectralField, forcing, params, config: SolverConfig,
                     delta0: SpectralField | None = None, num_halvings: int = 8) -> UniquenessReport:
    """Probe the contraction mechanism behind uniqueness.

    The velocity u' + Au + B(u,u) = f is integrated as one system with the
    difference equation delta' + A delta + B(u, delta) + B(delta, u) = 0,
    once from delta(0) = 0, which must stay exactly zero, and once from a
    nonzero delta(0) when one is given.  The contraction coefficient
    C_u(T) = C2 ||u||_{L^r(0,T; B^{2/p+2/r-1}_{p,q})} is evaluated on a
    halving sequence of windows.  With a nonzero delta(0) the decay of
    ||delta|| is reported against the exponential envelope implied by the
    configured Ladyzhenskaya constant.
    """
    if num_halvings < 1:
        raise ValueError(f"num_halvings must be >= 1, got {num_halvings}")
    steps = config.steps
    band = config.band
    force = _band_forcing(forcing, band)

    def nonlin(state, t):
        gu, *gds = grid_states(state, band)
        du = force(t) - _self_product(state[0], gu, band)
        return ((du, {}),) + tuple(
            (-bilinear_b(gu, gd, band=band) - bilinear_b(gd, gu, band=band), {}) for gd in gds
        )

    state0 = (u0, SpectralField.zeros(u0.n))
    if delta0 is not None and not delta0.is_zero():
        state0 += (delta0,)
    u_traj, zero_traj, *d_traj = integrate(state0, nonlin, config.t_final, steps, band)
    zero_exact = all(not np.any(f.c) for f in zero_traj.fields)

    # contraction coefficient over halving windows
    sigma = Fraction(2) / params.p + Fraction(2) / params.r - 1
    u_vals = u_traj.besov_series(sigma, params.p, params.q)
    times = u_traj.times
    # distinct window ends: rounding can repeat one (11 steps give 11, 6, 3, 1, 1)
    ends = [k for k in dict.fromkeys(round(steps * 2.0 ** -j) for j in range(num_halvings + 1))
            if k >= 1]
    values = [config.constants.c2 * lr_time_norm(times[: k + 1], params.r, u_vals[: k + 1])
              for k in ends]

    delta_norms = envelope = holds = None
    if d_traj:
        delta_norms = d_traj[0].series(lambda f: f.l2_norm())
        u_h1 = u_traj.series(lambda f: f.h_norm(1.0) ** 2)
        growth = cumulative_trapezoid(times, u_h1)
        c_l = config.constants.c_ladyzhenskaya
        envelope = delta_norms[0] * np.exp(0.5 * c_l**2 * growth)
        holds = bool(np.all(delta_norms <= envelope * (1.0 + 1e-8)))
    return UniquenessReport(
        zero_start_exact=zero_exact,
        contraction_times=times[ends],
        contraction_values=np.array(values),
        delta_norms=delta_norms,
        delta_envelope=envelope,
        envelope_holds=holds,
    )


# -- empirical constant estimation ---------------------------------------------------


def estimate_empirical_constants(params, n: int, count: int, seed: int) -> EmpiricalConstants:
    """Probe-ensemble estimates: max observed ratio over `count` probes, x2 safety.

    Probes are linear solves on [0, 1] in 32 steps with power-law random
    data; the measured ratios realize the continuity, product-estimate and
    contraction bounds whose constants the continuous theory leaves
    unquantified.
    """
    t_final, steps = 1.0, 32
    band = dealias_band(n)
    gamma_u0 = gamma_for_regularity(float(params.initial_regularity))
    gamma_f = gamma_for_regularity(float(-params.s))
    exps = derive_exponents(params)
    sigma_top = Fraction(2) / params.p + Fraction(2) / params.r - 1
    # The S space L^r(B^sigma_top) with derivative in L^r(B^{sigma_top - 2}) is the
    # graph space of the exponents with s = 2 - sigma_top; its forcing space is
    # L^r(B^{sigma_top - 2}).
    s_params = replace(params, s=2 - sigma_top)

    ninv = c1 = c2 = c3 = 0.0
    for i in range(count):
        u0 = random_field(n, gamma_u0, seed + 3 * i, band=band, amplitude=1.0)
        f = ForcingSpec.from_random(n, gamma_f, seed + 3 * i + 1, amplitude=1.0, band=band)
        traj = stokes_solve(u0, f, t_final, steps)
        rep = linear_regularity_report(traj, f, u0, params)
        ninv = max(ninv, rep.ratio)

        # product estimate along the linear trajectory
        b_vals = [besov_value(bilinear_b(u, u, band=band), -params.s, params.p, params.q)
                  for u in traj.fields]
        b_int = lr_time_norm(traj.times, params.r, b_vals)
        w = rep.w_norm
        if w > 0:
            c1 = max(c1, b_int / (t_final ** float(exps.epsilon) * w**2))

        # contraction bound: ||B(u, d)|| against ||u|| ||d||_S
        d_field = random_field(n, gamma_u0, seed + 3 * i + 2, band=band, amplitude=1.0)
        d_traj = stokes_solve(d_field, ForcingSpec.zero(n), t_final, steps)
        bd_vals = [besov_value(bilinear_b(u, d, band=band), sigma_top - 2, params.p, params.q)
                   for u, d in zip(traj.fields, d_traj.fields)]
        bd_int = lr_time_norm(traj.times, params.r, bd_vals)
        u_int = lr_time_norm(traj.times, params.r, traj.besov_series(sigma_top, params.p, params.q))
        d_s = d_traj.w1r_norm(s_params)
        if u_int > 0 and d_s > 0:
            c2 = max(c2, bd_int / (u_int * d_s))

        # Stokes solution-map norm onto the S space
        g_field = random_field(n, gamma_for_regularity(float(sigma_top - 2)), seed + 7919 + i,
                               band=band, amplitude=1.0)
        g = ForcingSpec.from_field(g_field)
        g_traj = stokes_solve(SpectralField.zeros(n), g, t_final, steps)
        g_norm = forcing_lr_norm(g, s_params, g_traj.times)
        s_norm = g_traj.w1r_norm(s_params)
        if g_norm > 0:
            c3 = max(c3, s_norm / g_norm)

    lad = 0.0
    for i in range(count):
        v = random_field(n, 1.5, seed + 104729 + i, band=band)
        l4 = lp_norm(v.to_grid(4 * n), 4)
        lad = max(lad, l4**2 / (v.l2_norm() * v.h_norm(1.0)))

    energy = energy_lemma_ensemble(
        0.25, params.p, params.r,
        EnsembleSpec(count=count, seed=seed, resolutions=(n,)),
    )
    return EmpiricalConstants(
        norm_inv_d0phi=2.0 * ninv,
        c1=2.0 * c1,
        c2=2.0 * c2,
        c3=2.0 * c3,
        c_energy=2.0 * energy.max_ratio,
        c_ladyzhenskaya=2.0 * lad,
    )
