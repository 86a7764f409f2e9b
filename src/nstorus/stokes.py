"""The Stokes operator, its semigroup, and the nonhomogeneous linear solve.

Everything here is diagonal on the divergence-free basis: A multiplies a
coefficient by |k|^2, the semigroup by exp(-t |k|^2).  The linear solve is
evaluated per mode from the variation-of-constants formula; every
forcing is a ForcingSpec of constant and sinusoidal laws, whose time
integral is closed form, so the linear layer carries no
time-discretization error at all.

forcing_lr_norm is the single home of the forcing norm
||f||_{L^r(0,T; B^{-s}_{p,q})} on a sample grid; every data norm, split
threshold and continuity ratio in the package is measured with it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .besov import besov_value
from .errors import NonFiniteField, ResolutionMismatch
from .fields import SpectralField, _lattice, random_field
from .trajectory import Trajectory, lr_time_norm


@lru_cache(maxsize=None)
def stokes_weights(n: int) -> np.ndarray:
    """The read-only symbol of A at resolution n: |k|^2 on the canonical layout, 0 off it."""
    _, _, canon, kk, _, _, _ = _lattice(n)
    w = np.where(canon, kk, 0).astype(float)
    w.setflags(write=False)
    return w


def apply_a(u: SpectralField) -> SpectralField:
    """Au: per-mode multiplication by |k|^2."""
    return u.scale_radial(stokes_weights(u.n))


def semigroup(u: SpectralField, t: float) -> SpectralField:
    """exp(-tA) u for t >= 0."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    return u.scale_radial(u.radial_weights(lambda kk: np.exp(-t * kk.astype(float))))


# -- forcing ------------------------------------------------------------------


@dataclass(frozen=True)
class ForcingComponent:
    """A spatial field times a real scalar time law.

    law "constant": m(t) = 1; law "sinusoid": m(t) = cos(frequency t + phase).
    Real time laws preserve the coefficient reality constraint at every t.
    """

    profile: SpectralField
    law: str = "constant"
    frequency: float = 0.0
    phase: float = 0.0

    def modulation(self, t: float) -> float:
        if self.law == "constant":
            return 1.0
        if self.law == "sinusoid":
            return float(np.cos(self.frequency * t + self.phase))
        raise ValueError(f"unknown time law {self.law!r}")

    def duhamel_weight(self, kk: np.ndarray, t: float) -> np.ndarray:
        """int_0^t exp(-(t-tau) |k|^2) m(tau) dtau, per squared wavenumber."""
        lam = kk.astype(float)
        if self.law == "constant":
            return -np.expm1(-t * lam) / lam
        if self.law == "sinusoid":
            z = lam + 1j * self.frequency
            return np.real(
                (np.exp(1j * (self.frequency * t + self.phase)) - np.exp(1j * self.phase - lam * t)) / z
            )
        raise ValueError(f"unknown time law {self.law!r}")


class ForcingSpec:
    """Forcing term assembled from components with closed-form time laws."""

    def __init__(self, n: int, components=()):
        self.n = n
        self.components = tuple(components)
        for comp in self.components:
            if comp.profile.n != n:
                raise ResolutionMismatch("forcing component resolution mismatch")

    @classmethod
    def zero(cls, n: int) -> "ForcingSpec":
        return cls(n, ())

    @classmethod
    def from_modes(cls, n: int, terms) -> "ForcingSpec":
        """terms: iterable of (k, amplitude[, law, frequency, phase]).

        Each term becomes one component whose profile is the single-mode
        field (conjugate partner auto-filled).
        """
        comps = []
        for term in terms:
            k, amp = term[0], term[1]
            law = term[2] if len(term) > 2 else "constant"
            freq = float(term[3]) if len(term) > 3 else 0.0
            phase = float(term[4]) if len(term) > 4 else 0.0
            comps.append(
                ForcingComponent(SpectralField.from_modes(n, [(k, amp)]), law, freq, phase)
            )
        return cls(n, comps)

    @classmethod
    def from_random(cls, n: int, gamma: float, seed: int, amplitude: float = 1.0,
                    band: int | None = None) -> "ForcingSpec":
        """Constant-in-time random forcing with power-law coefficients."""
        return cls(n, (ForcingComponent(random_field(n, gamma, seed, band=band, amplitude=amplitude)),))

    @classmethod
    def from_field(cls, field: SpectralField) -> "ForcingSpec":
        return cls(field.n, (ForcingComponent(field),))

    def is_zero(self) -> bool:
        return all(c.profile.is_zero() for c in self.components)

    @property
    def max_mode_inf(self) -> int:
        """The |k|_inf support: the widest of the component profiles (0 if none)."""
        return max((c.profile.max_mode_inf for c in self.components), default=0)

    def is_steady(self) -> bool:
        """True when every component has the constant law: field_at is then one field."""
        return all(c.law == "constant" for c in self.components)

    def field_at(self, t: float) -> SpectralField:
        out = SpectralField.zeros(self.n)
        for comp in self.components:
            out = out + comp.profile * comp.modulation(t)
        return out

    def split(self, k_cut: int) -> tuple["ForcingSpec", "ForcingSpec"]:
        """Low-pass part (modes |k| <= k_cut) and the remainder."""
        low, high = [], []
        for comp in self.components:
            profile = comp.profile.low_pass(k_cut)
            low.append(replace(comp, profile=profile))
            high.append(replace(comp, profile=comp.profile - profile))
        return ForcingSpec(self.n, low), ForcingSpec(self.n, high)

    def duhamel_term(self, t: float) -> SpectralField:
        """int_0^t exp(-(t-tau)A) f(tau) dtau in closed form."""
        out = SpectralField.zeros(self.n)
        for comp in self.components:
            w = comp.profile.radial_weights(lambda kk: comp.duhamel_weight(kk, t))
            out = out + comp.profile.scale_radial(w)
        return out


def forcing_lr_norm(forcing, params, times) -> float:
    """||f||_{L^r(0,T; B^{-s}_{p,q})}, trapezoid in time over the sample grid.

    When every component has the constant law, field_at is the same field at
    every sample, so its Besov norm is evaluated once.
    """
    def norm_at(t):
        return besov_value(forcing.field_at(float(t)), -params.s, params.p, params.q)

    if forcing.is_steady():
        vals = np.full(len(times), norm_at(times[0]))
    else:
        vals = np.array([norm_at(t) for t in times])
    return lr_time_norm(times, params.r, vals)


def data_f_norm(u0: SpectralField, forcing, params, times) -> float:
    """Data norm ||f||_{L^r(0,T; B^{-s}_{p,q})} + ||u0||_{B^{-s+2-2/r}_{p,r}}.

    The forcing term is taken on the sample grid times.
    """
    return (forcing_lr_norm(forcing, params, times)
            + besov_value(u0, params.initial_regularity, params.p, params.r))


def stokes_solve(u0: SpectralField, forcing, t_final: float, steps: int) -> Trajectory:
    """Solve u' + Au = f, u(0) = u0 on [0, t_final] per mode.

    Each sample is the closed-form Duhamel solution at its time, and the
    derivative samples are taken from the equation, u' = f - Au.  A
    non-finite coefficient at any sample raises NonFiniteField.
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if forcing.n != u0.n:
        raise ResolutionMismatch("forcing resolution differs from initial data")
    times = np.linspace(0.0, t_final, steps + 1)
    fields = [semigroup(u0, float(t)) + forcing.duhamel_term(float(t)) for t in times]
    check_finite_samples(times, fields)
    derivs = [forcing.field_at(float(t)) - apply_a(u) for t, u in zip(times, fields)]
    return Trajectory(times, fields, derivs=derivs)


def check_finite_samples(times, fields) -> None:
    """Raise NonFiniteField naming the first sample with a non-finite coefficient."""
    bad = next((i for i, u in enumerate(fields) if u.has_nonfinite()), None)
    if bad is not None:
        raise NonFiniteField(f"non-finite coefficient at sample {bad} (t = {times[bad]:.6g})")


@dataclass(frozen=True)
class LinearRegularityReport:
    """Empirical continuity constants of the linear solve.

    ratio is ||u||_W over the data norm; continuity_ratio is the sup-in-time norm
    of u in the initial-data space against ||u||_W.
    """

    w_norm: float
    data_norm: float
    ratio: float
    sup_initial_space: float
    continuity_ratio: float


def linear_regularity_report(traj: Trajectory, forcing, u0: SpectralField,
                             params) -> LinearRegularityReport:
    data_norm = data_f_norm(u0, forcing, params, traj.times)
    w_norm = traj.w1r_norm(params)
    sup_init = float(np.max(traj.besov_series(params.initial_regularity, params.p, params.r)))
    return LinearRegularityReport(
        w_norm=w_norm,
        data_norm=data_norm,
        ratio=w_norm / data_norm if data_norm > 0 else 0.0,
        sup_initial_space=sup_init,
        continuity_ratio=sup_init / w_norm if w_norm > 0 else 0.0,
    )
