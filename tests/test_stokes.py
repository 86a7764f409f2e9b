"""Stokes operator, semigroup, and the closed-form linear solve."""

import numpy as np
import pytest

from nstorus.besov import BesovParams, besov_value
from nstorus.errors import NonFiniteField, ResolutionMismatch
from nstorus.fields import SpectralField, random_field
from nstorus.stokes import (
    ForcingSpec,
    LinearRegularityReport,
    apply_a,
    forcing_lr_norm,
    linear_regularity_report,
    semigroup,
    stokes_solve,
    stokes_weights,
)

PARAMS = BesovParams("4/3", "5/2", "3", "3")


class TestOperator:
    def test_eigenvalue_scaling(self):
        u = SpectralField.from_modes(8, [((2, 0), 1.0)])
        assert apply_a(u).coeff(2, 0) == 4.0

    def test_one_cached_read_only_symbol_per_resolution(self):
        u = random_field(16, 1.5, seed=5)
        w = stokes_weights(16)
        assert w is stokes_weights(16) and not w.flags.writeable
        assert np.array_equal(w, u.radial_weights(lambda kk: kk.astype(float)))
        assert np.array_equal(apply_a(u).c, u.c * w)

    def test_shifts_sobolev_scale(self):
        u = random_field(16, 1.5, seed=5)
        for s in (-2.0, 0.0, 1.0):
            a = apply_a(u).h_norm(s)
            b = u.h_norm(s + 2)
            assert abs(a - b) <= 1e-12 * b


class TestSemigroup:
    def test_identity_at_zero(self):
        u = random_field(8, 1.0, seed=2)
        assert np.array_equal(semigroup(u, 0.0).c, u.c)

    def test_single_mode_decay_factor(self):
        u = SpectralField.from_modes(8, [((2, 0), 1.0)])
        assert abs(semigroup(u, 0.25).coeff(2, 0) - np.exp(-1)) < 1e-16

    def test_semigroup_law(self):
        u = random_field(16, 1.0, seed=4)
        a = semigroup(semigroup(u, 0.3), 0.45)
        b = semigroup(u, 0.75)
        assert np.max(np.abs(a.c - b.c)) <= 1e-14 * np.max(np.abs(b.c))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            semigroup(SpectralField.zeros(8), -0.1)

    @pytest.mark.parametrize("s,p,q", [(0, 2, 2), (1, 3, 3), (-0.5, 2, 4)])
    def test_besov_norm_decays_monotonically(self, s, p, q):
        u = random_field(16, 1.0, seed=6)
        values = [besov_value(semigroup(u, t), s, p, q) for t in (0.0, 0.1, 0.4, 1.0)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))


class TestStokesSolve:
    def test_zero_forcing_is_pure_decay(self):
        u0 = random_field(8, 1.0, seed=7)
        traj = stokes_solve(u0, ForcingSpec.zero(8), 1.0, 10)
        for t, u in zip(traj.times, traj.fields):
            ref = semigroup(u0, float(t))
            assert np.max(np.abs(u.c - ref.c)) <= 1e-14 * max(np.max(np.abs(ref.c)), 1e-300)

    def test_constant_forcing_closed_form(self):
        f = ForcingSpec.from_modes(8, [((2, 0), 0.8)])
        traj = stokes_solve(SpectralField.zeros(8), f, 1.0, 10)
        for t, u in zip(traj.times, traj.fields):
            expected = 0.8 / 4.0 * (1.0 - np.exp(-4.0 * t))
            assert abs(u.coeff(2, 0) - expected) <= 1e-15

    def test_sinusoid_matches_quadrature_oracle(self):
        amp, omega, phase = 0.3 + 0.2j, 2.0, 0.4
        f = ForcingSpec.from_modes(8, [((1, 2), amp, "sinusoid", omega, phase)])
        traj = stokes_solve(SpectralField.zeros(8), f, 0.7, 7)
        lam = 5.0
        nodes, wts = np.polynomial.legendre.leggauss(60)
        for i in (3, 7):
            t = traj.times[i]
            tau = 0.5 * t * (nodes + 1)
            integral = np.sum(np.exp(-lam * (t - tau)) * np.cos(omega * tau + phase) * wts) * 0.5 * t
            expected = amp * integral
            assert abs(traj.fields[i].coeff(1, 2) - expected) <= 1e-13 * abs(expected)

    def test_linearity(self):
        u1, u2 = random_field(8, 1.0, seed=8), random_field(8, 1.0, seed=9)
        f1 = ForcingSpec.from_random(8, 1.5, seed=10)
        f2 = ForcingSpec.from_random(8, 1.5, seed=11)
        a, b = 2.0, -0.5
        combined = stokes_solve(a * u1 + b * u2, _mix(f1, f2, a, b), 0.5, 5)
        s1 = stokes_solve(u1, f1, 0.5, 5)
        s2 = stokes_solve(u2, f2, 0.5, 5)
        for u, v, w in zip(combined.fields, s1.fields, s2.fields):
            ref = a * v + b * w
            scale = max(np.max(np.abs(ref.c)), 1e-300)
            assert np.max(np.abs(u.c - ref.c)) <= 1e-12 * scale

    def test_energy_balance_closed_form(self):
        # 1/2||u(t2)||^2 - 1/2||u(t1)||^2 + int_t1^t2 ||u||_H1^2 = 0 for u(t) = exp(-tA) u0;
        # per mode the viscous integral is |u_k|^2 (exp(-2 t1 |k|^2) - exp(-2 t2 |k|^2))
        u0 = random_field(16, 1.0, seed=12)
        t1, t2 = 0.1, 0.9
        kk = u0.radial_weights(lambda k: k.astype(float))
        amp2 = 2.0 * np.abs(u0.c) ** 2  # the canonical half carries both +/-k
        visc = 0.5 * float(np.sum(amp2 * (np.exp(-2.0 * t1 * kk) - np.exp(-2.0 * t2 * kk))))
        res = 0.5 * semigroup(u0, t2).energy() - 0.5 * semigroup(u0, t1).energy() + visc
        assert abs(res) <= 1e-12 * u0.energy()

    def test_derivative_from_equation(self):
        f = ForcingSpec.from_modes(8, [((1, 1), 0.5)])
        traj = stokes_solve(random_field(8, 1.0, seed=13), f, 1.0, 8)
        for t, u, du in zip(traj.times, traj.fields, traj.derivs):
            ref = f.field_at(float(t)) - apply_a(u)
            assert np.max(np.abs(du.c - ref.c)) <= 1e-14

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_solution_rejected(self):
        with pytest.raises(NonFiniteField, match="sample 0"):
            stokes_solve(SpectralField.zeros(8), ForcingSpec.from_random(8, float("nan"), 3),
                         1.0, 10)

    def test_unresolvable_forcing_mode_rejected(self):
        with pytest.raises(ResolutionMismatch):
            ForcingSpec.from_modes(8, [((7, 0), 1.0)])

    def test_regularity_report_finite_ratios(self):
        u0 = random_field(16, 2.0, seed=14)
        f = ForcingSpec.from_random(16, 2.0, seed=15, amplitude=0.5)
        traj = stokes_solve(u0, f, 1.0, 16)
        rep = linear_regularity_report(traj, f, u0, PARAMS)
        assert np.isfinite(rep.w_norm) and rep.w_norm > 0
        assert np.isfinite(rep.ratio) and rep.ratio > 0
        assert np.isfinite(rep.continuity_ratio) and rep.continuity_ratio > 0

    def test_regularity_report_transforms_each_field_once(self, monkeypatch):
        # 9 states and 9 derivatives in w1r_norm, u0 and the forcing in the data
        # norm; the sup-in-time series reuses the states' block norms at p
        u0 = random_field(16, 2.0, seed=14)
        f = ForcingSpec.from_random(16, 2.0, seed=15, amplitude=0.5)
        traj = stokes_solve(u0, f, 1.0, 8)
        # one block-norm transform is an ifft pass and an irfft pass
        calls = {"ifft": 0, "irfft": 0}

        def counting(name):
            fn = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np.fft, name, counting(name))
        rep = linear_regularity_report(traj, f, u0, PARAMS)
        monkeypatch.undo()
        assert calls == {"ifft": 20, "irfft": 20}
        assert rep == LinearRegularityReport(
            w_norm=1.82115286773662,
            data_norm=2.292626964881605,
            ratio=0.7943520230866111,
            sup_initial_space=1.5076232769424656,
            continuity_ratio=0.827840047725473,
        )


def _per_sample_lr_norm(forcing, times):
    vals = np.array([besov_value(forcing.field_at(float(t)), -PARAMS.s, PARAMS.p, PARAMS.q)
                     for t in times])
    r = float(PARAMS.r)
    return float(np.trapezoid(vals**r, times) ** (1.0 / r))


class TestForcingNorm:
    TIMES = np.linspace(0.0, 0.7, 29)

    def _counted(self, monkeypatch, forcing):
        import nstorus.stokes as stokes_mod

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return besov_value(*args, **kwargs)

        monkeypatch.setattr(stokes_mod, "besov_value", counting)
        value = forcing_lr_norm(forcing, PARAMS, self.TIMES)
        monkeypatch.undo()
        return value, len(calls)

    def test_constant_random_forcing_evaluates_once(self, monkeypatch):
        f = ForcingSpec.from_random(16, 2.4, seed=21, amplitude=0.3, band=5)
        for part in (f, *f.split(3)):
            value, calls = self._counted(monkeypatch, part)
            assert calls == 1
            assert value == _per_sample_lr_norm(part, self.TIMES)

    def test_constant_multi_mode_forcing_evaluates_once(self, monkeypatch):
        f = ForcingSpec.from_modes(16, [((1, 0), 0.4), ((2, 3), 0.1 - 0.2j), ((0, 5), 0.05j)])
        assert len(f.components) == 3
        value, calls = self._counted(monkeypatch, f)
        assert calls == 1
        assert value == _per_sample_lr_norm(f, self.TIMES)

    def test_sinusoid_forcing_is_sampled(self, monkeypatch):
        f = ForcingSpec.from_modes(16, [((1, 0), 0.4), ((2, 1), 0.3, "sinusoid", 6.0, 0.5)])
        value, calls = self._counted(monkeypatch, f)
        assert calls == self.TIMES.size
        assert value == _per_sample_lr_norm(f, self.TIMES)


def _mix(f1, f2, a, b):
    from nstorus.stokes import ForcingComponent

    comps = [ForcingComponent(c.profile * a, c.law, c.frequency, c.phase) for c in f1.components]
    comps += [ForcingComponent(c.profile * b, c.law, c.frequency, c.phase) for c in f2.components]
    return ForcingSpec(f1.n, comps)
