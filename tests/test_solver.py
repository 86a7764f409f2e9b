"""Nonlinear integrator, smallness bound, splitting, uniqueness probe."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from nstorus import solver
from nstorus.besov import BesovParams, besov_value
from nstorus.errors import (
    CutoffExhausted,
    InadmissibleParams,
    NonFiniteField,
    ResolutionMismatch,
    SmallnessBoundViolation,
    SmallnessViolation,
    UnboundedConstant,
)
from nstorus.fields import SpectralField, _lattice, random_field
from nstorus.nonlinear import EnsembleSpec, bilinear_b, energy_lemma_ensemble, trilinear
from nstorus.solver import (
    DEFAULT_CONSTANTS,
    EmpiricalConstants,
    SolverConfig,
    estimate_empirical_constants,
    integrate,
    smallness_bound_rhs,
    smallness_time_bound,
    picard_iterate,
    solve_direct,
    solve_local,
    solve_split,
    solve_x,
    solve_y,
    split_data,
    uniqueness_probe,
)
from nstorus.stokes import ForcingSpec, semigroup, stokes_solve
from nstorus.trajectory import cumulative_trapezoid

PARAMS = BesovParams("4/3", "5/2", "3", "3")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(n=16, dt=-1.0)

    def test_defaults(self):
        cfg = SolverConfig(n=32)
        assert cfg.band == 10
        assert cfg.grid_m == 32
        assert cfg.steps == 1000

    def test_data_at_another_resolution_is_refused(self):
        # the band and the product grid follow the data, so N = 32 data under n = 16
        # would run at N = 32 and be recorded as n = 16
        cfg = SolverConfig(n=16, dt=0.01, t_final=0.02)
        u32, f32 = random_field(32, 2.2, 1, band=10), ForcingSpec.zero(32)
        u16, f16 = random_field(16, 2.2, 1, band=5), ForcingSpec.zero(16)
        calls = [lambda: solve_direct(u32, f32, cfg),
                 lambda: solve_direct(u16, f32, cfg),
                 lambda: solve_local(u32, f16, PARAMS, cfg),
                 lambda: solve_split(u32, f32, PARAMS, cfg),
                 lambda: solve_x(u16, f16, u32, f16, PARAMS, cfg),
                 lambda: uniqueness_probe(u16, f16, PARAMS, cfg, delta0=u32)]
        for call in calls:
            with pytest.raises(ResolutionMismatch, match=r"resolution 32 .* n = 16$"):
                call()

    def test_data_beyond_the_band_is_refused(self):
        # a solver steps, and reports the norms of, the data it is given: data wider
        # than the band |k|_inf <= 5 is refused, not cut to it
        cfg = SolverConfig(n=16, dt=0.01, t_final=0.02)
        u, f = random_field(16, 2.2, 1, band=cfg.band), ForcingSpec.zero(16)
        u_wide = random_field(16, 2.2, 2, band=6)
        f_wide = ForcingSpec.from_modes(16, [((1, 0), 0.1), ((6, 2), 0.1, "sinusoid", 3.0, 0.2)])
        assert u_wide.max_mode_inf == f_wide.max_mode_inf == 6
        refused = r"^data support \|k\|_inf = 6 exceeds the band 5 at n = 16$"

        def still(state, t):
            return np.zeros_like(state), ({},) * len(state)

        with pytest.raises(ResolutionMismatch, match=refused):
            integrate((u, u_wide), still, cfg.t_final, cfg.steps)
        for u0, f0 in ((u_wide, f), (u, f_wide)):
            calls = [lambda: solve_direct(u0, f0, cfg),
                     lambda: solve_local(u0, f0, PARAMS, cfg),
                     lambda: solve_split(u0, f0, PARAMS, cfg),
                     lambda: solve_x(u, f, u0, f0, PARAMS, cfg),
                     lambda: uniqueness_probe(u, f0, PARAMS, cfg, delta0=u0),
                     lambda: picard_iterate(u0, f0, PARAMS, 0.02, 2)]
            for call in calls:
                with pytest.raises(ResolutionMismatch, match=refused):
                    call()
        # the linear solve is exact at any support and takes the full lattice
        full = random_field(16, 2.2, 3)
        assert full.max_mode_inf == 8
        traj = stokes_solve(full, ForcingSpec.from_field(full), 0.02, 2)
        assert np.array_equal(traj.fields[0].c, full.c)
        assert traj.fields[-1].max_mode_inf == 8


class TestStep:
    def test_linear_reduction_matches_semigroup_per_mode(self):
        cfg = SolverConfig(n=16, dt=0.01, t_final=0.05)
        u0 = random_field(16, 1.0, 3, band=cfg.band)

        def no_nonlin(state, t):
            return np.zeros_like(state), ({},)

        (traj,) = integrate((u0,), no_nonlin, cfg.t_final, cfg.steps)
        for t, u in zip(traj.times, traj.fields):
            ref = semigroup(u0, float(t))
            mask = np.abs(ref.c) > 0
            if mask.any():
                rel = np.max(np.abs(u.c[mask] - ref.c[mask]) / np.abs(ref.c[mask]))
                assert rel <= 1e-14

    def test_uncoupled_components_step_as_if_alone(self):
        cfg = SolverConfig(n=16, dt=0.01, t_final=0.1)
        u0 = random_field(16, 2.0, 3, band=cfg.band, amplitude=0.5)
        v0 = random_field(16, 1.5, 4, band=2, amplitude=0.2)
        f = ForcingSpec.from_modes(16, [((1, 1), 0.1, "sinusoid", 3.0, 0.2)])
        forcings = (f, ForcingSpec.zero(16))

        def direct(u, t, forcing):
            fu = forcing.field_at(t)
            b = bilinear_b(u, u)
            return fu - b, {"visc": u.h_norm(1.0) ** 2, "work_b": b.inner(u)}

        def rhs(*forcing):
            def nonlin(state, t):
                pairs = [direct(SpectralField(16, c), t, g) for c, g in zip(state, forcing)]
                return np.stack([du.c for du, _ in pairs]), tuple(w for _, w in pairs)
            return nonlin

        pair = integrate((u0, v0), rhs(*forcings), cfg.t_final, cfg.steps)
        alone = [integrate((w0,), rhs(g), cfg.t_final, cfg.steps)[0]
                 for w0, g in zip((u0, v0), forcings)]
        for joint, single in zip(pair, alone):
            assert all(np.array_equal(a.c, b.c) for a, b in zip(joint.fields, single.fields))
            assert all(np.array_equal(a.c, b.c) for a, b in zip(joint.derivs, single.derivs))
            assert list(joint.acc) == list(single.acc) == ["visc", "work_b"]
            for name in single.acc:
                assert np.array_equal(joint.acc[name], single.acc[name])

    def test_accumulators_are_left_to_right_running_sums(self):
        # the integrand is the stage time, so each step's increment is known exactly
        cfg = SolverConfig(n=8, dt=0.1, t_final=1.0)

        def nonlin(state, t):
            return np.zeros_like(state), ({"t": t},)

        (traj,) = integrate((SpectralField.zeros(8),), nonlin, cfg.t_final, cfg.steps)
        h = cfg.t_final / cfg.steps
        expected = [0.0]
        for t in map(float, traj.times[:-1]):
            mid = t + 0.5 * h
            expected.append(expected[-1] + (h / 6.0) * (t + 2.0 * mid + 2.0 * mid + (t + h)))
        assert traj.acc["t"].tolist() == expected

    def test_shear_mode_pure_decay(self):
        cfg = SolverConfig(n=16, dt=0.01, t_final=0.2)
        u0 = SpectralField.from_modes(16, [((2, 0), 0.5)])
        traj = solve_direct(u0, ForcingSpec.zero(16), cfg)
        ref = semigroup(u0, cfg.t_final)
        assert np.max(np.abs(traj.fields[-1].c - ref.c)) <= 1e-14

    def test_local_order_at_least_3_8(self):
        u0 = random_field(16, 2.0, 3, band=5, amplitude=2.0)
        f = ForcingSpec.from_random(16, 2.5, 11, amplitude=1.0, band=5)
        ref = solve_direct(u0, f, SolverConfig(n=16, dt=0.1 / 320, t_final=0.1)).fields[-1]
        errs = []
        for k in (5, 10, 20):
            sol = solve_direct(u0, f, SolverConfig(n=16, dt=0.1 / k, t_final=0.1)).fields[-1]
            errs.append((sol - ref).l2_norm())
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 3.8)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_blowup_detected(self):
        cfg = SolverConfig(n=16, dt=0.5, t_final=2.0)
        u0 = random_field(16, 0.0, 5, band=cfg.band, amplitude=1e160)
        with pytest.raises(NonFiniteField):
            solve_direct(u0, ForcingSpec.zero(16), cfg)

    def test_discrete_energy_balance_unforced(self):
        cfg = SolverConfig(n=16, dt=2e-3, t_final=0.2)
        u0 = random_field(16, 2.0, 8, band=cfg.band, amplitude=0.5)
        traj = solve_direct(u0, ForcingSpec.zero(16), cfg, monitor=True)
        lhs = 0.5 * traj.series(lambda u: u.energy()) + traj.acc["visc"]
        rhs = 0.5 * u0.energy() + traj.acc["work_b"]
        scale = max(np.max(np.abs(lhs)), 1e-300)
        # residual is O(dt^4) per the scheme's own order; ~5e-10 at dt = 2e-3
        assert np.max(np.abs(lhs - rhs)) <= 5e-9 * scale
        # the trilinear accumulator itself vanishes by Galerkin antisymmetry
        tri_scale = u0.l2_norm() ** 2 * u0.h_norm(1.0)
        assert np.max(np.abs(traj.acc["work_b"])) <= 1e-12 * tri_scale


class TestStageWork:
    """Monitored and forced solves evaluate each stage's product and forcing once."""

    def _counted(self, monkeypatch):
        field_at, products = [], []
        orig_field_at, orig_b = ForcingSpec.field_at, solver.bilinear_b
        monkeypatch.setattr(ForcingSpec, "field_at",
                            lambda self, t: field_at.append(t) or orig_field_at(self, t))
        monkeypatch.setattr(solver, "bilinear_b",
                            lambda *a, **k: products.append(a) or orig_b(*a, **k))
        return field_at, products

    def test_monitored_steady_solve(self, monkeypatch):
        cfg = SolverConfig(n=16, dt=0.01, t_final=0.1)
        u0 = random_field(16, 2.0, 3, band=cfg.band, amplitude=0.5)
        f = ForcingSpec.from_random(16, 2.4, 4, amplitude=0.3, band=cfg.band)
        field_at, products = self._counted(monkeypatch)
        traj = solve_direct(u0, f, cfg, monitor=True)
        assert len(field_at) == 1
        assert len(products) == 4 * cfg.steps + 1  # one per stage, then the final derivative
        monkeypatch.undo()
        # the reused stage products give the accumulators of a recomputing monitor

        def nonlin(state, t):
            u = SpectralField(16, state[0])
            du = f.field_at(t) - bilinear_b(u, u)
            return du.c[None], ({
                "visc": u.h_norm(1.0) ** 2,
                "work_f": f.field_at(t).inner(u),
                "work_b": bilinear_b(u, u).inner(u),
            },)

        (ref,) = integrate((u0,), nonlin, cfg.t_final, cfg.steps)
        assert all(np.array_equal(a.c, b.c) for a, b in zip(traj.fields, ref.fields))
        assert list(traj.acc) == list(ref.acc) == ["visc", "work_f", "work_b"]
        for name in ref.acc:
            assert np.array_equal(traj.acc[name], ref.acc[name])

    def test_sinusoid_forcing_is_evaluated_per_stage(self, monkeypatch):
        cfg = SolverConfig(n=16, dt=0.01, t_final=0.05)
        f = ForcingSpec.from_modes(16, [((1, 1), 0.1, "sinusoid", 3.0, 0.2)])
        field_at, _ = self._counted(monkeypatch)
        solve_direct(SpectralField.zeros(16), f, cfg)
        assert len(field_at) == 4 * cfg.steps + 1


class TestPiccBound:
    def test_zero_data_full_interval(self):
        assert smallness_time_bound(0.0, Fraction(1, 10), DEFAULT_CONSTANTS, 2.0) == 2.0

    def test_strict_inequality_on_return(self):
        t = smallness_time_bound(0.37, Fraction(1, 10), DEFAULT_CONSTANTS, 1e30)
        assert 0.37 * t ** (1.0 / 10.0) < smallness_bound_rhs(DEFAULT_CONSTANTS)

    def test_scaling_law_exact_in_log2(self):
        # with data and bound at powers of two, log2 of the time bound is the
        # exact rational (log2(rhs) - log2(F)) / eps; halving F adds 1/eps
        eps = Fraction(1, 10)
        consts = EmpiricalConstants(0.5, 1.0, 1, 1, 1, 1)  # rhs = 1/(4*0.25*1) = 1
        f_norm = 2.0**-3
        t1 = smallness_time_bound(f_norm, eps, consts, 1e300)
        t2 = smallness_time_bound(f_norm / 2, eps, consts, 1e300)
        # the returned bound is shaved by 1e-9 to keep the inequality strict
        assert math.log2(t1) == pytest.approx(float(Fraction(3) / eps), abs=1e-8)
        assert t2 / t1 == pytest.approx(2.0 ** float(1 / eps), rel=1e-12)
        # invariant of the bound formula: F * T^eps is constant
        assert f_norm * t1 ** float(eps) == pytest.approx((f_norm / 2) * t2 ** float(eps), rel=1e-9)

    def test_violation_on_degenerate_constants(self):
        with pytest.raises(SmallnessBoundViolation):
            smallness_bound_rhs(EmpiricalConstants(1.0, 0.0, 1, 1, 1, 1))


class TestLocalSolve:
    def test_zero_data(self):
        cfg = SolverConfig(n=16, dt=0.05, t_final=1.0)
        res = solve_local(SpectralField.zeros(16), ForcingSpec.zero(16), PARAMS, cfg)
        assert res.t_bar == 1.0
        assert all(f.is_zero() for f in res.trajectory.fields)

    def test_gate_enforced(self):
        cfg = SolverConfig(n=16, dt=0.05, t_final=1.0)
        with pytest.raises(InadmissibleParams):
            solve_local(SpectralField.zeros(16), ForcingSpec.zero(16),
                        BesovParams(0, 2, 2, 2), cfg)

    def test_small_data_contraction(self):
        cfg = SolverConfig(n=16, dt=0.02, t_final=2.0)
        u0 = SpectralField.from_modes(16, [((1, 0), 0.2)])
        f = ForcingSpec.from_modes(16, [((1, 1), 0.1)])
        res = solve_local(u0, f, PARAMS, cfg)
        assert res.picard.converged
        assert all(c < 1.0 for c in res.picard.factors)
        assert res.f_norm * res.t_bar ** float(res.epsilon) < res.bound_rhs

    def test_contraction_factor_decreases_with_window(self):
        u0 = SpectralField.from_modes(16, [((1, 0), 0.2)])
        f = ForcingSpec.from_modes(16, [((1, 1), 0.1)])
        firsts = []
        for t_bar in (2.0, 1.0, 0.5, 0.25):
            diag = picard_iterate(u0, f, PARAMS, t_bar, 40)
            firsts.append(diag.factors[0])
        assert all(b < a for a, b in zip(firsts, firsts[1:]))

    MIXED_FORCING = ((1, 1), 0.2), ((2, -1), 0.1 + 0.05j, "sinusoid", 7.0, 0.3)

    def test_picard_sweeps_are_pinned(self):
        # pinned bit for bit: the interval step's floating-point sequence must not change
        u0 = random_field(16, 2.0, seed=31, band=5, amplitude=0.3)
        f = ForcingSpec.from_modes(16, self.MIXED_FORCING)
        diag = picard_iterate(u0, f, PARAMS, 0.4, 8)
        assert diag.converged and diag.iterations == 6
        assert diag.diff_norms == [0.10937625917776739, 0.0013031467349584192,
                                   7.11682208554244e-06, 9.516302463865671e-08,
                                   1.0617748931630326e-09, 1.6322392108397375e-11]
        assert diag.factors == [0.01191434727019176, 0.005461259192557102,
                                0.013371561561441429, 0.01115743112616161,
                                0.01537274257801754]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_picard_non_finite_sweep_rejected(self):
        u0 = random_field(16, 2.0, seed=31, band=5, amplitude=1e200)
        f = ForcingSpec.from_modes(16, self.MIXED_FORCING)
        with pytest.raises(NonFiniteField, match=r"sample 1 \(t = 0.05\)"):
            picard_iterate(u0, f, PARAMS, 0.4, 8)


class TestSplitData:
    def test_low_pass_data_splits_trivially(self):
        f = ForcingSpec.from_modes(16, [((1, 0), 0.5), ((2, 1), 0.25)])
        u0 = SpectralField.from_modes(16, [((1, 1), 0.3)])
        split = split_data(u0, f, 1e-8, PARAMS, 1.0)
        assert split.h.is_zero()
        assert split.y0.is_zero()

    def test_huge_epsilon_gives_minimal_cutoff(self):
        u0 = random_field(16, 1.0, 3)
        f = ForcingSpec.from_random(16, 1.0, 4)
        split = split_data(u0, f, 1e6, PARAMS, 1.0)
        assert split.k_cut == 1

    def test_tail_norm_decreases_with_cutoff(self):
        u0 = random_field(32, 4.0, 3)
        prev = None
        for k in (1, 2, 4, 8):
            y0 = u0 - u0.low_pass(k)
            norm = besov_value(y0, PARAMS.initial_regularity, PARAMS.p, PARAMS.r)
            if prev is not None:
                assert norm <= prev
            prev = norm

    def test_unresolvable_raises(self):
        u0 = SpectralField.from_modes(8, [((4, 4), 1.0)])  # |k| > n/2, survives any cutoff
        with pytest.raises(CutoffExhausted):
            split_data(u0, ForcingSpec.zero(8), 1e-12, PARAMS, 1.0)


class TestSolveYX:
    def test_zero_data_zero_trajectory(self):
        cfg = SolverConfig(n=16, dt=0.02, t_final=0.2)
        traj = solve_y(SpectralField.zeros(16), ForcingSpec.zero(16), PARAMS, cfg)
        assert all(f.is_zero() for f in traj.fields)

    def test_smallness_gate(self):
        cfg = SolverConfig(n=16, dt=0.02, t_final=0.2, smallness_y0=1e-6)
        with pytest.raises(SmallnessViolation):
            solve_y(random_field(16, 1.0, 2, amplitude=1.0), ForcingSpec.zero(16), PARAMS, cfg)

    def test_tiny_data_decays_from_start(self):
        cfg = SolverConfig(n=16, dt=0.01, t_final=0.3)
        y0 = SpectralField.from_modes(16, [((1, 1), 1e-3)])
        traj = solve_y(y0, ForcingSpec.zero(16), PARAMS, cfg)
        sup = max(traj.besov_series(PARAMS.initial_regularity, PARAMS.p, PARAMS.r))
        first = besov_value(traj.fields[0], PARAMS.initial_regularity, PARAMS.p, PARAMS.r)
        assert sup == pytest.approx(first, rel=1e-12)

    def test_y_is_the_direct_solve(self):
        cfg = SolverConfig(n=16, dt=0.01, t_final=0.05)
        y0 = random_field(16, 2.0, 7, band=cfg.band, amplitude=1e-3)
        h = ForcingSpec.from_modes(16, [((1, 1), 1e-3, "sinusoid", 3.0, 0.2)])
        y = solve_y(y0, h, PARAMS, cfg)
        ref = solve_direct(y0, h, cfg)
        assert all(np.array_equal(a.c, b.c) for a, b in zip(y.fields, ref.fields))
        assert all(np.array_equal(a.c, b.c) for a, b in zip(y.derivs, ref.derivs))

    @pytest.mark.parametrize("y_band", [1, 2, 5])
    def test_split_y_is_the_stand_alone_rough_solve(self, y_band):
        # y_band < 5 gives y a smaller support than x; both are multiplied on one grid
        cfg = SolverConfig(n=16, dt=0.01, t_final=0.05)
        y0 = random_field(16, 2.0, 7, band=y_band, amplitude=1e-3)
        h = ForcingSpec.from_modes(16, [((2, 1), 1e-3, "sinusoid", 3.0, 0.2)])
        x0 = random_field(16, 2.0, 8, band=cfg.band, amplitude=0.3)
        res = solve_x(x0, ForcingSpec.zero(16), y0, h, PARAMS, cfg)
        ref = solve_y(y0, h, PARAMS, cfg)
        y = res.y_trajectory
        assert all(np.array_equal(a.c, b.c) for a, b in zip(y.fields, ref.fields))
        assert all(np.array_equal(a.c, b.c) for a, b in zip(y.derivs, ref.derivs))
        assert y.acc == {}
        assert list(res.trajectory.acc) == ["visc", "work_b", "work_g"]

    def test_x_checks_the_rough_data_first(self):
        cfg = SolverConfig(n=16, dt=0.02, t_final=0.2, smallness_y0=1e-6)
        with pytest.raises(SmallnessViolation):
            solve_x(SpectralField.zeros(16), ForcingSpec.zero(16),
                    random_field(16, 1.0, 2, band=cfg.band, amplitude=1.0), ForcingSpec.zero(16),
                    PARAMS, cfg)

    @pytest.mark.parametrize("law", ["constant", "sinusoid"])
    def test_monitor_takes_a_steady_forcing_norm_once(self, monkeypatch, law):
        cfg = SolverConfig(n=16, dt=0.01, t_final=0.1)
        x0 = random_field(16, 2.0, 8, band=cfg.band, amplitude=0.3)
        g = ForcingSpec.from_modes(16, [((1, 2), 0.05, law, 3.0, 0.2)])
        res = solve_x(x0, g, SpectralField.zeros(16), ForcingSpec.zero(16), PARAMS, cfg)
        h_norms = []
        original = SpectralField.h_norm
        monkeypatch.setattr(SpectralField, "h_norm",
                            lambda self, s: h_norms.append(s) or original(self, s))
        monitor = solver.build_energy_monitor(res.trajectory, res.y_trajectory, g,
                                              x0, PARAMS, cfg)
        assert h_norms.count(-1.0) == (1 if law == "constant" else cfg.steps + 1)
        # the envelope of the per-sample norms, as it was computed for every forcing
        g_vals = [g.field_at(float(t)).h_norm(-1.0) ** 2
                  for t in res.trajectory.times]
        y_int = cumulative_trapezoid(res.trajectory.times, np.zeros(cfg.steps + 1))
        envelope = ((x0.energy()
                     + 2.0 * cumulative_trapezoid(res.trajectory.times, g_vals))
                    * np.exp(2.0 * cfg.constants.c_energy * y_int))
        assert np.array_equal(monitor.envelope, envelope)
        assert np.array_equal(monitor.envelope, res.monitor.envelope)

    def test_x_reduces_to_stokes_for_shear_and_no_coupling(self):
        cfg = SolverConfig(n=16, dt=1e-3, t_final=0.2)
        x0 = SpectralField.from_modes(16, [((2, 0), 0.5)])
        res = solve_x(x0, ForcingSpec.zero(16), SpectralField.zeros(16), ForcingSpec.zero(16),
                      PARAMS, cfg)
        ref = stokes_solve(x0, ForcingSpec.zero(16), cfg.t_final, cfg.steps)
        diff = max((a - b).l2_norm() for a, b in zip(res.trajectory.fields, ref.fields))
        assert diff <= 1e-12
        assert res.monitor.max_residual <= 1e-8
        assert not res.monitor.breached


class TestSolveSplit:
    def test_degenerate_split_matches_direct_bitwise(self):
        cfg = SolverConfig(n=16, dt=5e-3, t_final=0.2)
        u0 = SpectralField.from_modes(16, [((1, 0), 0.2), ((1, 1), 0.1)])
        f = ForcingSpec.from_modes(16, [((2, 1), 0.05)])
        res = solve_split(u0, f, PARAMS, cfg)
        assert res.split.h.is_zero() and res.split.y0.is_zero()
        assert res.sup_discrepancy <= 1e-12

    def test_generic_split_consistency_small(self):
        cfg = SolverConfig(n=16, dt=5e-3, t_final=0.2, split_eps=5e-2,
                           smallness_y0=6e-2, smallness_h=6e-2)
        u0 = random_field(16, 2.2, 42, band=5, amplitude=0.4)
        f = ForcingSpec.from_random(16, 2.4, 43, amplitude=0.3, band=5)
        res = solve_split(u0, f, PARAMS, cfg)
        assert not res.x_result.y_trajectory.fields[0].is_zero()
        assert res.sup_discrepancy <= 1e-10
        assert res.x_result.monitor.max_residual <= 1e-6
        assert not res.x_result.monitor.breached
        from nstorus.solver import regularity_norms_y

        norms = regularity_norms_y(res.x_result.y_trajectory, PARAMS)
        assert all(np.isfinite(v) and v >= 0 for v in norms.values())

    SPLIT_CFG = SolverConfig(n=16, dt=5e-3, t_final=0.05, split_eps=5e-2,
                             smallness_y0=6e-2, smallness_h=6e-2)

    @staticmethod
    def _generic_data():
        u0 = random_field(16, 2.2, 42, band=5, amplitude=0.4)
        steady = ForcingSpec.from_random(16, 2.4, 43, amplitude=0.3, band=5)
        waves = ForcingSpec.from_modes(16, [((1, 0), 0.1, "sinusoid", 3.0, 0.2),
                                            ((5, 4), 0.01, "sinusoid", 5.0, 0.1)])
        return u0, ForcingSpec(16, steady.components + waves.components)

    def test_split_parts_and_direct_check_equal_their_own_solves(self, monkeypatch):
        # k_cut > 1, with a sinusoid in both g and h: the (y, x) system equals solve_x and
        # the direct check equals solve_direct, bit for bit
        cfg = self.SPLIT_CFG
        u0, f = self._generic_data()
        split = split_data(u0, f, cfg.split_eps, PARAMS, cfg.t_final)
        assert split.k_cut > 1 and not split.y0.is_zero()
        for part in (split.g, split.h):
            assert any(c.law == "sinusoid" and not c.profile.is_zero() for c in part.components)
        direct = solve_direct(u0, f, cfg)
        x_res = solve_x(split.x0, split.g, split.y0, split.h, PARAMS, cfg)
        runs = []
        original = solver.integrate
        monkeypatch.setattr(solver, "integrate",
                            lambda *args: runs.append(len(args[0])) or original(*args))
        res = solve_split(u0, f, PARAMS, cfg)
        assert runs == [2, 1]
        for got, want in ((res.direct, direct), (res.x_result.trajectory, x_res.trajectory),
                          (res.x_result.y_trajectory, x_res.y_trajectory)):
            assert all(np.array_equal(a.c, b.c) for a, b in zip(got.fields, want.fields))
            assert all(np.array_equal(a.c, b.c) for a, b in zip(got.derivs, want.derivs))
            assert list(got.acc) == list(want.acc)
            for name in want.acc:
                assert np.array_equal(got.acc[name], want.acc[name])
        assert np.array_equal(res.x_result.monitor.residuals, x_res.monitor.residuals)
        assert np.array_equal(res.x_result.monitor.envelope, x_res.monitor.envelope)

    def test_samples_are_read_only_views_of_one_block_per_integration(self):
        cfg = self.SPLIT_CFG
        res = solve_split(*self._generic_data(), PARAMS, cfg)
        off_canonical = ~_lattice(16)[2]
        pair = (res.x_result.y_trajectory, res.x_result.trajectory)
        for trajs in (pair, (res.direct,)):
            samples = [f for traj in trajs for f in traj.fields + traj.derivs]
            assert len(samples) == len(trajs) * 2 * (cfg.steps + 1)
            block = samples[0].c.base
            assert block.shape == (2, cfg.steps + 1, len(trajs), 9, 17)
            assert not block.flags.writeable
            for f in samples:
                assert np.shares_memory(f.c, block) and not f.c.flags.writeable
                assert not np.any(f.c[off_canonical])
            assert not np.shares_memory(samples[0].c, samples[1].c)
            with pytest.raises(ValueError):
                samples[-1].c[1, 1] = 1.0
        assert not np.shares_memory(res.direct.fields[0].c, res.x_result.trajectory.fields[0].c)

    def test_global_gate_enforced(self):
        cfg = SolverConfig(n=16, dt=5e-3, t_final=0.1)
        with pytest.raises(InadmissibleParams):
            solve_split(SpectralField.zeros(16), ForcingSpec.zero(16),
                        BesovParams("9/10", 12, 2, "20/19"), cfg)


class TestUniqueness:
    def test_zero_start_identically_zero_and_contraction(self):
        cfg = SolverConfig(n=16, dt=0.2 / 64, t_final=0.2)
        u0 = random_field(16, 2.0, 3, band=cfg.band, amplitude=0.5)
        rep = uniqueness_probe(u0, ForcingSpec.zero(16), PARAMS, cfg,
                               delta0=random_field(16, 3.0, 5, band=cfg.band, amplitude=1e-4),
                               num_halvings=4)
        assert rep.zero_start_exact
        assert np.all(np.diff(rep.contraction_values) < 0)
        assert rep.envelope_holds

    def test_velocity_is_the_direct_solve(self, monkeypatch):
        # u starts with a smaller support than delta; both are multiplied on one grid
        cfg = SolverConfig(n=16, dt=0.01, t_final=0.08)
        u0 = random_field(16, 2.0, 3, band=2, amplitude=0.5)
        f = ForcingSpec.from_modes(16, [((1, 1), 0.1, "sinusoid", 3.0, 0.2)])
        delta0 = random_field(16, 3.0, 5, band=cfg.band, amplitude=1e-4)
        runs = []
        original = solver.integrate
        monkeypatch.setattr(solver, "integrate",
                            lambda *args: runs.append(original(*args)) or runs[-1])
        rep = uniqueness_probe(u0, f, PARAMS, cfg, delta0=delta0)
        ((u_traj, zero_traj, d_traj),) = runs
        ref = solve_direct(u0, f, cfg)
        assert all(np.array_equal(a.c, b.c) for a, b in zip(u_traj.fields, ref.fields))
        assert all(np.array_equal(a.c, b.c) for a, b in zip(u_traj.derivs, ref.derivs))
        assert rep.zero_start_exact and all(f.is_zero() for f in zero_traj.fields)
        assert np.array_equal(rep.delta_norms, d_traj.series(lambda f: f.l2_norm()))

    def test_no_delta_without_nonzero_start(self):
        cfg = SolverConfig(n=16, dt=0.05, t_final=0.2)
        rep = uniqueness_probe(SpectralField.zeros(16), ForcingSpec.zero(16), PARAMS, cfg,
                               delta0=SpectralField.zeros(16))
        assert rep.zero_start_exact
        assert rep.delta_norms is None and rep.envelope_holds is None


class TestEstimator:
    def test_reduced_estimate_is_frozen(self):
        """A small estimator run is pinned bit for bit, so any numerical change
        to the norm, quadrature or product layers that would orphan
        DEFAULT_CONSTANTS shows up here first."""
        got = estimate_empirical_constants(PARAMS, n=16, count=2, seed=2024)
        assert got.as_dict() == {
            "norm_inv_d0phi": 1.1167437262638096,
            "c1": 0.0812019085122132,
            "c2": 0.13185758668211522,
            "c3": 1.181099307473043,
            "c_energy": 6.458099387112495e-06,
            "c_ladyzhenskaya": 0.19937202379916305,
        }

    def test_constant_no_probe_bounded_is_named(self, monkeypatch):
        # an energy-lemma ensemble whose every pair implies 0: c_energy would be 0.0
        monkeypatch.setattr(solver, "energy_lemma_ensemble",
                            lambda *args: SimpleNamespace(max_ratio=0.0))
        with pytest.raises(UnboundedConstant,
                           match=r"^no probe bounded c_energy \(n=16, count=1, seed=275906\)$"):
            estimate_empirical_constants(PARAMS, n=16, count=1, seed=275906)

    def test_energy_constant_is_the_supremum_over_scales(self):
        # inputs whose maximizing scale L* lies beyond 2^12, where a ladder of scales
        # 2^-4 .. 2^12 found no positive constant and the estimator refused the run
        for seed in (219913, 407414, 253375, 608742, 416844, 983965):
            assert estimate_empirical_constants(PARAMS, n=32, count=1, seed=seed).c_energy > 0
        # the closed form is reached at L* and bounds every scale of a ladder
        q = float(PARAMS.r)
        for seed in (2024, 12345, 275906):
            got = energy_lemma_ensemble(0.25, PARAMS.p, PARAMS.r,
                                        EnsembleSpec(count=1, seed=seed, resolutions=(32,)))
            x = random_field(32, 2.5, seed, band=10)
            y = random_field(32, 2.0, seed + 1, band=10)
            t_pair, visc = abs(trilinear(x, x, y)), 0.25 * x.h_norm(1.0) ** 2
            y_norm = besov_value(y, Fraction(2) / PARAMS.p + Fraction(2) / PARAMS.r - 1,
                                 PARAMS.p, PARAMS.r)
            implied = lambda L: (L * t_pair - visc) / (x.energy() * (L * y_norm) ** q)
            assert implied(q * visc / ((q - 1) * t_pair)) == pytest.approx(got.max_ratio, rel=1e-12)
            assert all(implied(2.0 ** k) <= got.max_ratio * (1 + 1e-12) for k in range(-4, 40))

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="ensemble count must be >= 1, got 0"):
            estimate_empirical_constants(PARAMS, n=16, count=0, seed=2024)

    @pytest.mark.slow
    def test_default_constants_reproduce(self):
        assert estimate_empirical_constants(PARAMS, n=32, count=64, seed=2024) == DEFAULT_CONSTANTS
