"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance is pinned here, in the assertion itself.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from nstorus.admissible import (
    appendix_a_infima,
    appendix_a_max,
    check_local,
    default_q,
    derive_exponents,
    direct_regularity_max,
    reproduce_reference_table,
)
from nstorus.besov import BesovParams, besov_from_block_lp, besov_value, block_lp_norms
from nstorus.cli import main as cli_main
from nstorus.fields import SpectralField, random_field
from nstorus.nonlinear import (
    EnsembleSpec,
    bilinear_b,
    bilinear_b_oracle,
    dealias_band,
    energy_lemma_ensemble,
    trilinear,
    verify_estimate_chain,
)
from nstorus.solver import SolverConfig, solve_direct, solve_split, uniqueness_probe
from nstorus.stokes import ForcingSpec, semigroup, stokes_solve

PARAMS = BesovParams("4/3", "5/2", "3", "3")


def _verdict(num: int, ok: bool, desc: str, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc} [{detail}]")
    assert ok, f"criterion {num}: {desc} [{detail}]"


# -- shared expensive runs ----------------------------------------------------------


@pytest.fixture(scope="module")
def split_run():
    """Nondegenerate split solve at N=32, T=1, dt=1e-3 (criteria 8 and 9)."""
    cfg = SolverConfig(n=32, dt=1e-3, t_final=1.0, split_eps=5e-2,
                       smallness_y0=6e-2, smallness_h=6e-2)
    u0 = random_field(32, 2.2, 42, band=10, amplitude=0.4)
    forcing = ForcingSpec.from_random(32, 2.4, 43, amplitude=0.3, band=10)
    return solve_split(u0, forcing, PARAMS, cfg), cfg


@pytest.fixture(scope="module")
def probe_data():
    """Unforced data on a halving-friendly grid (criterion 10)."""
    cfg = SolverConfig(n=32, dt=1.0 / 512, t_final=1.0)
    return random_field(32, 2.0, 7, band=cfg.band, amplitude=0.5), cfg


def test_criterion_01_reference_table_exact():
    t0 = time.monotonic()
    rows = reproduce_reference_table()
    expected = [Fraction(-4, 5), Fraction(48, 25), Fraction(-17, 20), Fraction(-48, 100),
                Fraction(-1, 20), Fraction(0), Fraction(1, 210)]
    fractions_ok = all(r.computed_regularity == e for r, e in zip(rows, expected))
    global_rows = [r for r in rows if r.gate == "global"]
    globals_ok = len(global_rows) == 5 and all(r.report.all_pass for r in global_rows)
    boundary = rows[2]
    boundary_ok = (
        boundary.status == "BOUNDARY(4)"
        and not boundary.report.all_pass
        and next(c for c in boundary.report.checks if c.cond_id == "4").lhs == Fraction(3)
    )
    cli_ok = cli_main(["reproduce-appendix-b"]) == 0
    elapsed = time.monotonic() - t0
    ok = fractions_ok and globals_ok and boundary_ok and cli_ok and elapsed < 1.0
    _verdict(1, ok, "reference parameter table reproduces exactly",
             f"fractions={fractions_ok} globals={globals_ok} boundary={boundary_ok} "
             f"cli={cli_ok} {elapsed:.3f}s<1s")


def test_criterion_02_piecewise_max_and_infima():
    t0 = time.monotonic()
    rng = random.Random(12345)
    exact = True
    for _ in range(10_000):
        p = Fraction(rng.randint(1, 500), rng.randint(1, 500)) + Fraction(101, 100)
        r = Fraction(rng.randint(1, 500), rng.randint(1, 500)) + Fraction(101, 100)
        if appendix_a_max(p, r).value != direct_regularity_max(p, r):
            exact = False
            break
    scan1 = appendix_a_infima(1, depth=12)
    scan2 = appendix_a_infima(2, depth=12)
    inf1_ok = Fraction(-1) <= scan1.infimum <= Fraction(-1) + Fraction(1, 100)
    inf2_ok = Fraction(-1, 2) <= scan2.infimum <= Fraction(-1, 2) + Fraction(1, 100)
    elapsed = time.monotonic() - t0
    ok = exact and inf1_ok and inf2_ok and elapsed < 5.0
    _verdict(2, ok, "piecewise max exact at 1e4 points; infima within 1e-2",
             f"exact={exact} inf(r>1)={float(scan1.infimum):.5f} "
             f"inf(r>2)={float(scan2.infimum):.5f} {elapsed:.2f}s<5s")


def test_criterion_03_exponent_algebra_exact():
    checked = 0
    algebra_ok = True
    for row in reproduce_reference_table():
        if not check_local(row.params).all_pass:
            continue
        e = derive_exponents(row.params)
        s, p, r = row.params.s, row.params.p, row.params.r
        algebra_ok &= e.a + e.b == Fraction(2) / p + 1 - s
        algebra_ok &= e.alpha > 0 and e.beta > 0 and e.alpha + e.beta < 1
        # independent recomputation through the expanded form
        alpha_indep = r / (2 * p) - 3 * r / 4 + r * s / 4 + 1
        algebra_ok &= e.alpha == alpha_indep
        checked += 1
    spot1 = derive_exponents(BesovParams("4/3", "5/2", default_q(3), 3))
    spot2 = derive_exponents(BesovParams("9/10", 12, default_q("20/19"), "20/19"))
    spots_ok = spot1.alpha == spot1.beta == Fraction(7, 20) and spot2.alpha == Fraction(28, 57)
    ok = algebra_ok and spots_ok and checked >= 6
    _verdict(3, ok, "exponent algebra exact on all admissible examples",
             f"rows={checked} spots(7/20,28/57)={spots_ok}")


def test_criterion_04_oracle_equivalence():
    t0 = time.monotonic()
    trials = 0
    worst = 0.0
    for n in (4, 6, 8):
        for seed in range(40):
            u = random_field(n, 0.5, seed)
            v = random_field(n, 0.5, seed + 10_000)
            err = float(np.max(np.abs(bilinear_b(u, v).c - bilinear_b_oracle(u, v).c)))
            worst = max(worst, err)
            trials += 1
    elapsed = time.monotonic() - t0
    ok = trials >= 100 and worst <= 1e-12 and elapsed < 10.0
    _verdict(4, ok, "pseudo-spectral B equals convolution oracle",
             f"trials={trials} worst={worst:.2e}<=1e-12 {elapsed:.2f}s<10s")


def test_criterion_05_galerkin_identities():
    n, band = 32, dealias_band(32)
    worst_self = worst_mixed = 0.0
    for seed in range(100):
        u = random_field(n, 1.0, seed, band=band)
        x = random_field(n, 1.0, seed + 20_000, band=band)
        scale_self = u.l2_norm() ** 2 * u.h_norm(1.0) + 1e-300
        worst_self = max(worst_self, abs(trilinear(u, u, u)) / scale_self)
        scale_mixed = u.l2_norm() * x.l2_norm() * x.h_norm(1.0) + 1e-300
        worst_mixed = max(worst_mixed, abs(trilinear(u, x, x)) / scale_mixed)
    ok = worst_self <= 1e-12 and worst_mixed <= 1e-12
    _verdict(5, ok, "trilinear self-terms vanish over 100 dealiased trials",
             f"<B(u,u),u>={worst_self:.2e} <B(y,x),x>={worst_mixed:.2e} (tol 1e-12)")


def test_criterion_06_linear_layer_exact():
    # constant forcing: closed form (1 - exp(-|k|^2 t)) / |k|^2
    f_const = ForcingSpec.from_modes(8, [((2, 0), 0.8)])
    traj_c = stokes_solve(SpectralField.zeros(8), f_const, 1.0, 16)
    worst_const = max(
        abs(u.coeff(2, 0) - 0.8 / 4.0 * -math.expm1(-4.0 * t)) / max(abs(u.coeff(2, 0)), 1e-300)
        for t, u in zip(traj_c.times[1:], traj_c.fields[1:])
    )
    # sinusoid against a Gauss-Legendre quadrature oracle
    amp, omega, phase, lam = 0.3 + 0.2j, 2.0, 0.4, 5.0
    f_sin = ForcingSpec.from_modes(8, [((1, 2), amp, "sinusoid", omega, phase)])
    traj_s = stokes_solve(SpectralField.zeros(8), f_sin, 0.7, 7)
    nodes, wts = np.polynomial.legendre.leggauss(80)
    worst_sin = 0.0
    for i in range(1, 8):
        t = float(traj_s.times[i])
        tau = 0.5 * t * (nodes + 1)
        oracle = amp * 0.5 * t * np.sum(np.exp(-lam * (t - tau)) * np.cos(omega * tau + phase) * wts)
        worst_sin = max(worst_sin, abs(traj_s.fields[i].coeff(1, 2) - oracle) / abs(oracle))
    # semigroup law
    u = random_field(16, 1.0, seed=4)
    a = semigroup(semigroup(u, 0.3), 0.45)
    b = semigroup(u, 0.75)
    semi_err = float(np.max(np.abs(a.c - b.c)) / np.max(np.abs(b.c)))
    ok = worst_const <= 1e-13 and worst_sin <= 1e-13 and semi_err <= 1e-14
    _verdict(6, ok, "linear layer matches closed-form per-mode solutions",
             f"const={worst_const:.2e}<=1e-13 sin={worst_sin:.2e}<=1e-13 "
             f"semigroup={semi_err:.2e}<=1e-14")


def test_criterion_07_integrator_order():
    u0 = random_field(16, 2.0, 3, band=5, amplitude=2.0)
    f = ForcingSpec.from_random(16, 2.5, 11, amplitude=1.0, band=5)
    ref = solve_direct(u0, f, SolverConfig(n=16, dt=0.1 / 640, t_final=0.1)).fields[-1]
    errs = []
    for k in (5, 10, 20, 40):
        sol = solve_direct(u0, f, SolverConfig(n=16, dt=0.1 / k, t_final=0.1)).fields[-1]
        errs.append((sol - ref).l2_norm())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    ok = bool(np.all(orders >= 3.8))
    _verdict(7, ok, "observed convergence order >= 3.8 at N=16, T=0.1",
             "orders=" + ",".join(f"{o:.3f}" for o in orders))


def test_criterion_08_energy_inequality(split_run):
    result, _ = split_run
    mon = result.x_result.monitor
    residual_ok = mon.max_residual <= 1e-6
    ok = residual_ok and not mon.breached
    _verdict(8, ok, "discrete energy identity and a priori envelope at N=32, dt=1e-3, T=1",
             f"max_residual={mon.max_residual:.2e}<=1e-6 breached={mon.breached}")


def test_criterion_09_splitting_consistency(split_run):
    result, cfg = split_run
    generic_ok = result.sup_discrepancy <= 1e-6
    nondegenerate = not result.x_result.y_trajectory.fields[0].is_zero()
    # degenerate split: low-pass data gives h = 0, y0 = 0 and bitwise-near match
    u0 = SpectralField.from_modes(32, [((1, 0), 0.2), ((1, 1), 0.1)])
    f = ForcingSpec.from_modes(32, [((2, 1), 0.05)])
    cfg_small = SolverConfig(n=32, dt=1e-3, t_final=0.05)
    res_d = solve_split(u0, f, PARAMS, cfg_small)
    degenerate_ok = (res_d.split.h.is_zero() and res_d.split.y0.is_zero()
                     and res_d.sup_discrepancy <= 1e-12)
    ok = generic_ok and nondegenerate and degenerate_ok
    _verdict(9, ok, "split solve equals direct solve",
             f"generic_sup={result.sup_discrepancy:.2e}<=1e-6 (y!=0: {nondegenerate}) "
             f"degenerate_sup={res_d.sup_discrepancy:.2e}<=1e-12")


def test_criterion_10_uniqueness_probe(probe_data):
    u0, cfg = probe_data
    delta0 = random_field(32, 3.0, 11, band=cfg.band, amplitude=1e-4)
    rep = uniqueness_probe(u0, ForcingSpec.zero(32), PARAMS, cfg, delta0=delta0,
                           num_halvings=8)
    zero_ok = rep.zero_start_exact
    windows_ok = len(rep.contraction_values) == 9
    decreasing = bool(np.all(np.diff(rep.contraction_values) < 0))
    # "-> 0": the smallest window must sit well below the full-interval value
    vanishing = rep.contraction_values[-1] <= 0.35 * rep.contraction_values[0]
    ok = zero_ok and windows_ok and decreasing and vanishing
    _verdict(10, ok, "delta(0)=0 stays exactly zero; C_u(T) strictly decreasing to 0",
             f"zero_exact={zero_ok} decreasing={decreasing} "
             f"C(2^-8)/C(1)={rep.contraction_values[-1] / rep.contraction_values[0]:.3f}<=0.35")


def test_criterion_11_estimate_harness_stability():
    resolutions = (16, 32, 64)
    ens = EnsembleSpec(count=64, seed=5, resolutions=resolutions)
    chain = verify_estimate_chain(PARAMS, ens)
    chain_maxes = [chain.per_resolution[n]["max"] for n in resolutions]
    chain_spread = max(chain_maxes) / min(chain_maxes)
    energy = energy_lemma_ensemble(0.5, PARAMS.p, PARAMS.r, ens)
    energy_maxes = [energy.per_resolution[n]["max"] for n in resolutions]
    energy_spread = max(energy_maxes) / min(energy_maxes)
    # threshold: the measured constants vary by strictly less than a factor 2
    ok = chain_spread < 2.0 and energy_spread < 2.0
    _verdict(11, ok, "empirical constants stable across N in {16,32,64}",
             f"product-estimate spread={chain_spread:.3f}<2 "
             f"energy-lemma spread={energy_spread:.3f}<2 (64-field ensembles)")


def test_criterion_12_besov_property_trials():
    rng = random.Random(999)
    failures = 0
    for trial in range(1000):
        n = rng.choice((8, 16))
        gamma = rng.uniform(0.0, 3.0)
        u = random_field(n, gamma, seed=trial)
        p = rng.choice((2, Fraction(5, 2), 3, 4))
        blocks = block_lp_norms(u, p)
        s = rng.uniform(-2.0, 2.0)
        t = s - rng.uniform(0.1, 2.0)
        q1 = rng.uniform(1.5, 3.0)
        q2 = q1 + rng.uniform(0.1, 5.0)
        mono_s = besov_from_block_lp(blocks, t, q1) <= besov_from_block_lp(blocks, s, q1) * (1 + 1e-12)
        mono_q = besov_from_block_lp(blocks, s, q2) <= besov_from_block_lp(blocks, s, q1) * (1 + 1e-12)
        # homogeneity: dyadic scalars exact, generic to 1e-12 relative
        lam = rng.uniform(0.1, 10.0)
        base = besov_from_block_lp(blocks, s, q1)
        scaled = besov_value(lam * u, s, p, q1)
        homog = abs(scaled - lam * base) <= 1e-12 * max(lam * base, 1e-300)
        dyadic = besov_value(2.0 * u, 2.0, 2, 2) == 2.0 * besov_value(u, 2.0, 2, 2)
        # block-weight envelope against the Sobolev norm at p = q = 2
        s_env = rng.uniform(-2.0, 2.0)
        h = u.h_norm(s_env)
        env = True
        if h > 0:
            ratio = besov_value(u, s_env, 2, 2) / h
            bound = 2.0 ** abs(s_env)
            env = (1 - 1e-12) / bound <= ratio <= bound * (1 + 1e-12)
        if not (mono_s and mono_q and homog and dyadic and env):
            failures += 1
    ok = failures == 0
    _verdict(12, ok, "norm toolkit properties over 1000 trials",
             f"failures={failures}/1000 (monotone-s, monotone-q, homogeneity, envelope)")
