"""Bilinear operator against its convolution oracle; estimate harnesses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstorus.besov import BesovParams
from nstorus.errors import InadmissibleParams, OracleCapExceeded, ResolutionMismatch
from nstorus.fields import SpectralField, random_field
from nstorus.nonlinear import (
    EnsembleSpec,
    bilinear_b,
    bilinear_b_oracle,
    dealias_band,
    energy_lemma_ensemble,
    trilinear,
    verify_classical_trilinear,
    verify_energy_lemma,
    verify_estimate_chain,
)

PARAMS = BesovParams("4/3", "5/2", "3", "3")

# Frozen oracle regression: B(u, v) for unit single-mode inputs u on the
# (1,0) pair and v on the (0,1) pair lands on the (1, +-1) pairs with
# coefficient i / (2 pi sqrt(2)).  (For the combined two-mode field the
# quadratic term vanishes identically: it is a steady vortex.)
TWO_MODE_VALUE = 0.11253953951963826j


def _random_or_zero(n, seed, support):
    """A random field on |k|_inf <= support; support 0, which random_field rejects, is zero."""
    return random_field(n, 1.0, seed, band=support) if support else SpectralField.zeros(n)


class TestBilinear:
    def test_single_shear_mode_is_steady(self):
        u = SpectralField.from_modes(12, [((2, 0), 1.0)])
        assert bilinear_b(u, u).is_zero()

    def test_zero_input(self):
        z = SpectralField.zeros(8)
        assert bilinear_b_oracle(z, z).is_zero()
        assert bilinear_b(z, random_field(8, 1.0, 1)).is_zero()

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_oracle_equivalence(self, n):
        for seed in range(25):
            u = random_field(n, 0.5, seed)
            v = random_field(n, 0.5, seed + 500)
            fast = bilinear_b(u, v)
            slow = bilinear_b_oracle(u, v)
            assert np.max(np.abs(fast.c - slow.c)) <= 1e-12

    def test_two_mode_regression_fixture(self):
        u = SpectralField.from_modes(4, [((1, 0), 1.0)])
        v = SpectralField.from_modes(4, [((0, 1), 1.0)])
        out = bilinear_b_oracle(u, v, band=1)
        assert out.coeff(1, 1) == pytest.approx(TWO_MODE_VALUE, abs=1e-15)
        assert out.coeff(1, -1) == pytest.approx(TWO_MODE_VALUE, abs=1e-15)
        support = {k[:2] for k in [(k1, k2) for k1, k2, c in out.active_modes() if c != 0]}
        assert support == {(1, 1), (1, -1), (-1, -1), (-1, 1)}

    def test_combined_two_mode_field_is_steady(self):
        w = SpectralField.from_modes(4, [((1, 0), 1.0), ((0, 1), 1.0)])
        assert np.max(np.abs(bilinear_b_oracle(w, w, band=1).c)) <= 1e-15
        assert np.max(np.abs(bilinear_b(w, w, band=1).c)) <= 1e-15

    def test_oracle_bilinear_dyadic_exact(self):
        u = random_field(6, 1.0, 3)
        v = random_field(6, 1.0, 4)
        a = bilinear_b_oracle(0.5 * u, v)
        b = bilinear_b_oracle(u, v)
        assert np.array_equal(a.c, 0.5 * b.c)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(half=st.integers(2, 16), data=st.data())
    def test_bilinearity(self, half, data):
        n = 2 * half
        band = dealias_band(n)
        u1, u2, v = (_random_or_zero(n, data.draw(st.integers(0, 10_000), label="seed"),
                                     data.draw(st.integers(0, band), label="support"))
                     for _ in range(3))
        a, b = (data.draw(st.floats(-1e3, 1e3, allow_nan=False), label="scalar") for _ in range(2))
        w = a * u1 + b * u2
        # round-off of one product is bounded by sum|u_k| * sum 2 pi |k| |v_k|
        l1 = lambda f: float(np.sum(np.abs(f.c)))
        scale = (abs(a) * l1(u1) + abs(b) * l1(u2)) * 2.0 * np.pi * n * l1(v)
        for lhs, rhs in ((bilinear_b(w, v), a * bilinear_b(u1, v) + b * bilinear_b(u2, v)),
                         (bilinear_b(v, w), a * bilinear_b(v, u1) + b * bilinear_b(v, u2))):
            assert np.max(np.abs(lhs.c - rhs.c)) <= 1e-16 * scale

    def test_oracle_cap(self):
        u = random_field(32, 1.0, 1)
        with pytest.raises(OracleCapExceeded):
            bilinear_b_oracle(u, u)

    def test_resolution_mismatch(self):
        with pytest.raises(ResolutionMismatch):
            bilinear_b(random_field(8, 1.0, 1), random_field(16, 1.0, 1))

    def test_output_in_dealias_band(self):
        u = random_field(16, 0.5, 9)
        out = bilinear_b(u, u)
        assert out.max_mode_inf <= dealias_band(16)

    def test_output_divergence_free(self):
        u = random_field(16, 0.5, 10, band=dealias_band(16))
        out = bilinear_b(u, u)
        # rows 2..5 of a grid state are d1 u1, d2 u1, d1 u2, d2 u2
        g = out.grid_state(32).values
        scale = max(np.max(np.abs(g[2:])), 1e-300)
        assert np.max(np.abs(g[2] + g[5])) <= 1e-12 * scale


class TestTrilinear:
    def test_galerkin_vanishing_and_antisymmetry(self):
        n, band = 32, dealias_band(32)
        for seed in range(10):
            x = random_field(n, 1.0, seed, band=band)
            y = random_field(n, 1.0, seed + 100, band=band)
            scale = x.l2_norm() ** 2 * x.h_norm(1.0) + 1e-300
            assert abs(trilinear(x, x, x)) <= 1e-12 * scale
            scale2 = y.l2_norm() * x.l2_norm() * x.h_norm(1.0) + 1e-300
            assert abs(trilinear(y, x, x)) <= 1e-12 * scale2
            # <B(x,y),x> = -<B(x,x),y>
            lhs = trilinear(x, y, x)
            rhs = -trilinear(x, x, y)
            assert abs(lhs - rhs) <= 1e-12 * (abs(rhs) + scale2)

    def test_trilinear_uvv_vanishes(self):
        n, band = 16, dealias_band(16)
        for seed in range(5):
            u = random_field(n, 1.0, seed, band=band)
            v = random_field(n, 1.0, seed + 50, band=band)
            scale = u.l2_norm() * v.l2_norm() * v.h_norm(1.0) + 1e-300
            assert abs(trilinear(u, v, v)) <= 1e-12 * scale

    def test_zero_first_argument(self):
        v = random_field(8, 1.0, 1)
        w = random_field(8, 1.0, 2)
        assert trilinear(SpectralField.zeros(8), v, w) == 0.0


class TestEstimateChain:
    def test_exponents_and_report(self):
        rep = verify_estimate_chain(PARAMS, EnsembleSpec(count=4, seed=1, resolutions=(8, 16)))
        assert rep.inequality == "product-estimate"
        assert rep.extra["alpha"] == "7/20" and rep.extra["beta"] == "7/20"
        assert rep.max_ratio > 0 and np.isfinite(rep.max_ratio)
        assert set(rep.per_resolution) == {8, 16}

    def test_gate_enforced(self):
        with pytest.raises(InadmissibleParams):
            verify_estimate_chain(BesovParams(0, 2, 2, 2),
                                  EnsembleSpec(count=1, seed=0, resolutions=(8,)))

    @pytest.mark.parametrize("count,resolutions,message", [
        (0, (8,), "ensemble count must be >= 1, got 0"),
        (-2, (8,), "ensemble count must be >= 1, got -2"),
        (4, (), "ensemble resolutions must not be empty"),
    ])
    def test_empty_ensemble_rejected(self, count, resolutions, message):
        with pytest.raises(ValueError, match=message):
            EnsembleSpec(count=count, seed=0, resolutions=resolutions)


class TestEnergyLemma:
    def test_hypotheses_named(self):
        x = random_field(8, 1.0, 1)
        with pytest.raises(ValueError, match="p~ >= 2"):
            verify_energy_lemma(x, x, 0.5, "3/2", 3)
        with pytest.raises(ValueError, match="q~ > 2"):
            verify_energy_lemma(x, x, 0.5, 2, 2)
        with pytest.raises(ValueError, match="2/p~ \\+ 2/q~ - 1 > 0"):
            verify_energy_lemma(x, x, 0.5, 100, 100)

    def test_zero_y_gives_zero_lhs(self):
        x = random_field(16, 1.0, 3, band=5)
        rep = verify_energy_lemma(x, SpectralField.zeros(16), 0.5, 2, 3)
        assert rep.lhs == 0.0

    def test_shear_x_gives_zero_lhs(self):
        x = SpectralField.from_modes(16, [((2, 0), 1.0)])
        y = random_field(16, 1.0, 4, band=5)
        rep = verify_energy_lemma(x, y, 0.5, 2, 3)
        assert rep.lhs <= 1e-14

    def test_ensemble_reports_finite_constant(self):
        rep = energy_lemma_ensemble(0.5, PARAMS.p, PARAMS.r,
                                    EnsembleSpec(count=4, seed=2, resolutions=(16,)))
        assert np.isfinite(rep.max_ratio) and rep.max_ratio > 0


class TestClassicalChain:
    def test_hoelder_link_exact(self):
        n, band = 16, dealias_band(16)
        for seed in range(20):
            x = random_field(n, 1.3, seed, band=band)
            y = random_field(n, 1.3, seed + 200, band=band)
            rep = verify_classical_trilinear(x, y)
            link = rep.link("holder")
            assert link.lhs <= link.rhs * (1 + 1e-10)

    def test_interpolation_link_cauchy_schwarz(self):
        for seed in range(20):
            x = random_field(16, 1.0, seed)
            rep = verify_classical_trilinear(x, x)
            link = rep.link("interpolation")
            assert link.lhs <= link.rhs * (1 + 1e-12)

    def test_zero_field_all_links_zero(self):
        rep = verify_classical_trilinear(SpectralField.zeros(8), SpectralField.zeros(8))
        assert rep.link("holder").lhs == 0.0
        assert rep.link("interpolation").lhs == 0.0
