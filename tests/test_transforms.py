"""The real-FFT transform layer against the complex m = 2N reference.

The reference functions below reproduce the earlier complex-transform
implementation of bilinear_b and block_lp_norms (two complex m x m arrays
per field, one ifft2 per component and derivative, one pair per dyadic
block).  They live only here, as the yardstick for the real-FFT layer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstorus.besov import BesovParams, _block_masks, block_lp_norms, lp_norm
from nstorus.errors import ResolutionMismatch
from nstorus.fields import TWO_PI, SpectralField, _band_mask, _lattice, random_field
from nstorus.nonlinear import (
    bilinear_b,
    bilinear_b_oracle,
    dealias_band,
    grid_states,
    product_grid,
    trilinear,
)
from nstorus.solver import SolverConfig, solve_x
from nstorus.stokes import ForcingSpec

PARAMS = BesovParams("4/3", "5/2", "3", "3")


def complex_coefficients(u, m):
    """Velocity Fourier coefficients on the full complex m x m layout."""
    k1a, k2a, canon, _, _, phi1, phi2 = _lattice(u.n)
    out = []
    for phi in (phi1, phi2):
        w = (u.c * phi)[canon]
        c = np.zeros((m, m), dtype=np.complex128)
        np.add.at(c, (k1a[canon] % m, k2a[canon] % m), w)
        np.add.at(c, (-k1a[canon] % m, -k2a[canon] % m), np.conj(w))
        out.append(c)
    return out


def complex_bilinear_b(u, v, band=None):
    n, m = u.n, 2 * u.n
    band = dealias_band(n) if band is None else band
    cux, cuy = complex_coefficients(u, m)
    cvx, cvy = complex_coefficients(v, m)
    scale = m * m
    ux = np.fft.ifft2(cux).real * scale
    uy = np.fft.ifft2(cuy).real * scale
    k = np.fft.fftfreq(m, d=1.0 / m)
    ikx, iky = 1j * k[:, None], 1j * k[None, :]
    w1 = ux * (np.fft.ifft2(ikx * cvx).real * scale) + uy * (np.fft.ifft2(iky * cvx).real * scale)
    w2 = ux * (np.fft.ifft2(ikx * cvy).real * scale) + uy * (np.fft.ifft2(iky * cvy).real * scale)
    wx, wy = np.fft.fft2(w1) / scale, np.fft.fft2(w2) / scale
    k1a, k2a, _, _, kabs, _, _ = _lattice(n)
    i1, i2 = k1a % m, k2a % m
    proj = TWO_PI * (wx[i1, i2] * (-k2a) + wy[i1, i2] * k1a) / kabs
    return SpectralField(n, np.where(_band_mask(n, band), proj, 0.0))


def complex_samples(u, m):
    cx, cy = complex_coefficients(u, m)
    return np.stack([np.fft.ifft2(cx).real, np.fft.ifft2(cy).real]) * (m * m)


def complex_block_lp_norms(u, p):
    out = []
    for blk, mask in enumerate(_block_masks(u.n)):
        piece = SpectralField(u.n, np.where(mask, u.c, 0.0))
        samples = complex_samples(piece, 2 * u.n)
        out.append((blk, lp_norm(samples, p)))
    return out


def rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


CASES = [(n, band) for n in (16, 32, 64) for band in (None, dealias_band(n))]


class TestComplexReference:
    @pytest.mark.parametrize("n,support", CASES)
    def test_bilinear_matches(self, n, support):
        for seed in range(3):
            u = random_field(n, 1.0, seed, band=support)
            v = random_field(n, 1.5, seed + 40, band=support)
            for a, b in ((u, v), (u, u)):
                assert rel_err(bilinear_b(a, b).c, complex_bilinear_b(a, b).c) <= 1e-14

    @pytest.mark.parametrize("n,support", CASES)
    @pytest.mark.parametrize("p", ["5/2", 4])
    def test_block_lp_norms_match(self, n, support, p):
        u = random_field(n, 1.2, 7, band=support)
        got = block_lp_norms(u, p)
        ref = complex_block_lp_norms(u, p)
        assert [b for b, _ in got] == [b for b, _ in ref]
        for (_, a), (_, b) in zip(got, ref):
            assert abs(a - b) <= 1e-14 * b

    @pytest.mark.parametrize("m", [8, 9, 12, 16])
    def test_samples_match_on_any_grid_from_n(self, m):
        # m = n puts the outermost modes on the Nyquist line, where partners share slots
        u = random_field(8, 0.5, 3)
        assert np.max(np.abs(u.to_grid(m) - complex_samples(u, m))) <= 1e-14


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(half=st.integers(2, 8), data=st.data())
def test_bilinear_matches_oracle(half, data):
    n = 2 * half
    band = data.draw(st.integers(0, half), label="band")
    s_u = data.draw(st.integers(0, half), label="s_u")
    s_v = data.draw(st.integers(0, half), label="s_v")
    seed = data.draw(st.integers(0, 10_000), label="seed")
    # support 0 stands for the zero field, since random_field rejects band 0
    u = random_field(n, 1.0, seed, band=s_u) if s_u else SpectralField.zeros(n)
    v = random_field(n, 1.0, seed + 1, band=s_v) if s_v else SpectralField.zeros(n)
    fast = bilinear_b(u, v, band=band)
    slow = bilinear_b_oracle(u, v, band=band)
    assert np.max(np.abs(fast.c - slow.c)) <= 1e-13 * max(1.0, np.max(np.abs(slow.c)))


class TestProductGrid:
    def test_band_limited_default_is_n(self):
        assert product_grid(10, 10, 10) == 32
        assert SolverConfig(n=32).grid_m == 32
        assert product_grid(16, 16, 16) == 50

    def test_full_band_energy_vanishes(self):
        n, band = 32, 16
        for seed in range(5):
            u = random_field(n, 1.0, seed, band=band)
            scale = u.l2_norm() ** 2 * u.h_norm(1.0)
            assert abs(trilinear(u, u, u, band=band)) <= 1e-12 * scale

    def test_shared_states_match_fresh_products(self):
        band = dealias_band(32)
        x = random_field(32, 1.0, 1, band=3)
        y = random_field(32, 1.0, 2, band=band)
        gx, gy = grid_states((x, y), band)
        assert gx.m == gy.m == 32
        for a, b, ga, gb in ((x, y, gx, gy), (y, x, gy, gx), (x, x, gx, gx)):
            assert rel_err(bilinear_b(ga, gb, band=band).c, bilinear_b(a, b, band=band).c) <= 1e-14

    def test_states_on_too_small_a_grid_rejected(self):
        u = random_field(32, 1.0, 1, band=10)
        small = random_field(32, 1.0, 2, band=2)
        (state,) = grid_states((small,), 10)
        with pytest.raises(ResolutionMismatch):
            bilinear_b(state, u)
        with pytest.raises(ResolutionMismatch):
            u.grid_state(20)


def test_solve_x_builds_two_grid_states_per_stage(monkeypatch):
    # the coupled (y, x) loop puts each of y and x on the grid once per stage, y's own
    # product included
    cfg = SolverConfig(n=16, dt=0.01, t_final=0.05)
    y0 = random_field(16, 2.0, 1, band=cfg.band, amplitude=1e-3)
    built = []
    original = SpectralField.grid_state
    monkeypatch.setattr(SpectralField, "grid_state",
                        lambda self, m: built.append(m) or original(self, m))
    solve_x(random_field(16, 2.0, 2, band=cfg.band), ForcingSpec.zero(16), y0,
            ForcingSpec.zero(16), PARAMS, cfg)
    stages = 4 * cfg.steps + 1  # four per step, then the final derivative sample
    assert len(built) == 2 * stages
