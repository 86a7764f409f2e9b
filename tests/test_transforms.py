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

from nstorus.besov import BesovParams, _block_labels, _block_lows, block_lp_norms, lp_norm
from nstorus.fields import TWO_PI, SpectralField, _band_mask, _lattice, grid_stack, random_field
from nstorus.nonlinear import (
    bilinear_b,
    bilinear_b_oracle,
    bilinear_terms,
    dealias_band,
    product_grid,
)
from nstorus.solver import SolverConfig, solve_direct, solve_split, solve_x
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


def complex_gradient(u, m):
    """The (4, m, m) stack [d1 u1, d2 u1, d1 u2, d2 u2] on the complex layout."""
    k = np.fft.fftfreq(m, d=1.0 / m)
    ik = (1j * k[:, None], 1j * k[None, :])
    coeffs = complex_coefficients(u, m)
    return np.stack([np.fft.ifft2(d * c).real for c in coeffs for d in ik]) * (m * m)


def complex_samples(u, m):
    cx, cy = complex_coefficients(u, m)
    return np.stack([np.fft.ifft2(cx).real, np.fft.ifft2(cy).real]) * (m * m)


def complex_block_lp_norms(u, p):
    out = []
    labels = _block_labels(u.n)
    for blk in range(len(_block_lows(u.n))):
        piece = SpectralField(u.n, np.where(labels == blk, u.c, 0.0))
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

    @pytest.mark.parametrize("n,m", [(n, m) for n in (8, 16, 32)
                                     for m in (n, n + 2, 3 * n // 2, 2 * n, 4 * n)])
    def test_support_width_samples_equal_full_width(self, n, m):
        # a grid m <= 2 x support is refused, so support n/2 runs only from m = n + 2
        for support in (s for s in (n // 2, n // 4) if 2 * s < m):
            u = random_field(n, 0.5, 5, band=support)
            full = np.stack(complex_coefficients(u, m))[..., : m // 2 + 1]
            assert np.array_equal(u.to_grid(m), np.fft.irfft2(full, s=(m, m), norm="forward"))

    @pytest.mark.parametrize("m", [9, 12, 16])
    def test_samples_match_on_any_grid_from_n(self, m):
        u = random_field(8, 0.5, 3)
        assert np.max(np.abs(u.to_grid(m) - complex_samples(u, m))) <= 1e-14


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(half=st.integers(2, 8), data=st.data())
def test_bilinear_matches_oracle(half, data):
    n = 2 * half
    s_u = data.draw(st.integers(0, half), label="s_u")
    s_v = data.draw(st.integers(0, half), label="s_v")
    seed = data.draw(st.integers(0, 10_000), label="seed")
    # support 0 stands for the zero field, since random_field rejects band 0
    u = random_field(n, 1.0, seed, band=s_u) if s_u else SpectralField.zeros(n)
    v = random_field(n, 1.0, seed + 1, band=s_v) if s_v else SpectralField.zeros(n)
    fast = bilinear_b(u, v)
    slow = bilinear_b_oracle(u, v)
    assert np.max(np.abs(fast.c - slow.c)) <= 1e-13 * max(1.0, np.max(np.abs(slow.c)))


class TestProductGrid:
    def test_band_limited_default_is_n(self):
        assert product_grid(32, 10) == 32
        assert SolverConfig(n=32).grid_m == 32
        assert product_grid(48, 16) == 54  # 2 * 3^3, the first 3-smooth grid above 49
        assert product_grid(32, 1) == 32  # supports count as at least the band

    def test_grid_holds_the_support_and_the_resolution(self):
        # the grid_stack precondition 2s < m, and no grid below n, at every support
        for n in range(4, 257, 2):
            for s in range(n // 2 + 1):
                m = product_grid(n, s)
                assert m > 2 * s and m >= n, (n, s, m)

    def test_shared_states_match_fresh_products(self):
        # fields of different supports share one grid; each term is its own products' sum
        x = random_field(32, 1.0, 1, band=3)
        y = random_field(32, 1.0, 2, band=dealias_band(32))
        pairs = ((x, y), (y, x), (x, x))
        got = bilinear_terms(np.stack([x.c, y.c]),
                             [[(0, 1)], [(1, 0)], [(0, 0)], [(0, 1), (1, 0)]])
        for out, (a, b) in zip(got, pairs):
            assert rel_err(out, bilinear_b(a, b).c) <= 1e-14
            assert np.array_equal(out, bilinear_b(a, b).c)
        pair = (bilinear_b(x, y) + bilinear_b(y, x)).c
        assert rel_err(got[3], pair) <= 1e-14

    @pytest.mark.parametrize("n", [10, 16, 32])
    def test_stacked_grid_is_each_fields_own_grid(self, n):
        # one scatter and one irfft2 at the common width band + 1 give each row's own
        # to_grid, whatever the row's support: here 1 (x), the band (y, u) and 0
        cfg = SolverConfig(n=n)
        u = random_field(n, 2.2, 7, band=cfg.band, amplitude=0.4)
        x = u.low_pass(1)
        rows = (u - x, x, u, SpectralField.zeros(n))
        assert [f.max_mode_inf for f in rows] == [cfg.band, 1, cfg.band, 0]
        grids = grid_stack(np.stack([f.c for f in rows]), cfg.grid_m, cfg.band)
        assert grids.shape == (4, 2, cfg.grid_m, cfg.grid_m)
        for grid, field in zip(grids, rows):
            assert np.array_equal(grid, field.to_grid(cfg.grid_m))

    def test_single_mode_direct_solve_multiplies_on_grid_m(self, monkeypatch):
        # the recorded grid_m is the grid of every product, whatever the data's support
        cfg = SolverConfig(n=32, dt=0.01, t_final=0.03)
        grids = []
        original = np.fft.rfft2
        monkeypatch.setattr(np.fft, "rfft2",
                            lambda a, *args, **kw: grids.append(a.shape[-2:]) or
                            original(a, *args, **kw))
        solve_direct(SpectralField.from_modes(32, [((1, 0), 1.0)]), ForcingSpec.zero(32), cfg)
        assert len(grids) == 4 * cfg.steps + 1
        assert set(grids) == {(cfg.grid_m, cfg.grid_m)}


def _logged_transforms(monkeypatch):
    """Record (input shape, s) of every irfft2 and the input shape of every rfft2."""
    inverse, forward = [], []
    irfft2, rfft2 = np.fft.irfft2, np.fft.rfft2
    monkeypatch.setattr(np.fft, "irfft2", lambda a, s=None, **kw:
                        inverse.append((a.shape, s)) or irfft2(a, s=s, **kw))
    monkeypatch.setattr(np.fft, "rfft2", lambda a, **kw: forward.append(a.shape) or rfft2(a, **kw))
    return inverse, forward


def test_solve_x_makes_one_inverse_and_one_forward_transform_per_stage(monkeypatch):
    # the coupled (y, x) loop puts the stacked pair on the grid with one irfft2 and takes
    # its three product groups, y's own product included, to the band with one rfft2
    cfg = SolverConfig(n=16, dt=0.01, t_final=0.05)
    m, width = cfg.grid_m, cfg.band + 1
    y0 = random_field(16, 2.0, 1, band=cfg.band, amplitude=1e-3)
    inverse, forward = _logged_transforms(monkeypatch)
    solve_x(random_field(16, 2.0, 2, band=cfg.band), ForcingSpec.zero(16), y0,
            ForcingSpec.zero(16), PARAMS, cfg)
    stages = 4 * cfg.steps + 1  # four per step, then the final derivative sample
    # the other inverse transforms are the Besov norms', on the 2n x 2n grid
    assert [shape for shape, s in inverse if s == (m, m)] == [(2, 2, m, width)] * stages
    assert forward == [(3, 3, m, m)] * stages


def test_solve_split_steps_the_pair_stacked_and_the_direct_check_alone(monkeypatch):
    # per stage, one irfft2 of the (y, x) stack and one rfft2 of its three product groups;
    # then the direct solve's own stages, each one irfft2 of the one-field stack [u] and
    # one rfft2 in bilinear_b
    cfg = SolverConfig(n=16, dt=0.01, t_final=0.05, split_eps=5e-2, smallness_y0=6e-2,
                       smallness_h=6e-2)
    m, width = cfg.grid_m, cfg.band + 1
    u0 = random_field(16, 2.2, 42, band=cfg.band, amplitude=0.4)
    f = ForcingSpec.from_random(16, 2.4, 43, amplitude=0.3, band=cfg.band)
    inverse, forward = _logged_transforms(monkeypatch)
    solve_split(u0, f, PARAMS, cfg)
    stages = 4 * cfg.steps + 1
    assert ([shape for shape, s in inverse if s == (m, m)]
            == [(2, 2, m, width)] * stages + [(1, 2, m, width)] * stages)
    assert forward == [(3, 3, m, m)] * stages + [(1, 3, m, m)] * stages
